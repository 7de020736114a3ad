"""Independent group-theory oracle used to cross-check commutator calculus.

Works directly on a multiplication table: normal subgroups by subset
enumeration, commutator subgroups from element commutators, centers and
lower and upper central series by elementwise search.  Deliberately shares no code
with the congruence machinery it is checking.
"""

import itertools


class GroupTable:
    def __init__(self, alg, mul_name, inv_name):
        self.n = alg.size
        op = alg.op(mul_name)
        self.mul = [
            [op.table[a * self.n + b] for b in range(self.n)] for a in range(self.n)
        ]
        inv = alg.op(inv_name)
        self.inv = list(inv.table)
        self.e = next(
            a for a in range(self.n)
            if all(self.mul[a][b] == b for b in range(self.n))
        )

    def conj(self, g, x):
        return self.mul[self.mul[g][x]][self.inv[g]]

    def comm(self, a, b):
        return self.mul[self.mul[a][b]][self.mul[self.inv[a]][self.inv[b]]]

    def subgroup_closure(self, gens):
        out = {self.e}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            for y in list(out):
                for z in (self.mul[x][y], self.mul[y][x], self.inv[x]):
                    if z not in out:
                        frontier.append(z)
        return frozenset(out)

    def normal_subgroups(self):
        subs = set()
        for bits in itertools.product((0, 1), repeat=self.n):
            subset = frozenset(i for i in range(self.n) if bits[i])
            if self.e not in subset:
                continue
            if any(self.mul[a][b] not in subset for a in subset for b in subset):
                continue
            if any(self.inv[a] not in subset for a in subset):
                continue
            if any(
                self.conj(g, x) not in subset for g in range(self.n) for x in subset
            ):
                continue
            subs.add(subset)
        return sorted(subs, key=lambda s: (len(s), sorted(s)))

    def commutator_subgroup(self, n1, n2):
        gens = [self.comm(a, b) for a in n1 for b in n2]
        return self.subgroup_closure(gens)

    def center_subgroup(self):
        return frozenset(
            g for g in range(self.n)
            if all(self.mul[g][h] == self.mul[h][g] for h in range(self.n))
        )

    def lower_central_series(self):
        full = frozenset(range(self.n))
        series = [full]
        while True:
            nxt = self.commutator_subgroup(full, series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt == {self.e}:
                break
        return series

    def upper_central_series(self):
        """Z0 = {e}, Z(i+1) = {g : every commutator [g, x] lies in Zi}."""
        series = [frozenset({self.e})]
        while True:
            nxt = frozenset(
                g for g in range(self.n)
                if all(self.comm(g, x) in series[-1] for x in range(self.n))
            )
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    def nilpotency_class(self):
        series = self.lower_central_series()
        return len(series) - 1 if series[-1] == frozenset({self.e}) else None

    def congruence_blocks(self, subgroup):
        """Left-coset partition as a canonical block-index tuple."""
        labels = [None] * self.n
        fresh = 0
        for x in range(self.n):
            if labels[x] is not None:
                continue
            for y in subgroup:
                labels[self.mul[x][y]] = fresh
            fresh += 1
        relabel = {}
        out = []
        for lab in labels:
            if lab not in relabel:
                relabel[lab] = len(relabel)
            out.append(relabel[lab])
        return tuple(out)

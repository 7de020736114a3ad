"""Finite abelian groups given by addition tables, plus hom/iso enumeration
and quotient-by-presentation via integer Smith normal form."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, InvariantViolation
from .laws import require, require_range


@dataclass(frozen=True)
class AbelianGroup:
    size: int
    add: tuple[int, ...]  # flat size*size table, row-major

    def __post_init__(self):
        n = self.size
        if len(self.add) != n * n:
            raise InvariantViolation("abgroup-table-length", len(self.add))
        require_range("abgroup-entry", self.add, n)
        add = np.reshape(self.add, (n, n))
        units = np.flatnonzero((add == np.arange(n)).all(axis=1))
        if not units.size:
            raise InvariantViolation("abgroup-zero", self.add)
        zero = int(units[0])
        inverse = add == zero
        missing = np.flatnonzero(~inverse.any(axis=1))
        if missing.size:
            raise InvariantViolation("abgroup-inverses", int(missing[0]))
        require((n, n, n), [
            ("abgroup-commutative", lambda a, b: add[a, b] == add[b, a]),
            ("abgroup-associative", lambda a, b, c: add[add[a, b], c] == add[a, add[b, c]]),
        ])
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "neg", tuple(inverse.argmax(axis=1).tolist()))

    def plus(self, a: int, b: int) -> int:
        return self.add[a * self.size + b]

    def minus(self, a: int, b: int) -> int:
        return self.plus(a, self.neg[b])

    def scalar(self, k: int, a: int) -> int:
        """k-fold sum of a (k may be negative)."""
        if k < 0:
            return self.neg[self.scalar(-k, a)]
        out = self.zero
        for _ in range(k):
            out = self.plus(out, a)
        return out

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls(n, tuple((a + b) % n for a in range(n) for b in range(n)))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls.cyclic(1)


def generating_sequence(g: AbelianGroup) -> list[int]:
    """Greedy generating sequence: extend whenever an element is not yet spanned."""
    span = {g.zero}
    gens = []
    for x in range(g.size):
        if x in span:
            continue
        gens.append(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for s in list(span):
                v = g.plus(s, y)
                if v not in span:
                    span.add(v)
                    frontier.append(v)
            if y not in span:
                span.add(y)
    return gens


def extend_additive(src: AbelianGroup, dst: AbelianGroup, images):
    """Fold (element, image) pairs into a map src -> dst, closing under
    addition after each pair.

    Returns (table, conflict): table[x] is the image of x, None where the
    pairs do not reach x; conflict is the first element found with two
    different images, and None when there is none.
    """
    table = [None] * src.size
    table[src.zero] = dst.zero
    frontier = [src.zero]
    for x, img in images:
        if table[x] is None:
            table[x] = img
            frontier.append(x)
        elif table[x] != img:
            return table, x
        while frontier:
            y = frontier.pop()
            for u in range(src.size):
                if table[u] is None:
                    continue
                v = src.plus(u, y)
                w = dst.plus(table[u], table[y])
                if table[v] is None:
                    table[v] = w
                    frontier.append(v)
                elif table[v] != w:
                    return table, v
    return table, None


def additive_maps(src: AbelianGroup, dst: AbelianGroup) -> list[tuple[int, ...]]:
    """All group homomorphisms src -> dst as value tables, in a stable order.

    Enumerated over images of a generating sequence; each candidate is
    extended by closure and rejected on the first conflict, so the cost is
    |dst|**len(gens) candidate extensions.
    """
    gens = generating_sequence(src)
    out = []
    for images in itertools.product(range(dst.size), repeat=len(gens)):
        table, conflict = extend_additive(src, dst, zip(gens, images))
        if conflict is not None or None in table:
            continue
        # final consistency sweep (guards against partially-closed folds)
        if all(
            table[src.plus(a, b)] == dst.plus(table[a], table[b])
            for a in range(src.size)
            for b in range(src.size)
        ):
            out.append(tuple(table))
    return out


def isomorphisms(src: AbelianGroup, dst: AbelianGroup) -> list[tuple[int, ...]]:
    if src.size != dst.size:
        return []
    return [
        h for h in additive_maps(src, dst) if len(set(h)) == src.size
    ]


def smith_normal_form(matrix: list[list[int]], ncols: int):
    """Diagonalise an integer relation matrix by row/column operations.

    Returns (diag, V) where diag has length ncols and V is the accumulated
    column-operation matrix: for the row lattice L of `matrix`, z ~ z'
    modulo L iff (z - z')V is componentwise divisible by diag.  Only the
    column transform is tracked; row operations do not change the lattice.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]  # V stored transposed: V[c] is column c of the transform

    def addmul_col(dst, src, k):
        for r in rows:
            r[dst] += k * r[src]
        for t in range(ncols):
            V[dst][t] += k * V[src][t]

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def addmul_row(dst, src, k):
        for t in range(ncols):
            rows[dst][t] += k * rows[src][t]

    diag = [0] * ncols
    t = 0
    while t < ncols and t < nrows:
        # pick the minimal nonzero pivot in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if rows[i][j] != 0 and (
                    pivot is None or abs(rows[i][j]) < abs(rows[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            done = True
            for i in range(t + 1, nrows):
                if rows[i][t] % rows[t][t] != 0:
                    addmul_row(i, t, -(rows[i][t] // rows[t][t]))
                    swap_rows(t, i)
                    done = False
            for i in range(t + 1, nrows):
                if rows[i][t]:
                    addmul_row(i, t, -(rows[i][t] // rows[t][t]))
            for j in range(t + 1, ncols):
                if rows[t][j] % rows[t][t] != 0:
                    addmul_col(j, t, -(rows[t][j] // rows[t][t]))
                    swap_cols(t, j)
                    done = False
            for j in range(t + 1, ncols):
                if rows[t][j]:
                    addmul_col(j, t, -(rows[t][j] // rows[t][t]))
            if done and all(rows[i][t] == 0 for i in range(t + 1, nrows)) and all(
                rows[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
        diag[t] = abs(rows[t][t])
        t += 1
    # V was maintained transposed; hand back column vectors
    return diag, V


def group_from_presentation(ngens: int, relations: list[list[int]]):
    """Finite abelian group Z^ngens / <relations>.

    Returns (group, coords) where coords maps a generator index to its
    element of the quotient.  Raises if the quotient is infinite.
    """
    diag, V = smith_normal_form(relations, ngens)
    moduli = []
    keep = []
    for i in range(ngens):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            raise InternalError("presentation does not define a finite group")
        if d == 1:
            continue
        moduli.append(d)
        keep.append(i)

    def classify(z) -> tuple[int, ...]:
        # coordinates of z in the transformed basis, reduced mod the moduli
        return tuple(
            sum(V[c][g] * z[g] for g in range(ngens)) % m
            for c, m in zip(keep, moduli)
        )

    size = 1
    for m in moduli:
        size *= m
    index = {}
    elems = []
    for vec in itertools.product(*(range(m) for m in moduli)):
        index[vec] = len(elems)
        elems.append(vec)
    table = []
    for a in elems:
        for b in elems:
            table.append(index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))])
    group = AbelianGroup(max(size, 1), tuple(table) if size else (0,))
    coords = []
    for g in range(ngens):
        z = [0] * ngens
        z[g] = 1
        coords.append(index[classify(z)])
    return group, coords

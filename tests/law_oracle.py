"""Brute-force oracle for the law kernel of `maltkit.laws`.

Each function walks the identities of one structure in plain nested loops
over itertools products, in the order the structure's laws are declared,
and returns the first (law, witness) it meets, or None.  It reads the flat
tables by index arithmetic and shares no code with the kernel it checks.
"""

import itertools


def _first(cases):
    """cases yields (law, witness, holds) in loop order."""
    for law, witness, holds in cases:
        if not holds:
            return law, witness
    return None


def _abgroup_cases(n, add):
    zero = next((e for e in range(n) if all(add[e * n + a] == a for a in range(n))), None)
    if zero is None:
        yield "abgroup-zero", tuple(add), False
        return
    for a in range(n):
        yield "abgroup-inverses", a, any(add[a * n + b] == zero for b in range(n))
    for a, b in itertools.product(range(n), repeat=2):
        yield "abgroup-commutative", (a, b), add[a * n + b] == add[b * n + a]
        for c in range(n):
            yield ("abgroup-associative", (a, b, c),
                   add[add[a * n + b] * n + c] == add[a * n + add[b * n + c]])


def ring_violation(n, add, mul, zero, one):
    """First failing law of FiniteRing(n, add, mul, zero, one), tables in range."""
    def cases():
        yield from _abgroup_cases(n, add)
        gzero = next(e for e in range(n) if all(add[e * n + a] == a for a in range(n)))
        yield "ring-zero", zero, gzero == zero
        p = lambda a, b: add[a * n + b]
        m = lambda a, b: mul[a * n + b]
        for a in range(n):
            yield "ring-unit", a, m(one, a) == a and m(a, one) == a
            for b, c in itertools.product(range(n), repeat=2):
                yield "ring-mul-associative", (a, b, c), m(m(a, b), c) == m(a, m(b, c))
                yield "ring-left-distributive", (a, b, c), m(a, p(b, c)) == p(m(a, b), m(a, c))
                yield "ring-right-distributive", (a, b, c), m(p(a, b), c) == p(m(a, c), m(b, c))
    return _first(cases())


def affinity_violation(form, n, herd, raction, phi):
    """First failing affinity axiom: each law over all its tuples in turn."""
    R, M = form.ring, form.module
    H = lambda b, a, c: herd[(b * n + a) * n + c]
    act = lambda r, a, b: raction[(r * n + a) * n + b]
    PH = lambda x, a: phi[x * n + a]
    sub = lambda b, a, c: H(b, a, act(R.neg(R.one), a, c))
    rng, rr, mm = range(n), range(R.size), range(M.size)
    laws = [
        ("plus-associative", (rng,) * 4,
         lambda a, b, c, e: H(b, a, H(c, a, e)) == H(H(b, a, c), a, e)),
        ("plus-unit", (rng,) * 2, lambda a, b: H(a, a, b) == b),
        ("plus-commutative", (rng,) * 3, lambda a, b, c: H(b, a, c) == H(c, a, b)),
        ("minus-self", (rng,) * 2, lambda a, b: sub(b, a, b) == a),
        ("scale-distributes", (rr, rng, rng, rng),
         lambda r, a, b, c: act(r, a, H(b, a, c)) == H(act(r, a, b), a, act(r, a, c))),
        ("scale-adds", (rr, rr, rng, rng),
         lambda r, s, a, b: act(R.plus(r, s), a, b) == H(act(r, a, b), a, act(s, a, b))),
        ("scale-unit", (rng,) * 2, lambda a, b: act(R.one, a, b) == b),
        ("scale-multiplies", (rr, rr, rng, rng),
         lambda r, s, a, b: act(r, a, act(s, a, b)) == act(R.mulv(r, s), a, b)),
        ("phi-additive", (mm, mm, rng),
         lambda x, y, a: PH(M.plus(x, y), a) == H(PH(x, a), a, PH(y, a))),
        ("phi-linear", (rr, mm, rng),
         lambda r, x, a: PH(M.smul(r, x), a) == act(r, a, PH(x, a))),
        ("base-change-plus", (rng,) * 4,
         lambda o, a, b, c: H(b, a, c) == H(H(sub(b, o, a), o, sub(c, o, a)), o, a)),
        ("base-change-scale", (rr, rng, rng, rng),
         lambda r, o, a, b: act(r, a, b) == H(act(r, o, sub(b, o, a)), o, a)),
        ("base-change-phi", (mm, rng, rng),
         lambda x, o, a: PH(x, a) == H(PH(x, o), o, act(R.minus(R.one, form.d[x]), o, a))),
    ]
    return _first(
        (name, t, holds(*t))
        for name, ranges, holds in laws
        for t in itertools.product(*ranges)
    )


def monoid_extension_violation(total, base, proj, system, actions):
    """First failing law of MonoidExtension(total, base, proj, system, actions),
    for a valid system over `base` and entries in range."""
    def cases():
        yield "extension-proj-length", len(proj), len(proj) == total.size
        yield "extension-proj-surjective", None, set(proj) == set(range(base.size))
        yield "extension-proj-unit", None, proj[total.unit] == base.unit
        for a, b in itertools.product(range(total.size), repeat=2):
            yield ("extension-proj-hom", (a, b),
                   proj[total.mulv(a, b)] == base.mulv(proj[a], proj[b]))
        for b in range(base.size):
            fib = [e for e in range(total.size) if proj[e] == b]
            g, table, k = system.groups[b], actions[b], len(fib)
            yield "extension-action-length", b, len(table) == g.size * k
            for d, i in itertools.product(range(g.size), range(k)):
                yield "extension-action-fiber", (b, d, fib[i]), proj[table[d * k + i]] == b
            for i, e in enumerate(fib):
                yield "extension-action-zero", (b, e), table[g.zero * k + i] == e
                for d1, d2 in itertools.product(range(g.size), repeat=2):
                    step = fib.index(table[d2 * k + i])
                    yield ("extension-action-sum", (b, d1, d2, e),
                           table[g.plus(d1, d2) * k + i] == table[d1 * k + step])
    return _first(cases())


def congruence_violation(alg, labels):
    """First (translation, a, b) with a < b in one block of `labels` whose
    images under the translation fall in different blocks, or None.

    Translations in the order operations, free position, frozen arguments
    lexicographically; each is a tuple read off the flat table (leftmost
    argument most significant)."""
    n = alg.size
    for op in alg.ops:
        for pos in range(op.arity):
            for consts in itertools.product(range(n), repeat=op.arity - 1):
                t = []
                for x in range(n):
                    idx = 0
                    for v in consts[:pos] + (x,) + consts[pos:]:
                        idx = idx * n + v
                    t.append(op.table[idx])
                for a in range(n):
                    for b in range(a + 1, n):
                        if labels[a] == labels[b] and labels[t[a]] != labels[t[b]]:
                            return tuple(t), a, b
    return None

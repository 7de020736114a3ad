"""Brute-force oracle for the checks that run on the law kernel of `maltkit.laws`.

Each function walks the identities of one structure in plain nested loops
over itertools products, in the order the structure's laws are declared,
and returns the first (law, witness) it meets, or None; the checks that
report otherwise (linear extensions, singular extensions of forms, form
isomorphisms, homomorphisms) keep the loops and the return values of the
code they check.  The oracle reads the flat tables by index arithmetic and
shares no code with the kernel, except that crext_report builds the induced
group, module and bimodule through their constructors.
"""

import itertools

from maltkit.abgroup import AbelianGroup
from maltkit.errors import InvariantViolation
from maltkit.rings import DBimodule, LeftModule


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


def linear_extension_report(ext):
    """(ok, reason, witness) of check_linear_extension: the subtraction table
    of each fibre as a dict of pairs, then both identities in nested loops."""
    total, base, proj, sys_ = ext.total, ext.base, ext.proj, ext.system
    fibres = [tuple(e for e in range(total.size) if proj[e] == b) for b in range(base.size)]
    subs = []
    for b, fib in enumerate(fibres):
        g = sys_.groups[b]
        if g.size != len(fib):
            return False, "fibre size differs from group order", (b,)
        table = {}
        for d in range(g.size):
            for i, e2 in enumerate(fib):
                e1 = ext.actions[b][d * len(fib) + i]
                if (e1, e2) in table:
                    return False, "action is not free", (b,)
                table[(e1, e2)] = d
        if any((e1, e2) not in table for e1 in fib for e2 in fib):
            return False, "action is not transitive", (b,)
        subs.append(table)
    for e1 in range(total.size):
        b1 = proj[e1]
        for b2 in range(base.size):
            tgt = base.mulv(b1, b2)
            for e2, e2p in itertools.product(fibres[b2], repeat=2):
                lhs = subs[tgt][(total.mulv(e1, e2), total.mulv(e1, e2p))]
                if lhs != sys_.left[b1][b2][subs[b2][(e2, e2p)]]:
                    return False, "left subtraction identity fails", (e1, e2, e2p)
    for e2 in range(total.size):
        b2 = proj[e2]
        for b1 in range(base.size):
            tgt = base.mulv(b1, b2)
            for e1, e1p in itertools.product(fibres[b1], repeat=2):
                lhs = subs[tgt][(total.mulv(e1, e2), total.mulv(e1p, e2))]
                if lhs != sys_.right[b1][b2][subs[b1][(e1, e1p)]]:
                    return False, "right subtraction identity fails", (e1, e1p, e2)
    return True, "linear extension", None


def form_isomorphism(f1, f2, isomorphisms):
    """First (ring iso, module iso) intertwining the forms, trying the
    additive isomorphisms in the order `isomorphisms` lists them."""
    R1, R2, M1, M2 = f1.ring, f2.ring, f1.module, f2.module
    for f in isomorphisms(R1.additive_group(), R2.additive_group()):
        if f[R1.one] != R2.one:
            continue
        if any(f[R1.mulv(a, b)] != R2.mulv(f[a], f[b])
               for a in range(R1.size) for b in range(R1.size)):
            continue
        for g in isomorphisms(M1.additive_group(), M2.additive_group()):
            if any(g[M1.smul(r, x)] != M2.smul(f[r], g[x])
                   for r in range(R1.size) for x in range(M1.size)):
                continue
            if all(f2.d[g[x]] == f[f1.d[x]] for x in range(M1.size)):
                return f, g
    return None


def crext_report(ext):
    """(ok, reason, witness, bimodule) of crext_check: the kernels, then
    well-definedness across lifts by collecting value sets.  Raises, as the
    former loops did, where a map is not a homomorphism and a value leaves
    a kernel."""
    S, R, N, M = ext.total.ring, ext.base.ring, ext.total.module, ext.base.module
    p, q = ext.ring_map, ext.module_map
    bker = [s for s in range(S.size) if p[s] == R.zero]
    kker = [x for x in range(N.size) if q[x] == M.zero]
    for b1, b2 in itertools.product(bker, repeat=2):
        if S.mulv(b1, b2) != S.zero:
            return False, "ring kernel does not square to zero", (b1, b2), None
    for b, k in itertools.product(bker, kker):
        if N.smul(b, k) != N.zero:
            return False, "ring kernel does not annihilate the module kernel", (b, k), None
    bslot = {b: i for i, b in enumerate(bker)}
    kslot = {k: i for i, k in enumerate(kker)}
    lifts_r = [[s for s in range(S.size) if p[s] == r] for r in range(R.size)]
    lifts_m = [[x for x in range(N.size) if q[x] == m] for m in range(M.size)]
    bgrp = AbelianGroup(len(bker), tuple(bslot[S.plus(a, b)] for a in bker for b in bker))

    def induced(reason, cases, slot):
        out = []
        for witness, vals in cases:
            if len(vals) != 1:
                return (False, reason, witness, None), None
            out.append(slot[vals.pop()])
        return None, tuple(out)

    bad, bleft = induced("left action ill-defined", [
        ((r, b), {S.mulv(s, b) for s in lifts_r[r]}) for r in range(R.size) for b in bker], bslot)
    if bad:
        return bad
    bad, bright = induced("right action ill-defined", [
        ((b, r), {S.mulv(b, s) for s in lifts_r[r]}) for b in bker for r in range(R.size)], bslot)
    if bad:
        return bad
    kadd = tuple(kslot[N.plus(a, b)] for a in kker for b in kker)
    bad, kact = induced("kernel module action ill-defined", [
        ((r, k), {N.smul(s, k) for s in lifts_r[r]}) for r in range(R.size) for k in kker], kslot)
    if bad:
        return bad
    try:
        kmod = LeftModule(R, len(kker), kadd, kact)
    except InvariantViolation as exc:
        return False, f"kernel module law fails: {exc}", None, None
    for k in kker:
        if ext.total.d[k] not in bslot:
            return False, "delta leaves the ring kernel", (k,), None
    dot = []
    for b in bker:
        for m in range(M.size):
            vals = {N.smul(b, x) for x in lifts_m[m]}
            if len(vals) != 1:
                return False, "pairing ill-defined", (b, m), None
            v = vals.pop()
            if v not in kslot:
                return False, "pairing leaves the module kernel", (b, m), None
            dot.append(kslot[v])
    delta = tuple(bslot[ext.total.d[k]] for k in kker)
    try:
        bim = DBimodule(ext.base, bgrp, bleft, bright, kmod, delta, tuple(dot),
                        name=ext.name or "induced")
    except InvariantViolation as exc:
        return False, f"bimodule law fails: {exc}", None, None
    return True, "singular extension", None, bim


def is_homomorphism(h):
    """h.map commutes with every operation, by looping over all arguments."""
    for op in h.source.ops:
        top = h.target.op(op.name)
        for args in itertools.product(range(h.source.size), repeat=op.arity):
            mapped = tuple(h.map[a] for a in args)
            if h.map[h.source.apply(op, args)] != h.target.apply(top, mapped):
                return False
    return True

"""Brute-force oracle for the checks that run on the law kernel of `maltkit.laws`.

Each function walks the identities of one structure in plain nested loops
over itertools products, in the order the structure's laws are declared,
and returns the first (law, witness) it meets, or None; the checks that
report otherwise (linear extensions, singular extensions of forms and form
isomorphisms) keep the loops and the return values of the code they check,
and derivations filters every pair of maps by the derivation laws.  The
oracle reads the flat tables by index arithmetic and shares no code with
the kernel, except that crext_report builds the induced group, module and
bimodule through their constructors.  term_ops is the one-tuple-at-a-time
clone enumeration that the batched `algebra.iter_term_ops` replaced, and
untwisted_report the search of `monoid.check_untwisted` before it decided
through `maltsev.central_torsor_check`.
"""

import itertools

import numpy as np

from maltkit import abgroup
from maltkit.abgroup import AbelianGroup
from maltkit.errors import CloneBudgetExceeded, InvariantViolation
from maltkit.rings import DBimodule, LeftModule


def flat(table):
    """A table, of any shape, in the flat exchange order as a tuple of ints."""
    return tuple(np.ravel(table).tolist())


def _op(table, n):
    """A binary operation read off its flat table by index arithmetic."""
    flat_table = flat(table)
    return lambda a, b: flat_table[a * n + b]


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
    herd, raction, phi = flat(herd), flat(raction), flat(phi)
    H = lambda b, a, c: herd[(b * n + a) * n + c]
    act = lambda r, a, b: raction[(r * n + a) * n + b]
    PH = lambda x, a: phi[x * n + a]
    sub = lambda b, a, c: H(b, a, act(R.additive_group().neg[R.one], a, c))
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
         lambda r, s, a, b: act(R.add[r * R.size + s], a, b) == H(act(r, a, b), a, act(s, a, b))),
        ("scale-unit", (rng,) * 2, lambda a, b: act(R.one, a, b) == b),
        ("scale-multiplies", (rr, rr, rng, rng),
         lambda r, s, a, b: act(r, a, act(s, a, b)) == act(R.mul[r * R.size + s], a, b)),
        ("phi-additive", (mm, mm, rng),
         lambda x, y, a: PH(M.add[x * M.size + y], a) == H(PH(x, a), a, PH(y, a))),
        ("phi-linear", (rr, mm, rng),
         lambda r, x, a: PH(M.act[r * M.size + x], a) == act(r, a, PH(x, a))),
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
    tmul, bmul = _op(total.multiplication, total.size), _op(base.multiplication, base.size)

    def cases():
        yield "extension-proj-length", len(proj), len(proj) == total.size
        yield "extension-proj-surjective", None, set(proj) == set(range(base.size))
        yield "extension-proj-unit", None, proj[total.unit] == base.unit
        for a, b in itertools.product(range(total.size), repeat=2):
            yield ("extension-proj-hom", (a, b),
                   proj[tmul(a, b)] == bmul(proj[a], proj[b]))
        for b in range(base.size):
            fib = [e for e in range(total.size) if proj[e] == b]
            g, table, k = system.groups[b], flat(actions[b]), len(fib)
            gplus = _op(g.addition, g.size)
            yield "extension-action-length", b, len(table) == g.size * k
            for d, i in itertools.product(range(g.size), range(k)):
                yield "extension-action-fiber", (b, d, fib[i]), proj[table[d * k + i]] == b
            for i, e in enumerate(fib):
                yield "extension-action-zero", (b, e), table[g.zero * k + i] == e
                for d1, d2 in itertools.product(range(g.size), repeat=2):
                    step = fib.index(table[d2 * k + i])
                    yield ("extension-action-sum", (b, d1, d2, e),
                           table[gplus(d1, d2) * k + i] == table[d1 * k + step])
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
    tmul, bmul = _op(total.multiplication, total.size), _op(base.multiplication, base.size)
    fibres = [tuple(e for e in range(total.size) if proj[e] == b) for b in range(base.size)]
    subs = []
    for b, fib in enumerate(fibres):
        g = sys_.groups[b]
        if g.size != len(fib):
            return False, "fibre size differs from group order", (b,)
        table = {}
        for d in range(g.size):
            for i, e2 in enumerate(fib):
                e1 = flat(ext.actions[b])[d * len(fib) + i]
                if (e1, e2) in table:
                    return False, "action is not free", (b,)
                table[(e1, e2)] = d
        if any((e1, e2) not in table for e1 in fib for e2 in fib):
            return False, "action is not transitive", (b,)
        subs.append(table)
    for e1 in range(total.size):
        b1 = proj[e1]
        for b2 in range(base.size):
            tgt = bmul(b1, b2)
            for e2, e2p in itertools.product(fibres[b2], repeat=2):
                lhs = subs[tgt][(tmul(e1, e2), tmul(e1, e2p))]
                if lhs != sys_.left[b1][b2][subs[b2][(e2, e2p)]]:
                    return False, "left subtraction identity fails", (e1, e2, e2p)
    for e2 in range(total.size):
        b2 = proj[e2]
        for b1 in range(base.size):
            tgt = bmul(b1, b2)
            for e1, e1p in itertools.product(fibres[b1], repeat=2):
                lhs = subs[tgt][(tmul(e1, e2), tmul(e1p, e2))]
                if lhs != sys_.right[b1][b2][subs[b1][(e1, e1p)]]:
                    return False, "right subtraction identity fails", (e1, e1p, e2)
    return True, "linear extension", None


def untwisted_report(ext):
    """(found, family, reason) of check_untwisted on a linear extension with
    fibres under the cap.  For each tuple of isomorphisms psi_b: D_0 -> D_b,
    in the order `abgroup.isomorphisms` lists them, the family is a dict of
    triples (f1, f2, f) with p(f1) = p(f2), valued (psi_{p(f)} psi_{p(f1)}^-1
    (f1 - f2)) + f, and is checked in loops against five laws: its values lie
    over the third argument, Maltsev, commutative, associative, and
    equivariant under left and right multiplication."""
    n, proj, groups = ext.total.size, ext.proj.tolist(), ext.system.groups
    mul = _op(ext.total.multiplication, n)
    fibres = [[e for e in range(n) if proj[e] == b] for b in range(len(groups))]
    act = [flat(table) for table in ext.actions]  # act[b][d * |fibre| + i]
    sub = {(act[b][d * len(fib) + i], e): d
           for b, fib in enumerate(fibres) for d in range(groups[b].size)
           for i, e in enumerate(fib)}
    choices = [[tuple(range(groups[0].size))]]
    for b in range(1, len(groups)):
        isos = abgroup.isomorphisms(groups[0], groups[b])
        if not isos:
            return False, None, f"fibres over 0 and {b} are not isomorphic"
        choices.append(isos)
    pairs = [(x, y) for x in range(n) for y in range(n) if proj[x] == proj[y]]
    for psi in itertools.product(*choices):
        fam = {}
        for (x, y), z in itertools.product(pairs, range(n)):
            b, d = proj[z], psi[proj[x]].index(sub[(x, y)])
            fam[(x, y, z)] = act[b][psi[b][d] * len(fibres[b]) + fibres[b].index(z)]
        if (all(proj[v] == proj[z] for (_, _, z), v in fam.items())
                and all(fam[(x, y, y)] == x for x, y in pairs)
                and all(fam[(y, y, x)] == x for x, y in itertools.product(range(n), repeat=2))
                and all(fam.get((z, y, x), v) == v for (x, y, z), v in fam.items())
                and all(fam[(u, v, w)] == fam[(fam[(u, v, x)], y, z)]
                        for (x, y, z), w in fam.items() for u, v in pairs)
                and all(fam[(mul(g, x), mul(g, y), mul(g, z))] == mul(g, v)
                        and fam[(mul(x, g), mul(y, g), mul(z, g))] == mul(v, g)
                        for (x, y, z), v in fam.items() for g in range(n))):
            return True, tuple(sorted(fam.items())), "untwisted family found"
    return False, None, "no equivariant family exists"


def form_isomorphism(f1, f2, isomorphisms):
    """First (ring iso, module iso) intertwining the forms, trying the
    additive isomorphisms in the order `isomorphisms` lists them."""
    R1, R2, M1, M2 = f1.ring, f2.ring, f1.module, f2.module
    mul1, mul2 = _op(R1.mul, R1.size), _op(R2.mul, R2.size)
    act1, act2 = _op(M1.act, M1.size), _op(M2.act, M2.size)
    for f in isomorphisms(R1.additive_group(), R2.additive_group()):
        if f[R1.one] != R2.one:
            continue
        if any(f[mul1(a, b)] != mul2(f[a], f[b])
               for a in range(R1.size) for b in range(R1.size)):
            continue
        for g in isomorphisms(M1.additive_group(), M2.additive_group()):
            if any(g[act1(r, x)] != act2(f[r], g[x])
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
    splus, smul = _op(S.add, S.size), _op(S.mul, S.size)
    nplus, nact = _op(N.add, N.size), _op(N.act, N.size)
    bker = [s for s in range(S.size) if p[s] == R.zero]
    kker = [x for x in range(N.size) if q[x] == M.zero]
    for b1, b2 in itertools.product(bker, repeat=2):
        if smul(b1, b2) != S.zero:
            return False, "ring kernel does not square to zero", (b1, b2), None
    for b, k in itertools.product(bker, kker):
        if nact(b, k) != N.zero:
            return False, "ring kernel does not annihilate the module kernel", (b, k), None
    bslot = {b: i for i, b in enumerate(bker)}
    kslot = {k: i for i, k in enumerate(kker)}
    lifts_r = [[s for s in range(S.size) if p[s] == r] for r in range(R.size)]
    lifts_m = [[x for x in range(N.size) if q[x] == m] for m in range(M.size)]
    bgrp = AbelianGroup(len(bker), tuple(bslot[splus(a, b)] for a in bker for b in bker))

    def induced(reason, cases, slot):
        out = []
        for witness, vals in cases:
            if len(vals) != 1:
                return (False, reason, witness, None), None
            out.append(slot[vals.pop()])
        return None, tuple(out)

    bad, bleft = induced("left action ill-defined", [
        ((r, b), {smul(s, b) for s in lifts_r[r]}) for r in range(R.size) for b in bker], bslot)
    if bad:
        return bad
    bad, bright = induced("right action ill-defined", [
        ((b, r), {smul(b, s) for s in lifts_r[r]}) for b in bker for r in range(R.size)], bslot)
    if bad:
        return bad
    kadd = tuple(kslot[nplus(a, b)] for a in kker for b in kker)
    bad, kact = induced("kernel module action ill-defined", [
        ((r, k), {nact(s, k) for s in lifts_r[r]}) for r in range(R.size) for k in kker], kslot)
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
            vals = {nact(b, x) for x in lifts_m[m]}
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


def derivations(form, bim):
    """(Der, Ider, H0, |H1|) of enumerate_derivations from every pair of
    maps d: R -> B and nabla: M -> K: Der is the set of (d, nabla) pairs of
    additive maps that satisfy the Leibniz rule, d(d_form m) = delta(nabla m)
    and nabla(r m) = d(r).m + r nabla(m); Ider the set of the ad(k)."""
    R, M, B, K = form.ring, form.module, bim.bgroup, bim.kmodule
    rr, mm, kk = range(R.size), range(M.size), range(K.size)
    lact, ract, dot = _op(bim.bleft, B.size), _op(bim.bright, R.size), _op(bim.dot, M.size)
    rplus, mplus, bplus, kplus = (_op(G.addition, G.size) for G in (R, M, B, K))
    rmul, mact, kact = _op(R.mul, R.size), _op(M.act, M.size), _op(K.act, K.size)
    fd, delta = flat(form.d), flat(bim.delta)

    def additive(f, src_plus, dst_plus, n):
        return all(f[src_plus(x, y)] == dst_plus(f[x], f[y])
                   for x, y in itertools.product(range(n), repeat=2))

    ds = [d for d in itertools.product(range(B.size), repeat=R.size)
          if additive(d, rplus, bplus, R.size)
          and all(d[rmul(r, s)] == bplus(ract(d[r], s), lact(r, d[s]))
                  for r, s in itertools.product(rr, rr))]
    nablas = [n for n in itertools.product(kk, repeat=M.size) if additive(n, mplus, kplus, M.size)]
    der = {(d, n) for d in ds for n in nablas
           if all(d[fd[m]] == delta[n[m]] for m in mm)
           and all(n[mact(r, m)] == kplus(dot(d[r], m), kact(r, n[m]))
                   for r, m in itertools.product(rr, mm))}
    inner = {(tuple(B.minus(lact(r, delta[k]), ract(delta[k], r)) for r in rr),
              tuple(K.minus(kact(fd[m], k), dot(delta[k], m)) for m in mm))
             for k in kk}
    h0 = tuple(k for k in kk if all(kact(fd[m], k) == dot(delta[k], m) for m in mm))
    return der, inner, h0, len(der) // len(inner)


def term_ops(alg, arity, budget):
    """Yield (table, witness) of the term operations of the given arity, one
    argument tuple at a time: every tuple of stored tables is tried and kept
    only if one argument comes from the previous round.  Raises
    CloneBudgetExceeded at the first new table past the budget, with the
    round and the number of argument tuples (and constants) evaluated."""
    n = alg.size
    length = n**arity
    if n == 0:
        if arity > 0:
            yield (), ("var", 0)
        return
    idx = np.arange(length, dtype=np.int64)
    tables, rounds, witnesses, seen = [], [], [], set()
    rnd = tried = 0

    def emit(arr, witness):
        key = arr.tobytes()
        if key in seen:
            return None
        if len(tables) >= budget:
            raise CloneBudgetExceeded("budget", count=len(tables), round=rnd, combos_tried=tried)
        seen.add(key)
        tables.append(arr)
        rounds.append(rnd)
        witnesses.append(witness)
        return tuple(int(v) for v in arr), witness

    for i in range(arity):
        t = emit((idx // (n ** (arity - 1 - i))) % n, ("var", i))
        if t is not None:
            yield t
    while True:
        rnd += 1
        snapshot = len(tables)
        produced = False
        for op in alg.ops:
            arr = op.values
            if op.arity == 0:
                if rnd == 1:
                    tried += 1
                    t = emit(np.full(length, op.table[0], dtype=np.int64), (op.name,))
                    if t is not None:
                        yield t
                        produced = True
                continue
            for combo in itertools.product(range(snapshot), repeat=op.arity):
                if max(rounds[i] for i in combo) != rnd - 1:
                    continue
                tried += 1
                new = arr[tuple(tables[i] for i in combo)]
                t = emit(new, (op.name, *(witnesses[i] for i in combo)))
                if t is not None:
                    yield t
                    produced = True
        if not produced:
            return

"""Extensions of linear forms: singular-extension checking, the induced
coefficient bimodule, derivations with the low cohomology groups, and the
Maltsev lift along an extension of theories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup, additive_maps
from .affinity import (
    AffinityOp,
    FreeAffinity,
    canonical_maltsev,
    compose_affinity,
    is_maltsev_op,
    projection,
)
from .errors import (
    DerBudgetExceeded,
    DiagramError,
    InternalError,
    InvariantViolation,
    NotMaltsev,
)
from .laws import first_violation
from .maltsev import TernaryTable, check_maltsev
from .rings import DBimodule, LeftModule, LinearForm, submodule


@dataclass(frozen=True)
class FormExtension:
    """A surjection of linear forms: p on rings over q on modules.

    total: d': N -> S, base: d: M -> R, with p: S ->> R a unital ring
    surjection, q: N ->> M additive, q(s.n) = p(s) q(n) and d q = p d'.
    """

    total: LinearForm
    base: LinearForm
    ring_map: tuple[int, ...]
    module_map: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        S, R = self.total.ring, self.base.ring
        N, M = self.total.module, self.base.module
        p, q = self.ring_map, self.module_map
        if len(p) != S.size or len(q) != N.size:
            raise DiagramError("map lengths do not match the carriers")
        if set(p) != set(range(R.size)) or set(q) != set(range(M.size)):
            raise DiagramError("maps must be surjective")
        if p[S.one] != R.one or p[S.zero] != R.zero:
            raise DiagramError("ring map must preserve 0 and 1")
        P, Q = np.asarray(p), np.asarray(q)
        sadd, smul = np.reshape(S.add, (S.size, S.size)), np.reshape(S.mul, (S.size, S.size))
        radd, rmul = np.reshape(R.add, (R.size, R.size)), np.reshape(R.mul, (R.size, R.size))
        nadd, nact = np.reshape(N.add, (N.size, N.size)), np.reshape(N.act, (S.size, N.size))
        madd, mact = np.reshape(M.add, (M.size, M.size)), np.reshape(M.act, (R.size, M.size))
        d_total, d_base = np.asarray(self.total.d), np.asarray(self.base.d)
        for sizes, laws in (
            ((S.size, S.size), [
                ("ring map not additive", lambda a, b: P[sadd[a, b]] == radd[P[a], P[b]]),
                ("ring map not multiplicative", lambda a, b: P[smul[a, b]] == rmul[P[a], P[b]]),
            ]),
            ((N.size, N.size), [
                ("module map not additive", lambda x, y: Q[nadd[x, y]] == madd[Q[x], Q[y]]),
            ]),
            ((S.size, N.size), [
                ("module map not equivariant", lambda s, x: Q[nact[s, x]] == mact[P[s], Q[x]]),
            ]),
            ((N.size,), [("square does not commute", lambda x: d_base[Q[x]] == P[d_total[x]])]),
        ):
            hit = first_violation(sizes, laws)
            if hit is not None:
                what, witness = hit
                raise DiagramError(f"{what} at {witness[0] if len(witness) == 1 else witness}")

    def ring_kernel(self) -> tuple[int, ...]:
        S, R = self.total.ring, self.base.ring
        return tuple(s for s in range(S.size) if self.ring_map[s] == R.zero)

    def module_kernel(self) -> tuple[int, ...]:
        N, M = self.total.module, self.base.module
        return tuple(x for x in range(N.size) if self.module_map[x] == M.zero)


@dataclass(frozen=True)
class CrextReport:
    ok: bool
    reason: str
    bimodule: DBimodule | None
    witness: tuple | None

    def to_json(self):
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
            "bimodule": self.bimodule.to_json() if self.bimodule else None,
        }


def _last_lifts(surjection, size):
    """The largest preimage of each of range(size)."""
    last = dict(zip(surjection, range(len(surjection))))
    return np.array([last[v] for v in range(size)])


def crext_check(ext: FormExtension) -> CrextReport:
    """Singular-extension test: the ring kernel must square to zero and
    annihilate the module kernel; on success the induced bimodule
    (B, K, delta = d' restricted, dot from the module action) is returned
    with all its laws verified.  Well-definedness across lifts compares
    the value at every lift with the value at the last lift."""
    S, R = ext.total.ring, ext.base.ring
    N, M = ext.total.module, ext.base.module
    P, Q = np.asarray(ext.ring_map), np.asarray(ext.module_map)
    sadd, smul = np.reshape(S.add, (S.size, S.size)), np.reshape(S.mul, (S.size, S.size))
    nadd, nact = np.reshape(N.add, (N.size, N.size)), np.reshape(N.act, (S.size, N.size))
    D = np.asarray(ext.total.d)
    bk, kk = np.asarray(ext.ring_kernel()), np.asarray(ext.module_kernel())
    lr, lm = _last_lifts(ext.ring_map, R.size), _last_lifts(ext.module_map, M.size)

    def failure(sizes, witness, *laws):
        hit = first_violation(sizes, laws)
        if hit is not None:
            law, at = hit
            return CrextReport(False, law, None, tuple(int(v) for v in witness(*at)))

    bad = failure((bk.size, bk.size), lambda i, j: (bk[i], bk[j]), (
        "ring kernel does not square to zero",
        lambda i, j: smul[bk[i], bk[j]] == S.zero,
    )) or failure((bk.size, kk.size), lambda i, j: (bk[i], kk[j]), (
        "ring kernel does not annihilate the module kernel",
        lambda i, j: nact[bk[i], kk[j]] == N.zero,
    ))
    if bad:
        return bad
    # induced structures, with well-definedness checked across lifts
    bslot, kslot = np.full(S.size, -1), np.full(N.size, -1)
    bslot[bk], kslot[kk] = np.arange(bk.size), np.arange(kk.size)
    flat = lambda a: tuple(a.ravel().tolist())
    bgrp = AbelianGroup(bk.size, flat(bslot[sadd[np.ix_(bk, bk)]]))
    bad = failure((R.size, bk.size, S.size), lambda r, i, s: (r, bk[i]), (
        "left action ill-defined",
        lambda r, i, s: (P[s] != r) | (smul[s, bk[i]] == smul[lr[r], bk[i]]),
    )) or failure((bk.size, R.size, S.size), lambda i, r, s: (bk[i], r), (
        "right action ill-defined",
        lambda i, r, s: (P[s] != r) | (smul[bk[i], s] == smul[bk[i], lr[r]]),
    )) or failure((R.size, kk.size, S.size), lambda r, i, s: (r, kk[i]), (
        "kernel module action ill-defined",
        lambda r, i, s: (P[s] != r) | (nact[s, kk[i]] == nact[lr[r], kk[i]]),
    ))
    if bad:
        return bad
    try:
        kmod = LeftModule(R, kk.size, flat(kslot[nadd[np.ix_(kk, kk)]]),
                          flat(kslot[nact[lr[:, None], kk]]))
    except InvariantViolation as exc:
        return CrextReport(False, f"kernel module law fails: {exc}", None, None)
    bad = failure((kk.size,), lambda i: (kk[i],), (
        "delta leaves the ring kernel", lambda i: P[D[kk[i]]] == R.zero,
    )) or failure((bk.size, M.size, N.size), lambda i, m, x: (bk[i], m), (
        "pairing ill-defined",
        lambda i, m, x: (Q[x] != m) | (nact[bk[i], x] == nact[bk[i], lm[m]]),
    ), (
        # at the last lift, so that a pairing that is also ill-defined fails first
        "pairing leaves the module kernel",
        lambda i, m, x: (x != lm[m]) | (Q[nact[bk[i], x]] == M.zero),
    ))
    if bad:
        return bad
    try:
        bim = DBimodule(
            ext.base, bgrp, flat(bslot[smul[lr[:, None], bk]]),
            flat(bslot[smul[bk[:, None], lr]]), kmod, flat(bslot[D[kk]]),
            flat(kslot[nact[bk[:, None], lm]]), name=ext.name or "induced",
        )
    except InvariantViolation as exc:
        return CrextReport(False, f"bimodule law fails: {exc}", None, None)
    return CrextReport(True, "singular extension", bim, None)


@dataclass(frozen=True)
class Derivation:
    d: tuple[int, ...]  # R -> B
    nabla: tuple[int, ...]  # M -> K


@dataclass(frozen=True)
class DerivationsReport:
    derivations: tuple[Derivation, ...]
    inner: tuple[Derivation, ...]
    h0: tuple[int, ...]  # elements of K
    h1_order: int
    h1_reps: tuple[Derivation, ...]

    def to_json(self):
        return {
            "der": len(self.derivations),
            "ider": len(self.inner),
            "h0": list(self.h0),
            "h0_order": len(self.h0),
            "h1_order": self.h1_order,
            "h1_reps": [
                {"d": list(t.d), "nabla": list(t.nabla)} for t in self.h1_reps
            ],
        }


def enumerate_derivations(
    form: LinearForm, bim: DBimodule, budget: int = 1_000_000
) -> DerivationsReport:
    """All derivation pairs (d: R -> B, nabla: M -> K) with

        d(d_form m) = delta(nabla m),  d(rs) = d(r)s + r d(s),
        nabla(r m) = d(r).m + r nabla(m),

    the inner ones ad(k) = (r |-> r delta(k) - delta(k) r,
    m |-> d_form(m) k - delta(k).m), H0 by its closed formula and
    H1 = Der/Ider with the exact-sequence cardinality identity asserted."""
    R, M = form.ring, form.module
    B, K = bim.bgroup, bim.kmodule
    from .abgroup import generating_sequence

    cost = B.size ** len(generating_sequence(R.additive_group())) * K.size ** len(
        generating_sequence(M.additive_group())
    )
    if cost > budget:
        raise DerBudgetExceeded(f"derivation search space {cost} exceeds {budget}")
    d_cands = additive_maps(R.additive_group(), B)
    n_cands = additive_maps(M.additive_group(), K)
    ders = []
    for d in d_cands:
        if any(
            d[R.mulv(r, s)] != B.plus(bim.ract(d[r], s), bim.lact(r, d[s]))
            for r in range(R.size)
            for s in range(R.size)
        ):
            continue
        for nab in n_cands:
            if any(d[form.d[m]] != bim.delta[nab[m]] for m in range(M.size)):
                continue
            if any(
                nab[M.smul(r, m)] != K.plus(bim.dotv(d[r], m), K.smul(r, nab[m]))
                for r in range(R.size)
                for m in range(M.size)
            ):
                continue
            ders.append(Derivation(d, nab))
    inner = []
    seen = set()
    for k in range(K.size):
        # d_k(r) = r delta(k) - delta(k) r
        dk = tuple(
            B.minus(bim.lact(r, bim.delta[k]), bim.ract(bim.delta[k], r))
            for r in range(R.size)
        )
        nk = tuple(
            K.minus(K.smul(form.d[m], k), bim.dotv(bim.delta[k], m))
            for m in range(M.size)
        )
        t = Derivation(dk, nk)
        if (dk, nk) not in seen:
            seen.add((dk, nk))
            inner.append(t)
    for t in inner:
        if t not in ders:
            raise InternalError("an inner derivation fails the derivation laws")
    h0 = tuple(
        c
        for c in range(K.size)
        if all(
            K.smul(form.d[m], c) == bim.dotv(bim.delta[c], m)
            for m in range(M.size)
        )
    )
    if len(ders) % len(inner) != 0:
        raise InternalError("inner derivations do not partition Der evenly")
    h1 = len(ders) // len(inner)
    if len(h0) * len(ders) != K.size * h1:
        raise InternalError("exact-sequence cardinality identity fails")
    # coset representatives of Ider in Der, first-seen order
    reps = []
    covered = set()
    inner_set = {(t.d, t.nabla) for t in inner}
    for t in ders:
        key = (t.d, t.nabla)
        if key in covered:
            continue
        reps.append(t)
        for i in inner:
            shifted = (
                tuple(B.plus(a, b) for a, b in zip(t.d, i.d)),
                tuple(K.plus(a, b) for a, b in zip(t.nabla, i.nabla)),
            )
            covered.add(shifted)
    if len(reps) != h1:
        raise InternalError("coset enumeration disagrees with |H1|")
    return DerivationsReport(tuple(ders), tuple(inner), h0, h1, tuple(reps))


def _op_images(ext: FormExtension, op: AffinityOp) -> AffinityOp:
    return AffinityOp(
        ext.module_map[op.m_part],
        tuple(ext.ring_map[r] for r in op.r_parts),
    )


def _sections(ext: FormExtension, base_op: AffinityOp) -> AffinityOp:
    """Deterministic preimage: least lift of every coordinate."""
    q, p = ext.module_map, ext.ring_map
    m = min(x for x in range(ext.total.module.size) if q[x] == base_op.m_part)
    rs = tuple(
        min(s for s in range(ext.total.ring.size) if p[s] == r)
        for r in base_op.r_parts
    )
    return AffinityOp(m, rs)


def _op_sub(total: LinearForm, u: AffinityOp, v: AffinityOp) -> AffinityOp:
    N, S = total.module, total.ring
    return AffinityOp(
        N.minus(u.m_part, v.m_part),
        tuple(S.minus(a, b) for a, b in zip(u.r_parts, v.r_parts)),
    )


def _op_add(total: LinearForm, u: AffinityOp, v: AffinityOp) -> AffinityOp:
    N, S = total.module, total.ring
    return AffinityOp(
        N.plus(u.m_part, v.m_part),
        tuple(S.plus(a, b) for a, b in zip(u.r_parts, v.r_parts)),
    )


def lift_maltsev(
    ext: FormExtension, m_image: AffinityOp, preimage: AffinityOp | None = None
) -> AffinityOp:
    """Correct an arbitrary preimage of a base Maltsev operation into a
    Maltsev operation of the total theory.

    With x1, x3 the outer ternary projections and m the chosen preimage,
    the correction adds the three fibre differences

        m - m(x1, x1, m),   m(m, m, m) - m,   m - m(m, x3, x3)

    to m; each difference substitutes the lift m for the base operation,
    which is legitimate because differences only depend on the base of
    the substituted morphism.  The result is verified Maltsev both
    symbolically and on the rank-2 free affinity of the total form.
    """
    if m_image.arity != 3 or not is_maltsev_op(ext.base, m_image):
        raise NotMaltsev("base operation is not a ternary Maltsev operation")
    if preimage is None:
        preimage = _sections(ext, m_image)
    elif _op_images(ext, preimage) != m_image:
        raise DiagramError("preimage does not project to the base operation")

    total = ext.total
    m = preimage
    t1 = projection(total, 3, 0)
    t3 = projection(total, 3, 2)
    comp = lambda outer, inners: compose_affinity(total, outer, inners)

    c1 = _op_sub(total, m, comp(m, [t1, t1, m]))
    c2 = _op_sub(total, comp(m, [m, m, m]), m)
    c3 = _op_sub(total, m, comp(m, [m, t3, t3]))
    lifted = _op_add(total, _op_add(total, _op_add(total, m, c1), c2), c3)

    if _op_images(ext, lifted) != m_image:
        raise InternalError("lift does not project back to the base operation")
    if not is_maltsev_op(total, lifted):
        raise InternalError("lift is not Maltsev symbolically")
    fa = FreeAffinity(total, 2)
    table = fa.op_table(lifted)
    tern = TernaryTable.full_from_flat(fa.size, table)
    if not check_maltsev(tern):
        raise InternalError("lift fails the Maltsev check on the free affinity")
    return lifted


def trivial_form_extension(bim: DBimodule, name: str = "") -> FormExtension:
    """The split extension of forms determined by a bimodule: the total
    form is delta + d on K + M -> B + R with the square-zero multiplication
    (b,r)(b',r') = (br' + rb', rr') and action (b,r)(k,m) = (b.m + rk, rm)."""
    form = bim.form
    R, M = form.ring, form.module
    B, K = bim.bgroup, bim.kmodule
    from .rings import FiniteRing

    ns = B.size * R.size
    enc_s = lambda b, r: b * R.size + r
    sadd = []
    smul = []
    for b1 in range(B.size):
        for r1 in range(R.size):
            for b2 in range(B.size):
                for r2 in range(R.size):
                    sadd.append(enc_s(B.plus(b1, b2), R.plus(r1, r2)))
                    smul.append(
                        enc_s(
                            B.plus(bim.ract(b1, r2), bim.lact(r1, b2)),
                            R.mulv(r1, r2),
                        )
                    )
    # flat tables above were built in (elt1, elt2) blocks already
    S = FiniteRing(
        ns, tuple(sadd), tuple(smul), enc_s(B.zero, R.zero), enc_s(B.zero, R.one)
    )
    nn = K.size * M.size
    enc_n = lambda k, m: k * M.size + m
    nadd = []
    for k1 in range(K.size):
        for m1 in range(M.size):
            for k2 in range(K.size):
                for m2 in range(M.size):
                    nadd.append(enc_n(K.plus(k1, k2), M.plus(m1, m2)))
    nact = []
    for b in range(B.size):
        for r in range(R.size):
            for k in range(K.size):
                for m in range(M.size):
                    nact.append(
                        enc_n(
                            K.plus(bim.dotv(b, m), K.smul(r, k)),
                            M.smul(r, m),
                        )
                    )
    N = LeftModule(S, nn, tuple(nadd), tuple(nact))
    dprime = tuple(
        enc_s(bim.delta[k], form.d[m])
        for k in range(K.size)
        for m in range(M.size)
    )
    total = LinearForm(N, dprime)
    p = tuple(r for b in range(B.size) for r in range(R.size))
    q = tuple(m for k in range(K.size) for m in range(M.size))
    return FormExtension(total, form, p, q, name=name or "split")

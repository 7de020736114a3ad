"""Extensions of linear forms: singular-extension checking, the induced
coefficient bimodule, derivations with the low cohomology groups, and the
Maltsev lift along an extension of theories.  Derivations are filtered
as index arrays over the tables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup, additive_maps, generating_sequence
from .affinity import (
    AffinityOp,
    FreeAffinity,
    compose_affinity,
    is_maltsev_op,
    projection,
    validate_op,
)
from .algebra import same_tables
from .errors import (
    DerBudgetExceeded,
    DiagramError,
    InternalError,
    InvariantViolation,
    NotMaltsev,
)
from .laws import as_table, first_violation
from .maltsev import TernaryTable, check_maltsev
from .rings import DBimodule, LeftModule, LinearForm

DERIVATION_BUDGET = 1_000_000  # most candidate pairs (d, nabla) enumerate_derivations tries


@dataclass(frozen=True, eq=False)
class FormExtension:
    """A surjection of linear forms: p on rings over q on modules.

    total: d': N -> S, base: d: M -> R, with p: S ->> R a unital ring
    surjection, q: N ->> M additive, q(s.n) = p(s) q(n) and d q = p d'.
    The maps are held as read-only (|S|,) and (|N|,) arrays.
    """

    total: LinearForm
    base: LinearForm
    ring_map: np.ndarray
    module_map: np.ndarray
    name: str = field(default="", compare=False)

    __eq__ = same_tables

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
        # the checks above leave no entry out of range for as_table to report
        P = as_table(p, (S.size,), R.size, None, None)
        Q = as_table(q, (N.size,), M.size, None, None)
        object.__setattr__(self, "ring_map", P)
        object.__setattr__(self, "module_map", Q)
        sadd, smul, radd, rmul = S.addition, S.multiplication, R.addition, R.multiplication
        nadd, nact, madd, mact = N.addition, N.action, M.addition, M.action
        d_total, d_base = self.total.d, self.base.d
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

    def ring_kernel(self) -> np.ndarray:
        return np.flatnonzero(self.ring_map == self.base.ring.zero)

    def module_kernel(self) -> np.ndarray:
        return np.flatnonzero(self.module_map == self.base.module.zero)


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
    last = np.full(size, -1)
    np.maximum.at(last, surjection, np.arange(len(surjection)))
    return last


def crext_check(ext: FormExtension) -> CrextReport:
    """Singular-extension test: the ring kernel B must square to zero and
    annihilate the module kernel K; on success the induced bimodule
    (B, K, delta = d' restricted, dot from the module action) is returned
    with all its laws verified.  The induced structures read each value at
    the last lift; the constructor's checks (p a ring map, q additive and
    equivariant, d q = p d') with these two make them well defined:

    - s, s' over one r differ by s - s' in B, so (s - s') b and b (s - s')
      lie in B B = 0 and (s - s') k in B K = 0: the left and right actions
      on B and the action on K do not depend on the lift;
    - x, x' over one m differ by x - x' in K, and b (x - x') lies in B K = 0:
      nor does the pairing b.x;
    - p(b.x) = p(b) q(x) = 0 q(x) = 0, so the pairing lands in K;
    - p(d'(k)) = d(q(k)) = d(0) = 0, so delta lands in B.
    """
    S, R = ext.total.ring, ext.base.ring
    N, M = ext.total.module, ext.base.module
    sadd, smul, nadd, nact = S.addition, S.multiplication, N.addition, N.action
    bk, kk = ext.ring_kernel(), ext.module_kernel()
    lr, lm = _last_lifts(ext.ring_map, R.size), _last_lifts(ext.module_map, M.size)
    for sizes, kernels, law, holds in (
        ((bk.size, bk.size), (bk, bk), "ring kernel does not square to zero",
         lambda i, j: smul[bk[i], bk[j]] == S.zero),
        ((bk.size, kk.size), (bk, kk), "ring kernel does not annihilate the module kernel",
         lambda i, j: nact[bk[i], kk[j]] == N.zero),
    ):
        hit = first_violation(sizes, [(law, holds)])
        if hit is not None:
            i, j = hit[1]
            return CrextReport(False, law, None, (int(kernels[0][i]), int(kernels[1][j])))
    bslot, kslot = np.full(S.size, -1), np.full(N.size, -1)
    bslot[bk], kslot[kk] = np.arange(bk.size), np.arange(kk.size)
    bgrp = AbelianGroup(bk.size, bslot[sadd[np.ix_(bk, bk)]])
    try:
        kmod = LeftModule(R, kk.size, kslot[nadd[np.ix_(kk, kk)]], kslot[nact[lr[:, None], kk]])
    except InvariantViolation as exc:
        return CrextReport(False, f"kernel module law fails: {exc}", None, None)
    try:
        bim = DBimodule(
            ext.base, bgrp, bslot[smul[lr[:, None], bk]], bslot[smul[bk[:, None], lr]], kmod,
            bslot[ext.total.d[kk]], kslot[nact[bk[:, None], lm]], name=ext.name or "induced",
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


def enumerate_derivations(form: LinearForm, bim: DBimodule) -> DerivationsReport:
    """All derivation pairs (d: R -> B, nabla: M -> K) with

        d(d_form m) = delta(nabla m),  d(rs) = d(r)s + r d(s),
        nabla(r m) = d(r).m + r nabla(m),

    the inner ones ad(k) = (r |-> r delta(k) - delta(k) r,
    m |-> d_form(m) k - delta(k).m), H0 by its closed formula and
    H1 = Der/Ider with the exact-sequence cardinality identity asserted.

    The candidates d and nabla are the additive maps, one row each, and
    the Leibniz rule filters the rows of d.  The other two laws equate a
    row that depends on d alone (d(d_form m) and d(r).m) with one that
    depends on nabla alone (delta(nabla m) and nabla(r m) - r nabla(m)),
    so a pair passes when their keys agree: the pair filter holds one
    boolean per candidate pair, at most DERIVATION_BUDGET of them.  Der is
    listed in (d, nabla) lexicographic order of the candidates."""
    if bim.form != form:
        raise InvariantViolation("bimodule-form", None, "the bimodule is over another linear form")
    R, M = form.ring, form.module
    B, K = bim.bgroup, bim.kmodule
    nr, nm, nb, nk = R.size, M.size, B.size, K.size
    cost = nb ** len(generating_sequence(R.additive_group())) * nk ** len(
        generating_sequence(M.additive_group())
    )
    if cost > DERIVATION_BUDGET:
        raise DerBudgetExceeded(f"derivation search space {cost} exceeds {DERIVATION_BUDGET}")
    rmul, mact, badd, kadd, kact = R.multiplication, M.action, B.addition, K.addition, K.action
    bneg, kneg = B.neg, K.additive_group().neg
    lact, ract, delta, dot, dform = bim.bleft, bim.bright, bim.delta, bim.dot, form.d
    r, m = np.arange(nr), np.arange(nm)
    d = np.reshape(additive_maps(R.additive_group(), B), (-1, nr))
    leibniz = d[:, rmul] == badd[ract[d[:, :, None], r], lact[r[:, None], d[:, None]]]
    d = d[leibniz.all(axis=(1, 2))]
    nab = np.reshape(additive_maps(M.additive_group(), K), (-1, nm))
    keys = np.concatenate([
        np.hstack([d[:, dform], dot[d[:, :, None], m].reshape(len(d), -1)]),
        np.hstack([delta[nab], kadd[nab[:, mact], kneg[kact[r[:, None], nab[:, None]]]]
                   .reshape(len(nab), -1)]),
    ])
    label = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    i, j = np.nonzero(label[:len(d), None] == label[None, len(d):])
    ders = np.hstack([d[i], nab[j]])
    # d_form(m) k and delta(k).m, one row per k: ad(k) on M and the H0 test
    scaled, paired = kact[dform, np.arange(nk)[:, None]], dot[delta[:, None], m]
    inner = np.hstack([badd[lact[r, delta[:, None]], bneg[ract[delta[:, None], r]]],
                       kadd[scaled, kneg[paired]]])
    inner = inner[np.sort(np.unique(inner, axis=0, return_index=True)[1])]
    if not set(map(tuple, inner.tolist())) <= set(map(tuple, ders.tolist())):
        raise InternalError("an inner derivation fails the derivation laws")
    h0 = tuple(np.flatnonzero((scaled == paired).all(axis=1)).tolist())
    if len(ders) % len(inner) != 0:
        raise InternalError("inner derivations do not partition Der evenly")
    h1 = len(ders) // len(inner)
    if len(h0) * len(ders) != nk * h1:
        raise InternalError("exact-sequence cardinality identity fails")
    # coset representatives of Ider in Der, first-seen order; the least label
    # of the rows of t + Ider names the coset of t
    shifted = np.concatenate([badd[ders[:, None, :nr], inner[:, :nr]],
                              kadd[ders[:, None, nr:], inner[:, nr:]]], axis=2)
    label = np.unique(shifted.reshape(-1, nr + nm), axis=0, return_inverse=True)[1]
    coset = label.reshape(len(ders), -1).min(axis=1)
    reps = ders[np.sort(np.unique(coset, return_index=True)[1])]
    if len(reps) != h1:
        raise InternalError("coset enumeration disagrees with |H1|")
    as_derivations = lambda rows: tuple(
        Derivation(tuple(t[:nr]), tuple(t[nr:])) for t in rows.tolist())
    return DerivationsReport(as_derivations(ders), as_derivations(inner), h0, h1,
                             as_derivations(reps))


def _op_images(ext: FormExtension, op: AffinityOp) -> AffinityOp:
    return AffinityOp(
        int(ext.module_map[op.m_part]),
        tuple(int(ext.ring_map[r]) for r in op.r_parts),
    )


def _sections(ext: FormExtension, base_op: AffinityOp) -> AffinityOp:
    """Deterministic preimage: least lift of every coordinate."""
    least = lambda surjection, v: int(np.argmax(surjection == v))
    return AffinityOp(least(ext.module_map, base_op.m_part),
                      tuple(least(ext.ring_map, r) for r in base_op.r_parts))


def _op_sub(total: LinearForm, u: AffinityOp, v: AffinityOp) -> AffinityOp:
    N, S = total.module, total.ring
    return AffinityOp(
        N.minus(u.m_part, v.m_part),
        tuple(S.minus(a, b) for a, b in zip(u.r_parts, v.r_parts)),
    )


def _op_add(total: LinearForm, u: AffinityOp, v: AffinityOp) -> AffinityOp:
    N, S = total.module, total.ring
    return AffinityOp(
        int(N.addition[u.m_part, v.m_part]),
        tuple(int(S.addition[a, b]) for a, b in zip(u.r_parts, v.r_parts)),
    )


def lift_maltsev(
    ext: FormExtension, m_image: AffinityOp, preimage: AffinityOp | None = None
) -> AffinityOp:
    """Correct an arbitrary preimage of a base Maltsev operation into a
    Maltsev operation of the total theory.  A given preimage must be an
    operation of the total theory that projects to m_image.

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
    else:
        validate_op(ext.total, preimage)
        if _op_images(ext, preimage) != m_image:
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
    tern = TernaryTable.full_from_flat(fa.size, fa.op_table(lifted))
    if not check_maltsev(tern):
        raise InternalError("lift fails the Maltsev check on the free affinity")
    return lifted

"""Commutator calculus for finite Maltsev algebras.

Centrality of a pair of congruences is decided by restricting a Maltsev
term to the mixed relation {(x,y,z) : x R y, y S z} and checking, with the
chunked law kernel, that the restriction is a homomorphism with
x S m(x,y,z) R z.  The commutator [R,S] is computed by generating a
congruence on the pair algebra R from the doubled S-pairs and reading off
its same-first-coordinate part.  The pair algebra is held as the
translation array of the subalgebra R of A x A, built from the algebra's
cached translation array once per algebra and R and kept on the algebra,
so that `center` and the two series, which all use R = total, share it.
An independent lattice-based oracle is provided for cross-checking.

Every entry point requires an explicit Maltsev term; non-Maltsev algebras
are rejected rather than silently falling back to a different commutator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, TermOp
from .congruence import (
    Congruence,
    _from_roots,
    _generate,
    _merge,
    all_congruences,
    congruence_violation,
    join,
    meet,
    principal_congruences,
    quotient,
    quotient_congruence,
)
from .errors import InternalError, NotMaltsev
from .maltsev import TernaryTable, check_associative, is_maltsev_table, restriction_violation


def _require_maltsev(alg: FiniteAlgebra, p: TermOp):
    if p.arity != 3 or len(p.table) != alg.size**3:
        raise NotMaltsev("term must be ternary over the algebra's carrier")
    if not is_maltsev_table(p.table, alg.size):
        raise NotMaltsev("term fails the Maltsev identities")


def _relation(cong: Congruence) -> np.ndarray:
    """The congruence as an (n, n) boolean matrix."""
    labels = np.asarray(cong.block_index)
    return labels[:, None] == labels[None, :]


def centralize(alg: FiniteAlgebra, R: Congruence, S: Congruence, p: TermOp,
               extra_terms=()) -> bool:
    """True iff R and S centralise each other, witnessed through the term p.

    The answer does not depend on the choice of Maltsev term; when
    extra_terms are supplied their restrictions are asserted to agree with
    p's on the mixed relation.
    """
    _require_maltsev(alg, p)
    for q in extra_terms:
        _require_maltsev(alg, q)
    n = alg.size
    r, s = _relation(R), _relation(S)
    # the mixed relation {(x,y,z) : x R y, y S z} in lexicographic order
    X, Y, Z = np.nonzero(r[:, :, None] & s[None, :, :])
    ptab = np.asarray(p.table).reshape((n,) * 3)
    pv = ptab[X, Y, Z]
    for q in extra_terms:
        if not np.array_equal(np.asarray(q.table).reshape((n,) * 3)[X, Y, Z], pv):
            raise InternalError("Maltsev terms disagree on the mixed relation")
    if not (s[X, pv] & r[pv, Z]).all():
        return False
    return restriction_violation(alg, (X, Y, Z), pv, ptab) is None


@dataclass(frozen=True)
class _PairAlgebra:
    """The subalgebra R of A x A: its pairs in lexicographic order, the slot
    of each pair, and its elementary translations."""

    first: np.ndarray
    second: np.ndarray
    slot: np.ndarray
    translations: np.ndarray


def _pair_algebra(alg: FiniteAlgebra, R: Congruence) -> _PairAlgebra:
    """Built once per algebra and R, and kept on the algebra.

    A translation of the pair algebra runs a translation of A on each
    coordinate, with the same operation and free position and with frozen
    arguments that are pairwise R-related.
    """
    cache = alg._pair_algebras
    if R.block_index not in cache:
        n = alg.size
        xs, ys = np.nonzero(_relation(R))
        slot = np.full((n, n), -1)
        slot[xs, ys] = np.arange(xs.size)
        rows, start = [], 0
        for op in alg.ops:
            for _ in range(op.arity):
                block = alg.translations[start:start + n ** (op.arity - 1)]
                start += len(block)
                # row indices of the frozen argument tuples on each coordinate
                cx = cy = np.zeros(1, dtype=np.int64)
                for _ in range(op.arity - 1):
                    cx = (cx[:, None] * n + xs).ravel()
                    cy = (cy[:, None] * n + ys).ravel()
                rows.append(slot[block[cx][:, xs], block[cy][:, ys]])
        trans = np.concatenate(rows) if rows else np.zeros((0, xs.size), dtype=np.int64)
        cache[R.block_index] = _PairAlgebra(xs, ys, slot, np.asfortranarray(trans))
    return cache[R.block_index]


def commutator(alg: FiniteAlgebra, R: Congruence, S: Congruence, p: TermOp) -> Congruence:
    """[R,S]: congruence generated on the pair algebra R by doubled S-pairs,
    intersected with the same-first-coordinate relation and pushed to M."""
    _require_maltsev(alg, p)
    n = alg.size
    pair = _pair_algebra(alg, R)
    ys, zs = np.nonzero(_relation(S))
    delta = _generate(pair.translations, pair.first.size,
                      pair.slot[ys, ys], pair.slot[zs, zs])
    # y raw y' iff (x, y) delta (x, y') for some x
    _, group = np.unique(pair.first * pair.first.size + delta, return_inverse=True)
    member = np.zeros((group.max(initial=-1) + 1, n), dtype=np.int64)
    member[group, pair.second] = 1
    raw = member.T @ member > 0
    roots = np.arange(n)
    _merge(roots, *np.nonzero(raw))
    out = _from_roots(roots)
    # in the Maltsev case the raw relation is already an equivalence; any
    # discrepancy means a non-Maltsev input slipped through
    if (_relation(out) & ~raw).any():
        raise InternalError("commutator relation is not transitive-symmetric")
    if congruence_violation(alg, out) is not None:
        raise InternalError("commutator relation is not a congruence")
    return out


def _project_term(p: TermOp, theta: Congruence) -> TermOp:
    """Image of a term operation on the quotient by theta."""
    n = len(theta.block_index)
    proj = np.asarray(theta.block_index)
    _, reps = np.unique(proj, return_index=True)
    table = proj[np.asarray(p.table).reshape((n,) * 3)[np.ix_(reps, reps, reps)]]
    return TermOp(3, tuple(table.ravel().tolist()), p.witness)


def commutator_oracle(alg: FiniteAlgebra, R: Congruence, S: Congruence, p: TermOp) -> Congruence:
    """Independent lattice characterisation: the meet of all congruences T
    whose quotient makes R/T and S/T centralise each other."""
    _require_maltsev(alg, p)
    acc = Congruence.total(alg.size)
    for T in all_congruences(alg):
        qalg, _ = quotient(alg, T)
        p_t = _project_term(p, T)
        r_t = quotient_congruence(alg, R, T)
        s_t = quotient_congruence(alg, S, T)
        if centralize(qalg, r_t, s_t, p_t):
            acc = meet(acc, T)
    return acc


def center(alg: FiniteAlgebra, p: TermOp) -> Congruence:
    """Largest congruence centralised by the total congruence.

    The commutator is join-distributive in congruence-modular varieties, so
    the center is the join of the central principal congruences; only the
    distinct principal congruences are tried.  Verified post hoc: the join
    is still central and no widening by a principal congruence is.
    """
    _require_maltsev(alg, p)
    total = Congruence.total(alg.size)
    diag = Congruence.diagonal(alg.size)
    principals = principal_congruences(alg)
    acc = diag
    for c in principals:
        if commutator(alg, total, c, p) == diag:
            acc = join(alg, acc, c)
    if commutator(alg, total, acc, p) != diag:
        raise InternalError("join of central principal congruences is not central")
    widenings = {}
    for c in principals:
        if not c.leq(acc):
            widenings.setdefault(join(alg, acc, c), c)
    for widened, c in widenings.items():
        if commutator(alg, total, widened, p) == diag:
            a, b = next((a, b) for a in range(alg.size) for b in range(a + 1, alg.size)
                        if c.same(a, b) and not acc.same(a, b))
            raise InternalError(f"center is not maximal: pair {(a, b)} could be added")
    return acc


@dataclass(frozen=True)
class SeriesReport:
    kind: str  # "lower" | "upper"
    terms: tuple[Congruence, ...]
    stabilized: bool
    class_: int | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [[list(b) for b in t.blocks()] for t in self.terms],
            "stabilized": self.stabilized,
            "class": self.class_,
        }


def lower_series(alg: FiniteAlgebra, p: TermOp, max_steps: int | None = None) -> SeriesReport:
    """Descending series G0 = total, G(n+1) = [total, Gn]."""
    _require_maltsev(alg, p)
    total = Congruence.total(alg.size)
    cap = max(alg.size - 1, 1)
    if max_steps is not None:
        cap = min(cap, max_steps)
    terms = [total]
    stabilized = False
    for _ in range(cap):
        nxt = commutator(alg, total, terms[-1], p)
        if nxt == terms[-1]:
            stabilized = True
            break
        terms.append(nxt)
        if nxt.is_diagonal():
            stabilized = True
            break
    cls = next((i for i, t in enumerate(terms) if t.is_diagonal()), None)
    return SeriesReport("lower", tuple(terms), stabilized, cls)


def upper_series(alg: FiniteAlgebra, p: TermOp, max_steps: int | None = None) -> SeriesReport:
    """Ascending series z0 = diagonal, z(n+1) = preimage of the center of M/zn."""
    _require_maltsev(alg, p)
    diag = Congruence.diagonal(alg.size)
    cap = max(alg.size - 1, 1)
    if max_steps is not None:
        cap = min(cap, max_steps)
    terms = [diag]
    stabilized = False
    for _ in range(cap):
        cur = terms[-1]
        qalg, proj = quotient(alg, cur)
        z = center(qalg, _project_term(p, cur))
        nxt = Congruence.from_labels([z.block_index[proj[x]] for x in range(alg.size)])
        if nxt == cur:
            stabilized = True
            break
        terms.append(nxt)
        if nxt.is_total():
            stabilized = True
            break
    cls = next((i for i, t in enumerate(terms) if t.is_total()), None)
    return SeriesReport("upper", tuple(terms), stabilized, cls)


def is_abelian(alg: FiniteAlgebra, p: TermOp) -> bool:
    """[total,total] = diagonal, cross-checked against the torsor criterion:
    the algebra is abelian iff its Maltsev term is an associative
    homomorphic operation on the full cube."""
    _require_maltsev(alg, p)
    total = Congruence.total(alg.size)
    by_commutator = commutator(alg, total, total, p).is_diagonal()
    hom = centralize(alg, total, total, p)
    assoc = check_associative(TernaryTable.full_from_flat(alg.size, p.table))
    by_torsor = hom and assoc
    if by_commutator != by_torsor:
        raise InternalError("commutator and torsor abelianness criteria disagree")
    return by_commutator


def nilpotence_class(alg: FiniteAlgebra, p: TermOp, max_steps: int | None = None) -> int | None:
    return lower_series(alg, p, max_steps).class_

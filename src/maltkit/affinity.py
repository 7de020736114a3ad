"""The abelian theory of a linear form d: M -> R.

An n-ary operation of the theory is a pair <x, (r_1, ..., r_{n-1})> with
x in M and r_i in R; on any affinity it acts as

    u(a_0, ..., a_{n-1}) = phi_{a_0}(x) +_{a_0} (r_1)_{a_0} a_1 +_{a_0} ...

Composition is implemented symbolically (compose_affinity) and checked
against a functional interpretation on free affinities, whose herd,
scaling and translation tables canonical_affinity_tables builds as arrays.
The affinity axioms are checked on such tables by the kernel of `laws`.
This module also hosts abelianization of an abelian Maltsev clone with
its round-trip check and pseudoconstants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    FiniteAlgebra, Operation, TermOp, _projections, _term_blocks, mixed_index, mixed_unindex,
    term_clone,
)
from .algebra import DEFAULT_CLONE_BUDGET
from .abgroup import isomorphisms
from .commutator import is_abelian
from .errors import (
    ArityError,
    InternalError,
    InvariantViolation,
    NotAbelian,
    NotMaltsev,
)
from .laws import as_table, first_violation
from .maltsev import is_maltsev_table
from .rings import FiniteRing, LeftModule, LinearForm


@dataclass(frozen=True)
class AffinityOp:
    """n-ary theory operation <m_part, r_parts>; arity = len(r_parts) + 1.

    There are no nullary operations: the hom-set at arity 0 is empty.
    """

    m_part: int
    r_parts: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.r_parts) + 1

    def to_json(self):
        return {"m": self.m_part, "r": list(self.r_parts)}


def validate_op(form: LinearForm, op: AffinityOp):
    if not 0 <= op.m_part < form.module.size:
        raise InvariantViolation("affinity-op-m", op.m_part)
    for r in op.r_parts:
        if not 0 <= r < form.ring.size:
            raise InvariantViolation("affinity-op-r", r)


def projection(form: LinearForm, arity: int, i: int) -> AffinityOp:
    """The i-th projection (0-based): <0; 0,...,0> picks the base argument,
    <0; ...,1 at i,...> the i-th one."""
    if not 0 <= i < arity:
        raise ArityError(f"projection index {i} out of range for arity {arity}")
    r = [form.ring.zero] * (arity - 1)
    if i > 0:
        r[i - 1] = form.ring.one
    return AffinityOp(form.module.zero, tuple(r))


def canonical_maltsev(form: LinearForm) -> AffinityOp:
    """<0; -1, 1>: the unique Maltsev operation, acting as a_0 - a_1 + a_2."""
    R = form.ring
    return AffinityOp(form.module.zero, (int(R.additive_group().neg[R.one]), R.one))


def compose_affinity(form: LinearForm, outer: AffinityOp, inners) -> AffinityOp:
    """Substitute `inners` (all of one arity) into `outer`.

    The module part is x + (1 - d(x)) x_0 + sum_i r_i (x_i - x_0) and every
    ring coordinate follows the same shape with ring products.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ArityError(
            f"outer arity {outer.arity} but {len(inners)} inner operations"
        )
    k = inners[0].arity
    for v in inners:
        if v.arity != k:
            raise ArityError("inner operations must share one arity")
    validate_op(form, outer)
    for v in inners:
        validate_op(form, v)
    R, M = form.ring, form.module
    radd, rmul, madd, mact = R.addition, R.multiplication, M.addition, M.action
    x = outer.m_part
    one_minus_dx = R.minus(R.one, form.d[x])

    m_acc = madd[x, mact[one_minus_dx, inners[0].m_part]]
    for r, v in zip(outer.r_parts, inners[1:]):
        m_acc = madd[m_acc, mact[r, M.minus(v.m_part, inners[0].m_part)]]

    new_r = []
    for j in range(k - 1):
        s0 = inners[0].r_parts[j]
        acc = rmul[one_minus_dx, s0]
        for r, v in zip(outer.r_parts, inners[1:]):
            acc = radd[acc, rmul[r, R.minus(v.r_parts[j], s0)]]
        new_r.append(int(acc))
    return AffinityOp(int(m_acc), tuple(new_r))


def is_maltsev_op(form: LinearForm, op: AffinityOp) -> bool:
    """Maltsev identities checked symbolically via composition with projections."""
    if op.arity != 3:
        return False
    p = [projection(form, 3, i) for i in range(3)]
    return (
        compose_affinity(form, op, [p[0], p[1], p[1]]) == p[0]
        and compose_affinity(form, op, [p[0], p[0], p[1]]) == p[1]
    )


# --- functional interpretation on free affinities -------------------------

@dataclass(frozen=True)
class FreeAffinity:
    """The free model on `rank` generators, realised on M x R^(rank-1).

    Carrier elements are mixed-radix encoded (module part most
    significant).  The primitive operations are the herd operation
    u - v + w, the scalings (1-r)v + ru and the translations
    u -> incl(x) + (1 - d(x))u; rank 2 is large enough to separate any two
    theory operations, rank 1 is the carrier M itself.
    """

    form: LinearForm
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvariantViolation("free-affinity-rank", self.rank)

    @property
    def size(self) -> int:
        return self.form.module.size * self.form.ring.size ** (self.rank - 1)

    @cached_property
    def tables(self):
        """canonical_affinity_tables of this affinity, built once."""
        return canonical_affinity_tables(self.form, self.rank)

    def evaluate(self, op: AffinityOp, args):
        """Chain the primitive operations exactly as the theory prescribes.

        The arguments may be ints or index arrays that broadcast together.
        """
        if len(args) != op.arity:
            raise ArityError(f"op arity {op.arity}, got {len(args)} arguments")
        _, herd, raction, phi = self.tables
        base = args[0]
        acc = phi[op.m_part, base]
        for r, a in zip(op.r_parts, args[1:]):
            acc = herd[acc, base, raction[r, base, a]]
        return acc

    def op_table(self, op: AffinityOp) -> np.ndarray:
        """The values of the operation on this affinity, shape (size,)*arity."""
        n = self.size
        return np.broadcast_to(self.evaluate(op, np.ix_(*[np.arange(n)] * op.arity)),
                               (n,) * op.arity)

    def algebra(self) -> FiniteAlgebra:
        """The free affinity as a finite algebra with the primitive operations."""
        n, herd, raction, phi = self.tables
        ops = [Operation("herd", 3, herd)]
        ops += [Operation(f"sc{r}", 2, table) for r, table in enumerate(raction)]
        ops += [Operation(f"ph{x}", 1, table) for x, table in enumerate(phi)]
        return FiniteAlgebra(n, tuple(ops), name=f"free-affinity-{self.rank}")


# --- affinity axiom checking ----------------------------------------------

@dataclass(frozen=True)
class AffinityCheckReport:
    ok: bool
    law: str | None
    witness: tuple | None


def affinity_axiom_check(
    form: LinearForm,
    size: int,
    herd,
    raction,
    phi,
) -> AffinityCheckReport:
    """Exhaustively check the affinity identities over the given tables.

    herd is the table b +_a c indexed (b, a, c), shape (size,)*3; raction
    the table r_a b indexed (r, a, b), shape (|R|, size, size); phi the
    table indexed (x, a), shape (|M|, size).  Each may also be given in
    flat row-major order.  The laws are checked one after the other, each
    over all its tuples in lexicographic order.
    """
    R, M = form.ring, form.module
    n, nr, nm = size, R.size, M.size
    shapes = ((n, n, n), (nr, n, n), (nm, n))
    if any(np.size(t) != math.prod(s) for t, s in zip((herd, raction, phi), shapes)):
        raise InvariantViolation("affinity-table-length", None)
    H, A, P = (as_table(t, s, n, "affinity-table-entry", None)
               for t, s in zip((herd, raction, phi), shapes))
    radd, rmul, madd, mact = R.addition, R.multiplication, M.addition, M.action
    rneg = R.additive_group().neg
    minus_one = rneg[R.one]
    one_minus_d = radd[R.one, rneg[form.d]]

    def sub(b, a, c):  # b -_a c = b +_a (-1)_a c
        return H[b, a, A[minus_one, a, c]]

    laws = [
        ("plus-associative", (n, n, n, n),
         lambda a, b, c, e: H[b, a, H[c, a, e]] == H[H[b, a, c], a, e]),
        ("plus-unit", (n, n), lambda a, b: H[a, a, b] == b),
        ("plus-commutative", (n, n, n), lambda a, b, c: H[b, a, c] == H[c, a, b]),
        ("minus-self", (n, n), lambda a, b: sub(b, a, b) == a),
        ("scale-distributes", (nr, n, n, n),
         lambda r, a, b, c: A[r, a, H[b, a, c]] == H[A[r, a, b], a, A[r, a, c]]),
        ("scale-adds", (nr, nr, n, n),
         lambda r, s, a, b: A[radd[r, s], a, b] == H[A[r, a, b], a, A[s, a, b]]),
        ("scale-unit", (n, n), lambda a, b: A[R.one, a, b] == b),
        ("scale-multiplies", (nr, nr, n, n),
         lambda r, s, a, b: A[r, a, A[s, a, b]] == A[rmul[r, s], a, b]),
        ("phi-additive", (nm, nm, n),
         lambda x, y, a: P[madd[x, y], a] == H[P[x, a], a, P[y, a]]),
        ("phi-linear", (nr, nm, n), lambda r, x, a: P[mact[r, x], a] == A[r, a, P[x, a]]),
        # coordinate change across base points
        ("base-change-plus", (n, n, n, n),
         lambda o, a, b, c: H[b, a, c] == H[H[sub(b, o, a), o, sub(c, o, a)], o, a]),
        ("base-change-scale", (nr, n, n, n),
         lambda r, o, a, b: A[r, a, b] == H[A[r, o, sub(b, o, a)], o, a]),
        ("base-change-phi", (nm, n, n),
         lambda x, o, a: P[x, a] == H[P[x, o], o, A[one_minus_d[x], o, a]]),
    ]
    for name, sizes, holds in laws:
        hit = first_violation(sizes, [(name, holds)])
        if hit is not None:
            return AffinityCheckReport(False, *hit)
    return AffinityCheckReport(True, None, None)


def canonical_affinity_tables(form: LinearForm, rank: int = 1):
    """Tables (size, herd, raction, phi) of the free affinity of the given
    rank, in the shapes affinity_axiom_check reads.

    An element is its coordinates (m, r_1, ..., r_{rank-1}) in M x R^(rank-1),
    encoded by `mixed_index` with the module part most significant; addition,
    negation and scaling act coordinatewise.
    """
    if rank < 1:
        raise InvariantViolation("free-affinity-rank", rank)
    R, M = form.ring, form.module
    nr, nm, k = R.size, M.size, rank - 1
    n = nm * nr**k
    radd, rmul, madd, mact = R.addition, R.multiplication, M.addition, M.action
    rneg, mneg = R.additive_group().neg, M.additive_group().neg
    sizes = (nm,) + (nr,) * k
    coords = mixed_unindex(sizes, np.arange(n))

    def plus(u, v):
        return [madd[u[0], v[0]]] + [radd[a, b] for a, b in zip(u[1:], v[1:])]

    def neg(u):
        return [mneg[u[0]]] + [rneg[a] for a in u[1:]]

    def smul(r, u):
        return [mact[r, u[0]]] + [rmul[r, a] for a in u[1:]]

    def axis(i, dims):  # the coordinates of the elements along axis i of dims axes
        return [c.reshape((-1,) + (1,) * (dims - 1 - i)) for c in coords]

    b, a, c = axis(0, 3), axis(1, 3), axis(2, 3)
    herd = mixed_index(sizes, plus(plus(b, neg(a)), c))
    r = np.arange(nr).reshape(-1, 1, 1)
    one_minus_r = radd[R.one, rneg[r]]
    raction = mixed_index(sizes, plus(smul(one_minus_r, a), smul(r, c)))
    x = np.arange(nm).reshape(-1, 1)
    one_minus_dx = radd[R.one, rneg[form.d]][:, None]
    phi = mixed_index(sizes, plus([x] + [R.zero] * k, smul(one_minus_dx, axis(1, 2))))
    return n, herd, raction, phi


# --- abelianization --------------------------------------------------------

@dataclass(frozen=True)
class Abelianization:
    form: LinearForm
    module_terms: tuple[TermOp, ...]
    ring_terms: tuple[TermOp, ...]


def _binary_terms(alg: FiniteAlgebra, budget: int):
    """The binary clone, enumerated on the pairs (x, 0) and (0, y) alone;
    complete under the precondition of abelianize, which proves it."""
    n = alg.size
    axes = np.union1d(np.arange(n) * n, np.arange(n))
    for rows, term in _term_blocks(alg, _projections(n, 2), budget, axes):
        yield from map(term, range(len(rows)))


def abelianize(
    alg: FiniteAlgebra,
    m: TermOp,
    budget: int = DEFAULT_CLONE_BUDGET,
    assume_abelian: bool = False,
) -> Abelianization:
    """Read a linear form off an abelian Maltsev clone.

    The module is the unary clone under x + y = m(x, id, y); the ring is
    the convex part (r(a,a) = a) of the binary clone with 0 and 1 the two
    projections, r + s = m(r, 0, s) and (rs)(a,b) = r(a, s(a,b)); the form
    is x |-> m(x(a), x(b), b).  Set assume_abelian only when abelianness
    is already established elsewhere (e.g. a verified affinity model whose
    basic operations make the exhaustive commutator check infeasible).

    The binary clone is enumerated on the 2n - 1 pairs X = {(x, 0), (0, y)}
    and each new table is then evaluated whole (_binary_terms).  This needs
    m to commute with every basic operation: is_abelian checks that m is a
    homomorphism A^3 -> A, and assume_abelian asserts it.  Then m commutes
    with every term operation t, as such operations are closed under
    composition, and for binary t the Maltsev identities give
    t(x, y) = t(m(x, 0, 0), m(0, 0, y)) = m(t(x, 0), t(0, 0), t(0, y)).  So
    binary terms that agree on X are equal: the projection onto X is
    injective, and the enumeration on X makes the new-or-not decisions of
    the one on all n^2 pairs, with the same tables, witnesses, order and
    budget counts.  Without the precondition it need not be: S3 has 972
    binary term operations but 36 restrictions to X.
    """
    n = alg.size
    if n == 0:
        raise NotAbelian("the empty algebra has no unary clone to abelianise")
    if not is_maltsev_table(m.values, n):
        raise NotMaltsev("supplied term fails the Maltsev identities")
    if not assume_abelian and not is_abelian(alg, m):
        raise NotAbelian("algebra is not abelian")

    unary = term_clone(alg, 1, budget)
    binary = tuple(_binary_terms(alg, budget))
    x = np.arange(n)
    ring_terms = tuple(t for t in binary if (np.diagonal(t.values) == x).all())
    # the stacks of unary (count, n) and convex binary (count, n, n) tables
    U, B = np.array([t.values for t in unary]), np.array([t.values for t in ring_terms])
    M, a = m.values, x[:, None]

    def slots(rows, clone, kind):
        """The index in clone of each table in the stack rows."""
        index = {row.tobytes(): i for i, row in enumerate(clone)}
        out = [index.get(row.tobytes(), -1) for row in rows.reshape((-1,) + clone.shape[1:])]
        if -1 in out:
            raise InternalError(f"{kind} clone not closed under the derived laws")
        return out

    m_add = slots(M[U[:, None], x, U], U, "unary")
    r_add = slots(M[B[:, None], a, B], B, "convex binary")
    r_mul = slots(B[np.arange(len(B))[:, None, None, None], a, B], B, "convex binary")
    act = slots(B[:, x, U], U, "unary")
    dvals = slots(M[U[:, :, None], U[:, None], x], B, "convex binary")
    zero, one = slots(np.indices((n, n)), B, "convex binary")
    try:
        ring = FiniteRing(len(ring_terms), r_add, r_mul, zero, one)
        module = LeftModule(ring, len(unary), m_add, act)
        form = LinearForm(module, dvals)
    except InvariantViolation as exc:
        raise NotAbelian(f"derived structure fails a law: {exc}") from exc
    if module.zero != slots(x, U, "unary")[0]:
        raise InternalError("identity term is not the module zero")
    return Abelianization(form, unary, ring_terms)


@dataclass(frozen=True)
class RoundtripReport:
    ok: bool
    ring_iso: tuple[int, ...] | None
    module_iso: tuple[int, ...] | None
    recovered: LinearForm | None

    def to_json(self):
        return {
            "ok": self.ok,
            "ring_iso": list(self.ring_iso) if self.ring_iso else None,
            "module_iso": list(self.module_iso) if self.module_iso else None,
        }


def form_isomorphism(f1: LinearForm, f2: LinearForm):
    """A pair (ring iso, module iso) intertwining the two forms, or None."""
    R1, R2 = f1.ring, f2.ring
    M1, M2 = f1.module, f2.module
    mul1, mul2, act1, act2 = R1.multiplication, R2.multiplication, M1.action, M2.action
    d1, d2 = f1.d, f2.d
    for f in isomorphisms(R1.additive_group(), R2.additive_group()):
        F = np.asarray(f)
        if f[R1.one] != R2.one or first_violation((R1.size,) * 2, [
            ("ring-iso-multiplicative", lambda a, b: F[mul1[a, b]] == mul2[F[a], F[b]]),
        ]):
            continue
        for g in isomorphisms(M1.additive_group(), M2.additive_group()):
            G = np.asarray(g)
            if not first_violation((R1.size, M1.size), [
                ("module-iso-equivariant", lambda r, x: G[act1[r, x]] == act2[F[r], G[x]]),
                ("forms-intertwined", lambda r, x: d2[G[x]] == F[d1[x]]),
            ]):
                return f, g
    return None


def roundtrip_check(
    form: LinearForm, budget: int = DEFAULT_CLONE_BUDGET
) -> RoundtripReport:
    """Realise the theory on the rank-2 free affinity, abelianise the
    resulting clone, and exhibit an isomorphism back to the input form.

    Rank 2 is the least rank on which inequivalent operations act
    differently (on rank 1 a ring element is only seen through its action
    on M), so the recovered form is the input up to isomorphism.
    """
    fa = FreeAffinity(form, 2)
    report = affinity_axiom_check(form, *fa.tables)
    if not report.ok:
        raise InternalError(f"free affinity fails its own axioms: {report.law}")
    alg = fa.algebra()
    herd_term = TermOp(
        3,
        alg.op("herd").values,
        ("herd", ("var", 0), ("var", 1), ("var", 2)),
    )
    ab = abelianize(alg, herd_term, budget, assume_abelian=True)
    iso = form_isomorphism(ab.form, form)
    if iso is None:
        return RoundtripReport(False, None, None, ab.form)
    return RoundtripReport(True, iso[0], iso[1], ab.form)


def pseudoconstants(form: LinearForm) -> tuple[int, ...]:
    """Elements p of M with d(p) = 1; non-empty iff 1 lies in the image of d."""
    return tuple(np.flatnonzero(form.d == form.ring.one).tolist())

"""The abelian theory of a linear form d: M -> R.

An n-ary operation of the theory is a pair <x, (r_1, ..., r_{n-1})> with
x in M and r_i in R; on any affinity it acts as

    u(a_0, ..., a_{n-1}) = phi_{a_0}(x) +_{a_0} (r_1)_{a_0} a_1 +_{a_0} ...

Composition is implemented symbolically (compose_affinity) and checked
against a functional interpretation on free affinities, whose herd,
scaling and translation tables canonical_affinity_tables builds as arrays.
The affinity axioms are checked on such tables by the kernel of `laws`.
This module also hosts abelianization of an abelian Maltsev clone with
its round-trip check, pseudoconstants, and the with-constants theory of a
ring-module pair.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import FiniteAlgebra, Operation, TermOp, term_clone, tuple_index
from .algebra import DEFAULT_CLONE_BUDGET
from .abgroup import AbelianGroup, isomorphisms
from .commutator import is_abelian
from .errors import (
    ArityError,
    InternalError,
    InvariantViolation,
    NotAbelian,
    NotMaltsev,
)
from .laws import first_violation, require_range
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
    return AffinityOp(form.module.zero, (R.neg(R.one), R.one))


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
    x = outer.m_part
    one_minus_dx = R.minus(R.one, form.d[x])

    m_acc = M.plus(x, M.smul(one_minus_dx, inners[0].m_part))
    for r, v in zip(outer.r_parts, inners[1:]):
        m_acc = M.plus(m_acc, M.smul(r, M.minus(v.m_part, inners[0].m_part)))

    new_r = []
    for j in range(k - 1):
        s0 = inners[0].r_parts[j]
        acc = R.mulv(one_minus_dx, s0)
        for r, v in zip(outer.r_parts, inners[1:]):
            acc = R.plus(acc, R.mulv(r, R.minus(v.r_parts[j], s0)))
        new_r.append(acc)
    return AffinityOp(m_acc, tuple(new_r))


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

    def herd(self, u, v, w):
        n, herd, _, _ = self.tables
        return herd[(u * n + v) * n + w]

    def evaluate(self, op: AffinityOp, args):
        """Chain the primitive operations exactly as the theory prescribes.

        The arguments may be ints or index arrays that broadcast together.
        """
        if len(args) != op.arity:
            raise ArityError(f"op arity {op.arity}, got {len(args)} arguments")
        n, herd, raction, phi = self.tables
        base = args[0]
        acc = phi[op.m_part * n + base]
        for r, a in zip(op.r_parts, args[1:]):
            acc = herd[(acc * n + base) * n + raction[(r * n + base) * n + a]]
        return acc

    def op_table(self, op: AffinityOp) -> tuple[int, ...]:
        n = self.size
        values = self.evaluate(op, np.ix_(*[np.arange(n)] * op.arity))
        return tuple(np.broadcast_to(values, (n,) * op.arity).ravel().tolist())

    def algebra(self) -> FiniteAlgebra:
        """The free affinity as a finite algebra with the primitive operations."""
        n, herd, raction, phi = self.tables
        ops = [Operation("herd", 3, tuple(herd.tolist()))]
        ops += [
            Operation(f"sc{r}", 2, tuple(table.tolist()))
            for r, table in enumerate(raction.reshape(-1, n * n))
        ]
        ops += [
            Operation(f"ph{x}", 1, tuple(table.tolist()))
            for x, table in enumerate(phi.reshape(-1, n))
        ]
        return FiniteAlgebra(n, tuple(ops), name=f"free-affinity-{self.rank}")


def all_ops(form: LinearForm, arity: int):
    """Every theory operation of the given arity, lexicographically."""
    if arity < 1:
        return
    R, M = form.ring, form.module
    for x in range(M.size):
        for rs in itertools.product(range(R.size), repeat=arity - 1):
            yield AffinityOp(x, rs)


# --- affinity axiom checking ----------------------------------------------

@dataclass(frozen=True)
class AffinityCheckReport:
    ok: bool
    law: str | None
    witness: tuple | None

    def to_json(self):
        return {
            "ok": self.ok,
            "law": self.law,
            "witness": list(self.witness) if self.witness else None,
        }


def affinity_axiom_check(
    form: LinearForm,
    size: int,
    herd,
    raction,
    phi,
) -> AffinityCheckReport:
    """Exhaustively check the affinity identities over the given tables.

    herd is a flat size^3 table b +_a c indexed (b, a, c); raction a flat
    |R| x size x size table r_a b indexed (r, a, b); phi a flat
    |M| x size table indexed (x, a).  The laws are checked one after the
    other, each over all its tuples in lexicographic order.
    """
    R, M = form.ring, form.module
    n, nr, nm = size, R.size, M.size
    if len(herd) != n**3 or len(raction) != nr * n * n or len(phi) != nm * n:
        raise InvariantViolation("affinity-table-length", None)
    for table in (herd, raction, phi):
        require_range("affinity-table-entry", table, n)
    H = np.reshape(herd, (n, n, n))
    A = np.reshape(raction, (nr, n, n))
    P = np.reshape(phi, (nm, n))
    radd, rmul = np.reshape(R.add, (nr, nr)), np.reshape(R.mul, (nr, nr))
    madd, mact = np.reshape(M.add, (nm, nm)), np.reshape(M.act, (nr, nm))
    minus_one = R.neg(R.one)
    one_minus_d = np.array([R.minus(R.one, v) for v in form.d])

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
    """Flat tables (size, herd, raction, phi) of the free affinity of the
    given rank, in the layout affinity_axiom_check reads.

    An element is its coordinates (m, r_1, ..., r_{rank-1}) in M x R^(rank-1),
    encoded mixed-radix with the module part most significant; addition,
    negation and scaling act coordinatewise.
    """
    if rank < 1:
        raise InvariantViolation("free-affinity-rank", rank)
    R, M = form.ring, form.module
    nr, nm, k = R.size, M.size, rank - 1
    n = nm * nr**k
    radd, rmul = np.reshape(R.add, (nr, nr)), np.reshape(R.mul, (nr, nr))
    madd, mact = np.reshape(M.add, (nm, nm)), np.reshape(M.act, (nr, nm))
    rneg, mneg = np.asarray(R.additive_group().neg), np.asarray(M.additive_group().neg)
    e = np.arange(n)
    coords = [e // nr**k] + [e // nr ** (k - 1 - j) % nr for j in range(k)]

    def plus(u, v):
        return [madd[u[0], v[0]]] + [radd[a, b] for a, b in zip(u[1:], v[1:])]

    def neg(u):
        return [mneg[u[0]]] + [rneg[a] for a in u[1:]]

    def smul(r, u):
        return [mact[r, u[0]]] + [rmul[r, a] for a in u[1:]]

    def encode(u, shape):
        out = u[0]
        for a in u[1:]:
            out = out * nr + a
        return np.broadcast_to(out, shape).ravel()

    def axis(i, dims):  # the coordinates of the elements along axis i of dims axes
        return [c.reshape((-1,) + (1,) * (dims - 1 - i)) for c in coords]

    b, a, c = axis(0, 3), axis(1, 3), axis(2, 3)
    herd = encode(plus(plus(b, neg(a)), c), (n, n, n))
    r = np.arange(nr).reshape(-1, 1, 1)
    one_minus_r = radd[R.one, rneg[r]]
    raction = encode(plus(smul(one_minus_r, a), smul(r, c)), (nr, n, n))
    x = np.arange(nm).reshape(-1, 1)
    one_minus_dx = radd[R.one, rneg[np.asarray(form.d)]].reshape(-1, 1)
    phi = encode(plus([x] + [R.zero] * k, smul(one_minus_dx, axis(1, 2))), (nm, n))
    return n, herd, raction, phi


# --- abelianization --------------------------------------------------------

@dataclass(frozen=True)
class Abelianization:
    form: LinearForm
    module_terms: tuple[TermOp, ...]
    ring_terms: tuple[TermOp, ...]


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
    """
    n = alg.size
    if n == 0:
        raise NotAbelian("the empty algebra has no unary clone to abelianise")
    if not is_maltsev_table(m.table, n):
        raise NotMaltsev("supplied term fails the Maltsev identities")
    if not assume_abelian and not is_abelian(alg, m):
        raise NotAbelian("algebra is not abelian")

    unary = term_clone(alg, 1, budget)
    binary = term_clone(alg, 2, budget)
    unary_idx = {t.table: i for i, t in enumerate(unary)}
    ring_terms = tuple(
        t for t in binary if all(t.table[tuple_index(n, (a, a))] == a for a in range(n))
    )
    ring_idx = {t.table: i for i, t in enumerate(ring_terms)}

    def mval(x, y, z):
        return m.table[tuple_index(n, (x, y, z))]

    def unary_slot(table):
        i = unary_idx.get(tuple(table))
        if i is None:
            raise InternalError("unary clone not closed under the derived laws")
        return i

    def ring_slot(table):
        i = ring_idx.get(tuple(table))
        if i is None:
            raise InternalError("convex binary clone not closed under the derived laws")
        return i

    ident = tuple(range(n))
    first = tuple(a for a, _ in itertools.product(range(n), repeat=2))
    second = tuple(b for _, b in itertools.product(range(n), repeat=2))

    m_add = []
    for x in unary:
        for y in unary:
            m_add.append(
                unary_slot(mval(x.table[a], a, y.table[a]) for a in range(n))
            )
    r_add = []
    r_mul = []
    for r in ring_terms:
        for s in ring_terms:
            r_add.append(
                ring_slot(
                    mval(
                        r.table[tuple_index(n, (a, b))],
                        a,
                        s.table[tuple_index(n, (a, b))],
                    )
                    for a, b in itertools.product(range(n), repeat=2)
                )
            )
            r_mul.append(
                ring_slot(
                    r.table[
                        tuple_index(n, (a, s.table[tuple_index(n, (a, b))]))
                    ]
                    for a, b in itertools.product(range(n), repeat=2)
                )
            )
    act = []
    for r in ring_terms:
        for x in unary:
            act.append(
                unary_slot(
                    r.table[tuple_index(n, (a, x.table[a]))] for a in range(n)
                )
            )
    dvals = []
    for x in unary:
        dvals.append(
            ring_slot(
                mval(x.table[a], x.table[b], b)
                for a, b in itertools.product(range(n), repeat=2)
            )
        )

    try:
        ring = FiniteRing(
            len(ring_terms),
            tuple(r_add),
            tuple(r_mul),
            ring_slot(first),
            ring_slot(second),
        )
        module = LeftModule(ring, len(unary), tuple(m_add), tuple(act))
        form = LinearForm(module, tuple(dvals))
    except InvariantViolation as exc:
        raise NotAbelian(f"derived structure fails a law: {exc}") from exc
    if module.zero != unary_slot(ident):
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
    mul1, mul2 = np.reshape(R1.mul, (R1.size,) * 2), np.reshape(R2.mul, (R2.size,) * 2)
    act1, act2 = np.reshape(M1.act, (R1.size, M1.size)), np.reshape(M2.act, (R2.size, M2.size))
    d1, d2 = np.asarray(f1.d), np.asarray(f2.d)
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
        alg.op("herd").table,
        ("herd", ("var", 0), ("var", 1), ("var", 2)),
    )
    ab = abelianize(alg, herd_term, budget, assume_abelian=True)
    iso = form_isomorphism(ab.form, form)
    if iso is None:
        return RoundtripReport(False, None, None, ab.form)
    return RoundtripReport(True, iso[0], iso[1], ab.form)


def pseudoconstants(form: LinearForm) -> tuple[int, ...]:
    """Elements p of M with d(p) = 1; non-empty iff 1 lies in the image of d."""
    return tuple(
        x for x in range(form.module.size) if form.d[x] == form.ring.one
    )


# --- the with-constants theory of a ring-module pair ----------------------

@dataclass(frozen=True)
class TheoryWithConstants:
    """Hom-sets Hom_R(R^k, K + R^n) of the theory of modules-under-K.

    A morphism X^n -> X^k is a k-tuple of elements (kappa_j, rho_j) with
    kappa_j in K and rho_j in R^n; composition pushes kappa through and
    multiplies the matrices.  Unlike the theories of linear forms these
    hom-sets contain constants (n = 0 is allowed) and the empty model is
    excluded.
    """

    ring: FiniteRing
    kmodule: LeftModule

    empty_model_allowed = False

    def hom_size(self, n: int, k: int) -> int:
        return (self.kmodule.size * self.ring.size**n) ** k

    def hom(self, n: int, k: int):
        """All morphisms X^n -> X^k in a stable lexicographic order."""
        K, R = self.kmodule, self.ring
        coords = itertools.product(
            range(K.size), *(range(R.size) for _ in range(n))
        )
        per_coord = [(kv, tuple(rv)) for (kv, *rv) in coords]
        return [
            tuple(choice) for choice in itertools.product(per_coord, repeat=k)
        ]

    def identity(self, n: int):
        K, R = self.kmodule, self.ring
        return tuple(
            (K.zero, tuple(R.one if i == j else R.zero for i in range(n)))
            for j in range(n)
        )

    def compose(self, outer, inner, n: int):
        """outer: X^n -> X^k after inner: X^l -> X^n (n = middle arity)."""
        K, R = self.kmodule, self.ring
        if len(inner) != n:
            raise ArityError("middle arity mismatch")
        l = len(inner[0][1]) if inner else 0
        out = []
        for kappa, rho in outer:
            if len(rho) != n:
                raise ArityError("outer row width differs from middle arity")
            k_acc = kappa
            r_acc = [R.zero] * l
            for coeff, (kappa2, rho2) in zip(rho, inner):
                k_acc = K.plus(k_acc, K.smul(coeff, kappa2))
                for t in range(l):
                    r_acc[t] = R.plus(r_acc[t], R.mulv(coeff, rho2[t]))
            out.append((k_acc, tuple(r_acc)))
        return tuple(out)

    def project(self, morphism):
        """Forget the K-components: the image in the theory of R-modules."""
        return tuple(rho for _, rho in morphism)

    def fiber_difference(self, m1, m2):
        """Componentwise K-difference of two morphisms over the same projection."""
        if self.project(m1) != self.project(m2):
            raise ArityError("morphisms do not share a projection")
        K = self.kmodule
        return tuple(K.minus(k1, k2) for (k1, _), (k2, _) in zip(m1, m2))

    def check_linear_extension_identities(self, max_arity: int = 2) -> bool:
        """The two subtraction identities of a linear extension, verified on
        all composable pairs up to the given arity.  Each hom-set is encoded
        once as arrays of its kappa (H, k) and rho (H, k, n) parts, and
        composition as a table of the kappa parts of all composites."""
        K = self.kmodule
        kadd = np.reshape(K.add, (K.size, K.size))
        kact = np.reshape(K.act, (self.ring.size, K.size))
        kminus = kadd[:, list(K.additive_group().neg)]
        homs, parts = {}, {}
        for n, k in itertools.product(range(max_arity + 1), repeat=2):
            homs[n, k] = hom = self.hom(n, k)
            parts[n, k] = (np.array([[kv for kv, _ in h] for h in hom], dtype=np.int64),
                           np.array([[rv for _, rv in h] for h in hom],
                                    dtype=np.int64).reshape(len(hom), k, n))
        for n, k, l in itertools.product(range(max_arity + 1), range(1, max_arity + 1),
                                         range(max_arity + 1)):
            comp = np.array([[[kv for kv, _ in self.compose(e1, e2, n)] for e2 in homs[l, n]]
                             for e1 in homs[n, k]], dtype=np.int64)
            (kap1, rho1), (kap2, rho2) = parts[n, k], parts[l, n]
            same = lambda rho, a, b: (rho[a] == rho[b]).all((-2, -1))
            # P(e1)(e2 - e2'): the R-matrix of e1 applied to a K-difference
            matvec = lambda a, diff: functools.reduce(
                lambda u, v: kadd[u, v], np.moveaxis(kact[rho1[a], diff[..., None, :]], -1, 0),
                K.zero)
            if first_violation((len(kap1), len(kap2), len(kap2)), [
                ("left-subtraction", lambda a, b, c: ~same(rho2, b, c) | (
                    kminus[comp[a, b], comp[a, c]] == matvec(a, kminus[kap2[b], kap2[c]])
                ).all(-1)),
            ]) or first_violation((len(kap1), len(kap1), len(kap2)), [
                # the right action on differences is trivial: composition is
                # affine in the outer K-part
                ("right-subtraction", lambda a, b, c: ~same(rho1, a, b) | (
                    kminus[comp[a, c], comp[b, c]] == kminus[kap1[a], kap1[b]]).all(-1)),
            ]):
                return False
        return True

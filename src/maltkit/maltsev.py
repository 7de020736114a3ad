"""Maltsev operations, herds/torsors, and the torsor <-> group correspondence.

A TernaryTable is a candidate Maltsev operation given by explicit values.
Its domain is either the full cube, the fibre cube of a base map p
(p(x)=p(y)=p(z)), or the mixed domain p(x)=p(y) with z free; the mixed
variant is what a torsor under a constant group looks like fibrewise.

`central_torsor_check` is the one decision of torsor structure: `mk
torsor-group` asks it over the one-point base and `mk untwisted-check` over
the base monoid of an extension.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_CLONE_BUDGET, FiniteAlgebra, TermOp, _projections, _term_blocks, same_tables,
)
from .congruence import Congruence, _merge, congruence_violation
from .errors import (
    DomainError,
    EmptyTorsor,
    InternalError,
    InvariantViolation,
    NotAHerd,
)
from .laws import as_table, first_violation

FULL = "full"
FIBERED = "fibered"
MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class TernaryTable:
    """A ternary operation on the declared domain of its kind.

    The constructor takes the values on the declared domain in
    lexicographic order of the triples (on the full cube, that is the flat
    row-major order, and an array of shape (size,)*3 will do) and holds
    them as `table`, a read-only (size, size, size) int64 array with -1
    outside the domain, which lookups and the law checks read.
    """

    size: int
    kind: str = FULL
    base: tuple[int, ...] | None = None
    table: np.ndarray = ()
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        if self.kind not in (FULL, FIBERED, MIXED):
            raise InvariantViolation("tern-kind", self.kind)
        if self.kind != FULL:
            if self.base is None or len(self.base) != self.size:
                raise InvariantViolation("tern-base-length", self.base)
        n = max(self.size, 0)
        b = np.zeros(n) if self.kind == FULL else np.asarray(self.base)
        same = b[:, None] == b
        inside = np.broadcast_to(
            same[:, :, None] & (same[None] if self.kind == FIBERED else True), (n,) * 3)
        count = int(inside.sum())
        values = as_table(self.table, (count,), self.size, "tern-entry-range",
                          ("tern-entries-length", (np.size(self.table), count)))
        table = np.full((n,) * 3, -1)
        table[inside] = values
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def domain(self) -> np.ndarray:
        """The declared domain, one triple a row, in lexicographic order."""
        return np.argwhere(self.table >= 0)

    def defined(self, triple) -> bool:
        return all(0 <= v < self.size for v in triple) and self.table[tuple(triple)] >= 0

    def __call__(self, x: int, y: int, z: int) -> int:
        if not self.defined((x, y, z)):
            raise DomainError(f"triple {(x, y, z)} outside declared domain")
        return int(self.table[x, y, z])

    @classmethod
    def full_from_flat(cls, size: int, values, name: str = "") -> "TernaryTable":
        """From the values on the full cube, flat or of shape (size,)*3."""
        return cls(size, FULL, None, values, name)

    @classmethod
    def from_entries(cls, size, kind, base, mapping, name: str = "") -> "TernaryTable":
        """Build from a triple->value mapping which must cover the domain
        exactly; the first entry outside it is the witness of the law
        'tern-entry-domain'.  Coverage is decided by counting, before a
        table is allocated, and only the first three missing triples are
        looked for."""
        b = None if kind == FULL else tuple(base)
        for x, y, z in mapping:
            if not (0 <= min(x, y, z) and max(x, y, z) < size and (
                    kind == FULL or b[x] == b[y] and (kind == MIXED or b[y] == b[z]))):
                raise InvariantViolation("tern-entry-domain", (x, y, z))
        fibres = Counter(b).values() if b is not None else ()
        count = (max(size, 0) ** 3 if kind == FULL else
                 sum(f * f * (size if kind == MIXED else f) for f in fibres))
        if len(mapping) < count:
            n = range(size)
            domain = ((x, y, z) for x in n for y in n if kind == FULL or b[x] == b[y]
                      for z in n if kind != FIBERED or b[y] == b[z])
            missing = (t for t in domain if t not in mapping)
            raise InvariantViolation("tern-domain-covered", list(itertools.islice(missing, 3)))
        # the keys are exactly the domain, so sorted they are in its order
        return cls(size, kind, b, [v for _, v in sorted(mapping.items())], name)


def check_maltsev(m: TernaryTable) -> bool:
    """m(x,y,y) = x = m(y,y,x) on the declared domain."""
    T = m.table
    return first_violation((m.size, m.size), [
        ("maltsev", lambda x, y: ((T[x, y, y] == x) | (T[x, y, y] < 0))
         & ((T[y, y, x] == x) | (T[y, y, x] < 0))),
    ]) is None


def _associativity_failure(m: TernaryTable):
    """The first (u,v,x,y,z) with m(u,v,x) and m(x,y,z) declared at which
    m(u,v,m(x,y,z)) = m(m(u,v,x),y,z) fails, or None.

    Raises DomainError where, at an earlier tuple, a composite leaves the
    declared domain: the same triple that evaluating the two sides in
    order would have consulted.
    """
    T = m.table

    def declared(u, v, x, y, z):
        return (T[u, v, x] >= 0) & (T[x, y, z] >= 0)

    hit = first_violation((m.size,) * 5, [
        ("left", lambda u, v, x, y, z: ~declared(u, v, x, y, z) | (T[u, v, T[x, y, z]] >= 0)),
        ("right", lambda u, v, x, y, z: ~declared(u, v, x, y, z) | (T[T[u, v, x], y, z] >= 0)),
        ("associative", lambda u, v, x, y, z: ~declared(u, v, x, y, z)
         | (T[u, v, T[x, y, z]] == T[T[u, v, x], y, z])),
    ])
    if hit is None:
        return None
    law, (u, v, x, y, z) = hit
    if law == "left":
        raise DomainError(f"triple {(u, v, m(x, y, z))} outside declared domain")
    if law == "right":
        raise DomainError(f"triple {(m(u, v, x), y, z)} outside declared domain")
    return (u, v, x, y, z)


def check_associative(m: TernaryTable) -> bool:
    """m(u,v,m(x,y,z)) = m(m(u,v,x),y,z) wherever both composites are declared."""
    return _associativity_failure(m) is None


def check_commutative(m: TernaryTable) -> bool:
    """m(x,y,z) = m(z,y,x) wherever both triples are declared."""
    T = m.table
    return first_violation((m.size,) * 3, [
        ("commutative", lambda x, y, z: (T[x, y, z] < 0) | (T[z, y, x] < 0)
         | (T[x, y, z] == T[z, y, x])),
    ]) is None


def _maltsev_rows(rows, n: int):
    """Which rows of a stack of flat full-domain ternary tables on n
    elements are Maltsev: compared at the 2n^2 triples (x,y,y) and (y,y,x)."""
    x, y = np.divmod(np.arange(n * n), n)
    return ((rows[:, (x * n + y) * n + y] == x) & (rows[:, (y * n + y) * n + x] == x)).all(axis=1)


def is_maltsev_table(values, size: int) -> bool:
    """Maltsev check on the values of a ternary operation, shape (size,)*3."""
    return bool(_maltsev_rows(np.reshape(values, (1, -1)), size)[0])


def find_maltsev_term(
    alg: FiniteAlgebra, budget: int = DEFAULT_CLONE_BUDGET
) -> TermOp | None:
    """First Maltsev member of the ternary clone in generation order.

    Returns None when the clone completes without one (a definite answer);
    CloneBudgetExceeded propagates and means "inconclusive".

    Reads the clone engine's blocks of new tables directly, tests each with
    one array comparison and builds a TermOp only for the first hit.  A
    block ends where the budget runs out, so a Maltsev table that comes
    before that point is returned rather than the budget error.  On 3
    elements the engine packs the 27 entries of a ternary table into six
    elements of A^5, evaluates a run of candidates, many argument prefixes
    at once, with one broadcast add and one gather from the operation's
    table on A^5, and looks each exact code up in a direct-mapped cache
    before the sorted codes of all stored tables.
    """
    if alg.size == 0:
        raise EmptyTorsor("empty algebra has no Maltsev structure to witness")
    for rows, term in _term_blocks(alg, _projections(alg.size, 3), budget):
        hit = np.flatnonzero(_maltsev_rows(rows, alg.size))
        if hit.size:
            return term(int(hit[0]))
    return None


@dataclass(frozen=True, eq=False)
class TorsorGroup:
    """Group extracted from an associative Maltsev operation.

    carrier: classes of T x T under (x,y) ~ (m(x,y,z), z); `sub` maps a
    pair to its class (-1 off the domain), `action` applies a class to a
    point.  The tables are read-only arrays: add (size, size), neg (size,),
    action (size, n) and sub (n, n) for the n points.
    """

    size: int
    add: np.ndarray
    neg: np.ndarray
    zero: int
    action: np.ndarray
    sub: np.ndarray
    abelian: bool

    __eq__ = same_tables

    def __post_init__(self):
        for attr in ("add", "neg", "action", "sub"):
            table = np.array(getattr(self, attr), dtype=np.int64)
            table.setflags(write=False)
            object.__setattr__(self, attr, table)

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "zero": self.zero,
            "add": self.add.tolist(),
            "neg": self.neg.tolist(),
            "action": self.action.tolist(),
            "sub": self.sub.tolist(),
            "abelian": self.abelian,
        }


def _coequaliser_group(m: TernaryTable, base) -> TorsorGroup:
    """Coequalise the pairs (x, y) with base[x] = base[y] under
    (x, y) ~ (m(x, y, z), z), z arbitrary, and read off the acting group.

    Sum of classes is (x-y)+(z-t) = m(x,y,z)-t, the inverse of x-y is y-x,
    and the class of (x,y) acts by z -> m(x,y,z).  The caller has checked
    that m is Maltsev and associative and that m(x,y,z) lies over z; every
    group and action identity is re-verified exhaustively before the group
    is returned.
    """
    n = m.size
    T = m.table
    P = np.asarray(base)
    pair = (P[:, None] == P).ravel()
    xs, ys = np.divmod(np.flatnonzero(pair), n)
    labels = np.arange(n * n)
    _merge(labels, np.repeat(xs * n + ys, n), (T[xs, ys, :] * n + np.arange(n)).ravel())
    # _merge keeps the least pair of each class as its root: classes are
    # numbered in the order of their roots, which are their representatives
    root = pair & (labels == np.arange(n * n))
    sub = np.where(pair, np.cumsum(root)[labels] - 1, -1).reshape(n, n)
    reps = np.divmod(np.flatnonzero(root), n)
    g = len(reps[0])
    zero = int(sub[0, 0]) if n else 0
    action = T[reps[0], reps[1], :]
    add = sub[action[:, reps[0]], reps[1]]
    neg = sub[reps[1], reps[0]]
    fibre = lambda x, y: sub[x, y] >= 0
    for sizes, laws in (
        ((n,), [("classes of diagonal pairs disagree", lambda x: sub[x, x] == zero)]),
        ((n,) * 4, [(
            "addition not well defined on classes",
            lambda x, y, z, t: ~(fibre(x, y) & fibre(z, t))
            | (sub[T[x, y, z], t] == add[sub[x, y], sub[z, t]]),
        )]),
        ((g,) * 3, [
            ("group unit fails", lambda a: (add[zero, a] == a) & (add[a, zero] == a)),
            ("group inverse fails", lambda a: (add[a, neg[a]] == zero) & (add[neg[a], a] == zero)),
            ("group associativity fails",
             lambda a, b, c: add[add[a, b], c] == add[a, add[b, c]]),
        ]),
        ((g, n), [("(g+x)-x = g fails", lambda i, z: sub[action[i, z], z] == i)]),
        ((n, n), [("(x-y)+y = x fails",
                   lambda x, y: ~fibre(x, y) | (action[sub[x, y], y] == x))]),
    ):
        hit = first_violation(sizes, laws)
        if hit is not None:
            raise InternalError(f"coequaliser: {hit[0]} at {hit[1]}")
    return TorsorGroup(g, add, neg, zero, action, sub, bool((add == add.T).all()))


def torsor_to_group(m: TernaryTable) -> TorsorGroup:
    """The group under which a full-domain table is a torsor: the group of
    `central_torsor_check` over the one-point base, whose mixed domain is
    the whole cube.  A commutative table must give an abelian group.
    """
    n = m.size
    if n <= 0:
        raise EmptyTorsor("torsor carrier must be non-empty")
    if m.kind != FULL:
        raise NotAHerd("torsor_to_group expects a full-domain table")
    point = (0,) * n
    report = central_torsor_check(FiniteAlgebra(n, ()), point,
                                  TernaryTable(n, MIXED, point, m.table))
    if not report.ok:
        raise NotAHerd(report.reason)
    if not report.group.abelian and check_commutative(m):
        raise InternalError("commutative table produced a non-abelian group")
    return report.group


@dataclass(frozen=True)
class CentralTorsorReport:
    ok: bool
    reason: str
    group: TorsorGroup | None
    witness: tuple | None


def restriction_violation(alg: FiniteAlgebra, cols, pv, ptab):
    """First (operation name, indices into the triples) at which the ternary
    table ptab, restricted to the triples cols = (X, Y, Z) where it takes the
    values pv, fails to commute with an operation of alg, or None.  The law
    kernel finds the lexicographically first failing tuple, in chunks."""
    X, Y, Z = cols
    for op in alg.ops:
        if op.arity == 0:
            continue  # m(c, c, c) = c for a Maltsev m
        f = op.values
        at = lambda col, idx: f[tuple(col[i] for i in idx)]
        hit = first_violation((len(pv),) * op.arity, [
            (op.name, lambda *idx: ptab[at(X, idx), at(Y, idx), at(Z, idx)] == at(pv, idx)),
        ])
        if hit is not None:
            return hit
    return None


def central_torsor_check(
    alg: FiniteAlgebra, p, m_ext: TernaryTable
) -> CentralTorsorReport:
    """Decide whether p: E ->> B carries a torsor structure under a constant group.

    Requires the mixed-domain table to satisfy the Maltsev and
    associativity identities, to be fibre-constant (p(m(x,y,z)) = p(z)) and
    to commute with every operation of the algebra on E; the last condition
    is what distinguishes a central extension from a merely abelian one
    once E carries structure.  On success the constant group is built as
    the quotient of E x_B E by (x,y) ~ (m(x,y,z), z) over *all* z, and the
    action identities are verified.

    This is the torsor decision of `torsor_to_group` (E with no operations
    over one point) and of `monoid.check_untwisted` (E a monoid with its
    translations as unary operations).
    """
    n = alg.size
    p = tuple(p)
    if len(p) != n:
        raise InvariantViolation("base-map-length", len(p))
    b = max(p) + 1 if n else 0
    if sorted(set(p)) != list(range(b)):
        raise InvariantViolation("base-map-surjective", p)
    if m_ext.kind != MIXED or m_ext.base != p:
        raise InvariantViolation("tern-kind-mixed", m_ext.kind)
    ker = Congruence.from_labels(p)
    if congruence_violation(alg, ker) is not None:
        raise InvariantViolation("base-map-kernel-congruence", p)

    if not check_maltsev(m_ext):
        return CentralTorsorReport(False, "table fails the Maltsev identities", None, None)
    P, T = np.asarray(p), m_ext.table
    hit = first_violation((n,) * 3, [
        ("fibre", lambda x, y, z: (T[x, y, z] < 0) | (P[T[x, y, z]] == P[z])),
    ])
    if hit is not None:
        return CentralTorsorReport(False, "value leaves the fibre of z", None, hit[1])
    witness = _associativity_failure(m_ext)
    if witness is not None:
        return CentralTorsorReport(False, "table fails associativity", None, witness)
    # homomorphism condition: the mixed domain is a subalgebra of E^3
    cols = m_ext.domain().T
    hit = restriction_violation(alg, cols, T[tuple(cols)], T)
    if hit is not None:
        name, idx = hit
        triples = tuple(tuple(cols[:, i].tolist()) for i in idx)
        return CentralTorsorReport(
            False, f"restriction is not a homomorphism (operation {name})", None, (name,) + triples)

    # constant group: quotient of E x_B E by (x,y) ~ (m(x,y,z), z), z arbitrary
    group = _coequaliser_group(m_ext, p)
    return CentralTorsorReport(True, "torsor under a constant group", group, None)

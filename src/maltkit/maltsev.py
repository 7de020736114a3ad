"""Maltsev operations, herds/torsors, and the torsor <-> group correspondence.

A TernaryTable is a candidate Maltsev operation given by explicit values.
Its domain is either the full cube, the fibre cube of a base map p
(p(x)=p(y)=p(z)), or the mixed domain p(x)=p(y) with z free; the mixed
variant is what a torsor under a constant group looks like fibrewise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_CLONE_BUDGET, FiniteAlgebra, TermOp, iter_term_ops, tuple_index
from .congruence import Congruence, _merge, congruence_violation
from .errors import (
    DomainError,
    EmptyTorsor,
    InternalError,
    InvariantViolation,
    NotAHerd,
)
from .laws import first_violation, require_range

FULL = "full"
FIBERED = "fibered"
MIXED = "mixed"


@dataclass(frozen=True)
class TernaryTable:
    size: int
    kind: str = FULL
    base: tuple[int, ...] | None = None
    entries: tuple[int, ...] = ()
    name: str = field(default="", compare=False)

    # entries are stored flat over the *declared* domain in lexicographic
    # order of the triples; `_table` holds them as an n x n x n array with
    # -1 outside the domain, which is what lookups and the law checks read.

    def __post_init__(self):
        if self.kind not in (FULL, FIBERED, MIXED):
            raise InvariantViolation("tern-kind", self.kind)
        if self.kind != FULL:
            if self.base is None or len(self.base) != self.size:
                raise InvariantViolation("tern-base-length", self.base)
        dom = list(self.domain())
        if len(self.entries) != len(dom):
            raise InvariantViolation(
                "tern-entries-length", (len(self.entries), len(dom))
            )
        require_range("tern-entry-range", self.entries, self.size)
        n = max(self.size, 0)
        table = np.full(n**3, -1)
        table[[(x * n + y) * n + z for x, y, z in dom]] = self.entries
        object.__setattr__(self, "_table", table.reshape(n, n, n))

    def domain(self):
        n = self.size
        if self.kind == FULL:
            return itertools.product(range(n), repeat=3)
        if self.kind == FIBERED:
            return (
                (x, y, z)
                for x in range(n)
                for y in range(n)
                if self.base[x] == self.base[y]
                for z in range(n)
                if self.base[y] == self.base[z]
            )
        return (
            (x, y, z)
            for x in range(n)
            for y in range(n)
            if self.base[x] == self.base[y]
            for z in range(n)
        )

    def defined(self, triple) -> bool:
        return all(0 <= v < self.size for v in triple) and self._table[tuple(triple)] >= 0

    def __call__(self, x: int, y: int, z: int) -> int:
        if not self.defined((x, y, z)):
            raise DomainError(f"triple {(x, y, z)} outside declared domain")
        return int(self._table[x, y, z])

    @classmethod
    def full_from_fn(cls, size: int, fn, name: str = "") -> "TernaryTable":
        entries = tuple(
            fn(x, y, z) for x, y, z in itertools.product(range(size), repeat=3)
        )
        return cls(size, FULL, None, entries, name)

    @classmethod
    def full_from_flat(cls, size: int, flat, name: str = "") -> "TernaryTable":
        return cls(size, FULL, None, tuple(flat), name)

    @classmethod
    def from_entries(cls, size, kind, base, mapping, name: str = "") -> "TernaryTable":
        """Build from a triple->value mapping which must cover the domain exactly."""
        if kind == FULL:
            dom = list(itertools.product(range(size), repeat=3))
        else:
            dummy = object.__new__(cls)
            object.__setattr__(dummy, "size", size)
            object.__setattr__(dummy, "kind", kind)
            object.__setattr__(dummy, "base", tuple(base))
            dom = list(dummy.domain())
        extra = set(mapping) - set(dom)
        if extra:
            raise DomainError(f"entries outside domain: {sorted(extra)[:3]}")
        missing = [t for t in dom if t not in mapping]
        if missing:
            raise InvariantViolation("tern-domain-covered", missing[:3])
        entries = tuple(mapping[t] for t in dom)
        return cls(size, kind, None if kind == FULL else tuple(base), entries, name)

    def to_json(self) -> dict:
        out = {"name": self.name, "size": self.size, "kind": self.kind}
        if self.base is not None:
            out["base"] = list(self.base)
        out["entries"] = [
            {"args": list(t), "value": self(t[0], t[1], t[2])} for t in self.domain()
        ]
        return out


def check_maltsev(m: TernaryTable) -> bool:
    """m(x,y,y) = x = m(y,y,x) on the declared domain."""
    T = m._table
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
    T = m._table

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
    T = m._table
    return first_violation((m.size,) * 3, [
        ("commutative", lambda x, y, z: (T[x, y, z] < 0) | (T[z, y, x] < 0)
         | (T[x, y, z] == T[z, y, x])),
    ]) is None


def is_maltsev_table(table, size: int) -> bool:
    """Maltsev check on a flat full-domain table without building a TernaryTable."""
    n = size
    for x in range(n):
        for y in range(n):
            if table[tuple_index(n, (x, y, y))] != x:
                return False
            if table[tuple_index(n, (y, y, x))] != x:
                return False
    return True


def find_maltsev_term(
    alg: FiniteAlgebra, budget: int = DEFAULT_CLONE_BUDGET
) -> TermOp | None:
    """First Maltsev member of the ternary clone in generation order.

    Returns None when the clone completes without one (a definite answer);
    CloneBudgetExceeded propagates and means "inconclusive".
    """
    if alg.size == 0:
        raise EmptyTorsor("empty algebra has no Maltsev structure to witness")
    for t in iter_term_ops(alg, 3, budget):
        if is_maltsev_table(t.table, alg.size):
            return t
    return None


@dataclass(frozen=True)
class TorsorGroup:
    """Group extracted from an associative Maltsev operation.

    carrier: classes of T x T under (x,y) ~ (m(x,y,z), z); `sub` maps a
    pair to its class, `action` applies a class to a point.
    """

    size: int
    add: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    zero: int
    action: tuple[tuple[int, ...], ...]
    sub: tuple[tuple[int, ...], ...]
    abelian: bool

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "zero": self.zero,
            "add": [list(r) for r in self.add],
            "neg": list(self.neg),
            "action": [list(r) for r in self.action],
            "sub": [list(r) for r in self.sub],
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
    T = m._table
    pairs = [(x, y) for x in range(n) for y in range(n) if base[x] == base[y]]
    labels = np.arange(n * n)
    if pairs:
        xs, ys = np.array(pairs).T
        _merge(labels, np.repeat(xs * n + ys, n), (T[xs, ys, :] * n + np.arange(n)).ravel())
    labels = labels.tolist()
    classes: dict[int, int] = {}
    reps = []
    sub = np.full((n, n), -1)
    for x, y in pairs:
        root = labels[x * n + y]
        if root not in classes:
            classes[root] = len(reps)
            reps.append((x, y))
        sub[x, y] = classes[root]
    reps = np.array(reps).reshape(-1, 2)
    g = len(reps)
    zero = int(sub[0, 0]) if n else 0
    action = T[reps[:, 0], reps[:, 1], :]
    add = sub[action[:, reps[:, 0]], reps[:, 1]]
    neg = sub[reps[:, 1], reps[:, 0]]
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
    return TorsorGroup(
        g,
        tuple(map(tuple, add.tolist())),
        tuple(neg.tolist()),
        zero,
        tuple(map(tuple, action.tolist())),
        tuple(map(tuple, sub.tolist())),
        bool((add == add.T).all()),
    )


def torsor_to_group(m: TernaryTable, require_commutative: bool = False) -> TorsorGroup:
    """Coequalise (x,y) ~ (m(x,y,z), z) and read off the acting group.

    Sum of classes is (x-y)+(z-t) = m(x,y,z)-t, the inverse of x-y is y-x,
    and the class of (x,y) acts by z -> m(x,y,z).  Every identity is
    re-verified exhaustively before the group is returned.
    """
    n = m.size
    if n <= 0:
        raise EmptyTorsor("torsor carrier must be non-empty")
    if m.kind != FULL:
        raise NotAHerd("torsor_to_group expects a full-domain table")
    if not check_maltsev(m):
        raise NotAHerd("table fails the Maltsev identities")
    if not check_associative(m):
        raise NotAHerd("table fails associativity")
    commutative = check_commutative(m)
    if require_commutative and not commutative:
        raise NotAHerd("table is not commutative")
    group = _coequaliser_group(m, (0,) * n)
    if require_commutative and commutative and not group.abelian:
        raise InternalError("commutative table produced a non-abelian group")
    return group


def reconstruct_table(group: TorsorGroup) -> TernaryTable:
    """The operation (x-y)+z recovered from a torsor group."""
    n = len(group.sub)
    return TernaryTable.full_from_fn(
        n, lambda x, y, z: group.action[group.sub[x][y]][z]
    )


def _abstract_groups(n: int):
    """Addition tables of the abelian groups of order n <= 4 (one per iso class)."""
    def cyclic(k):
        return [[(a + b) % k for b in range(k)] for a in range(k)]

    if n == 4:
        klein = [[a ^ b for b in range(4)] for a in range(4)]
        return [cyclic(4), klein]
    return [cyclic(n)]


def enumerate_herds(size: int) -> tuple[TernaryTable, ...]:
    """All associative Maltsev tables on a carrier of the given size (size <= 4).

    Complete by the torsor <-> group correspondence: every such table is
    phi^-1(phi(x) - phi(y) + phi(z)) for a group structure transported
    along a bijection phi, so enumerating groups and bijections and
    de-duplicating tables is exhaustive.
    """
    if size <= 0:
        raise EmptyTorsor("herd carrier must be non-empty")
    if size > 4:
        raise InvariantViolation("herd-enumeration-cap", size)
    tables = set()
    for add in _abstract_groups(size):
        neg = [0] * size
        for a in range(size):
            for b in range(size):
                if add[a][b] == 0:
                    neg[a] = b
        for phi in itertools.permutations(range(size)):
            inv = [0] * size
            for i, v in enumerate(phi):
                inv[v] = i
            flat = tuple(
                inv[add[add[phi[x]][neg[phi[y]]]][phi[z]]]
                for x, y, z in itertools.product(range(size), repeat=3)
            )
            tables.add(flat)
    return tuple(
        TernaryTable.full_from_flat(size, t) for t in sorted(tables)
    )


@dataclass(frozen=True)
class CentralTorsorReport:
    ok: bool
    reason: str
    group: TorsorGroup | None
    witness: tuple | None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
            "group": self.group.to_json() if self.group is not None else None,
        }


def restriction_violation(alg: FiniteAlgebra, cols, pv, ptab):
    """First (operation name, indices into the triples) at which the ternary
    table ptab, restricted to the triples cols = (X, Y, Z) where it takes the
    values pv, fails to commute with an operation of alg, or None.  The law
    kernel finds the lexicographically first failing tuple, in chunks."""
    X, Y, Z = cols
    for op in alg.ops:
        if op.arity == 0:
            continue  # m(c, c, c) = c for a Maltsev m
        f = alg.op_array(op)
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
        return CentralTorsorReport(False, "maltsev identity fails", None, None)
    P, T = np.asarray(p), m_ext._table
    hit = first_violation((n,) * 3, [
        ("fibre", lambda x, y, z: (T[x, y, z] < 0) | (P[T[x, y, z]] == P[z])),
    ])
    if hit is not None:
        return CentralTorsorReport(False, "value leaves the fibre of z", None, hit[1])
    witness = _associativity_failure(m_ext)
    if witness is not None:
        return CentralTorsorReport(False, "associativity fails", None, witness)
    # homomorphism condition: the mixed domain is a subalgebra of E^3
    cols = np.array(list(m_ext.domain()), dtype=np.int64).reshape(-1, 3).T
    hit = restriction_violation(alg, cols, T[tuple(cols)], T)
    if hit is not None:
        name, idx = hit
        triples = tuple(tuple(cols[:, i].tolist()) for i in idx)
        return CentralTorsorReport(
            False, f"restriction is not a homomorphism (operation {name})", None, (name,) + triples)

    # constant group: quotient of E x_B E by (x,y) ~ (m(x,y,z), z), z arbitrary
    group = _coequaliser_group(m_ext, p)
    return CentralTorsorReport(True, "torsor under a constant group", group, None)

"""Natural systems on finite monoids, trivial extensions, linear-extension
and untwistedness checks, and the built-in non-abelian-unit counterexample.

A natural system assigns an abelian group D_x to every monoid element and
additive actions x(-): D_y -> D_{xy}, (-)y: D_x -> D_{xy} subject to the
three mixed associativity equations (plus unitality).  A linear extension
is a surjective monoid map whose fibres are free transitive D_b-sets
satisfying the subtraction identities

    e1 e2 - e1 e2' = P(e1)(e2 - e2'),   e1 e2 - e1' e2 = (e1 - e1') P(e2).

An extension is untwisted when a commutative family of torsor operations
on the fibres commutes with multiplication; `check_untwisted` decides each
candidate family by `maltsev.central_torsor_check` on the total monoid as
an algebra of its left and right translations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup, isomorphisms
from .errors import (
    CounterexampleBroken,
    InternalError,
    InvariantViolation,
    SearchBudgetExceeded,
)
from .algebra import FiniteAlgebra, Operation, same_tables
from .laws import as_table, first_violation, require
from .maltsev import (
    FIBERED,
    MIXED,
    TernaryTable,
    _associativity_failure,
    central_torsor_check,
    check_commutative,
)

UNTWISTED_FIBER_CAP = 8


@dataclass(frozen=True, eq=False)
class FiniteMonoid:
    size: int
    unit: int
    multiplication: np.ndarray  # (size, size)
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        n = self.size
        mul = as_table(self.multiplication, (n, n), n, "monoid-entry", "monoid-table-length")
        object.__setattr__(self, "multiplication", mul)
        if not 0 <= self.unit < n:
            raise InvariantViolation("monoid-unit-range", self.unit)
        e = self.unit
        require((n, n, n), [
            ("monoid-unit", lambda a: (mul[e, a] == a) & (mul[a, e] == a)),
            ("monoid-associative", lambda a, b, c: mul[mul[a, b], c] == mul[a, mul[b, c]]),
        ])

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "unit": self.unit,
            "mul": self.multiplication.ravel().tolist(),
        }


@dataclass(frozen=True, eq=False)
class NaturalSystemOnMonoid:
    """Groups D_x with left maps left[b][x]: D_x -> D_{bx} and right maps
    right[x][b]: D_x -> D_{xb}, each a (|D_x|,) array."""

    monoid: FiniteMonoid
    groups: tuple[AbelianGroup, ...]
    left: tuple[tuple[np.ndarray, ...], ...]
    right: tuple[tuple[np.ndarray, ...], ...]
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        mon = self.monoid
        n, mul = mon.size, mon.multiplication
        if len(self.groups) != n or len(self.left) != n or len(self.right) != n:
            raise InvariantViolation("natsys-shape", None)
        left, right = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)]
        for b in range(n):
            for x in range(n):
                size = (self.groups[x].size,)
                left[b][x] = as_table(self.left[b][x], size, self.groups[mul[b, x]].size,
                                      "natsys-left-range", ("natsys-left-length", (b, x)), (b, x))
                right[x][b] = as_table(
                    self.right[x][b], size, self.groups[mul[x, b]].size,
                    "natsys-right-range", ("natsys-right-length", (x, b)), (x, b))
        object.__setattr__(self, "left", tuple(map(tuple, left)))
        object.__setattr__(self, "right", tuple(map(tuple, right)))
        # additivity
        add = [g.addition for g in self.groups]
        for b in range(n):
            for x in range(n):
                for law, amap, y, witness in (
                    ("natsys-left-additive", left[b][x], mul[b, x], (b, x)),
                    ("natsys-right-additive", right[x][b], mul[x, b], (x, b)),
                ):
                    hit = first_violation((self.groups[x].size,) * 2, [
                        (law, lambda d1, d2: amap[add[x][d1, d2]] == add[y][amap[d1], amap[d2]]),
                    ])
                    if hit is not None:
                        raise InvariantViolation(law, witness + hit[1])
        # unitality and the three compatibility equations
        e = mon.unit
        for x in range(n):
            ident = np.arange(self.groups[x].size)
            if not np.array_equal(left[e][x], ident):
                raise InvariantViolation("natsys-left-unital", x)
            if not np.array_equal(right[x][e], ident):
                raise InvariantViolation("natsys-right-unital", x)
        for b1, b2, x in itertools.product(range(n), repeat=3):
            hit = first_violation((self.groups[x].size,), [
                # (b1 b2) d = b1 (b2 d)
                ("natsys-left-compose",
                 lambda d: left[mul[b1, b2]][x][d] == left[b1][mul[b2, x]][left[b2][x][d]]),
                # (d b1) b2 = d (b1 b2)
                ("natsys-right-compose",
                 lambda d: right[mul[x, b1]][b2][right[x][b1][d]] == right[x][mul[b1, b2]][d]),
                # (b1 d) b2 = b1 (d b2)
                ("natsys-mixed-compose",
                 lambda d: right[mul[b1, x]][b2][left[b1][x][d]]
                 == left[b1][mul[x, b2]][right[x][b2][d]]),
            ])
            if hit is not None:
                law, (d,) = hit
                raise InvariantViolation(law, {
                    "natsys-left-compose": (b1, b2, x, d),
                    "natsys-right-compose": (x, b1, b2, d),
                    "natsys-mixed-compose": (b1, x, b2, d),
                }[law])


@dataclass(frozen=True, eq=False)
class MonoidExtension:
    """Surjective monoid map with fibrewise actions of the natural system.

    proj is a (|total|,) array and actions[b] a (|D_b|, |fibre(b)|) array of
    total elements.
    Construction validates shapes, that proj is a unital homomorphism and
    the action axioms; freeness/transitivity and the subtraction
    identities are the business of check_linear_extension.
    """

    total: FiniteMonoid
    base: FiniteMonoid
    proj: np.ndarray
    system: NaturalSystemOnMonoid
    actions: tuple[np.ndarray, ...]
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        if self.system.monoid != self.base:
            raise InvariantViolation("extension-system-base", None)
        if len(self.proj) != self.total.size:
            raise InvariantViolation("extension-proj-length", len(self.proj))
        if set(self.proj) != set(range(self.base.size)):
            raise InvariantViolation("extension-proj-surjective", None)
        if self.proj[self.total.unit] != self.base.unit:
            raise InvariantViolation("extension-proj-unit", None)
        N, B = self.total.size, self.base.size
        # the checks above leave no entry out of range for as_table to report
        proj = as_table(self.proj, (N,), B, None, None)
        object.__setattr__(self, "proj", proj)
        tmul, bmul = self.total.multiplication, self.base.multiplication
        require((N, N), [
            ("extension-proj-hom", lambda a, b: proj[tmul[a, b]] == bmul[proj[a], proj[b]]),
        ])
        # the fibres, and the position of each element in its fibre
        fibres = tuple(np.flatnonzero(proj == b) for b in range(B))
        pos = np.zeros(N, dtype=np.int64)
        actions = []
        for b, fib in enumerate(fibres):
            g = self.system.groups[b]
            table = as_table(self.actions[b], (g.size, fib.size), N, "extension-action-entry",
                             ("extension-action-length", b))
            actions.append(table)
            gadd = g.addition
            pos[fib] = np.arange(fib.size)
            hit = first_violation((g.size, fib.size), [
                ("extension-action-fiber", lambda d, i: proj[table[d, i]] == b),
            ])
            if hit is not None:
                law, (d, i) = hit
                raise InvariantViolation(law, (b, d, int(fib[i])))
            hit = first_violation((fib.size, g.size, g.size), [
                ("extension-action-zero", lambda i: table[g.zero, i] == fib[i]),
                ("extension-action-sum",
                 lambda i, d1, d2: table[gadd[d1, d2], i] == table[d1, pos[table[d2, i]]]),
            ])
            if hit is not None:
                law, (i, *ds) = hit
                raise InvariantViolation(law, (b, *ds, int(fib[i])))
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "_fibres", fibres)

    def fiber(self, b: int) -> np.ndarray:
        """The elements over b, ascending."""
        return self._fibres[b]

    def to_json(self):
        return {
            "name": self.name,
            "total": self.total.to_json(),
            "base": self.base.to_json(),
            "proj": self.proj.tolist(),
            "actions": [t.ravel().tolist() for t in self.actions],
        }


def trivial_extension(mon: FiniteMonoid, system: NaturalSystemOnMonoid,
                      name: str = "") -> MonoidExtension:
    """The split extension: carrier the disjoint union of the D_x, product
    (x1, d1)(x2, d2) = (x1 x2, d1 x2 + x1 d2), fibre actions by addition."""
    if system.monoid != mon:
        raise InvariantViolation("system-monoid-mismatch", None)
    n, groups = mon.size, system.groups
    sizes = np.array([g.size for g in groups])
    offset = np.cumsum(sizes) - sizes
    proj = np.repeat(np.arange(n), sizes)
    d = np.arange(proj.size) - offset[proj]
    left = _padded([m for row in system.left for m in row]).reshape(n, n, -1)
    right = _padded([m for row in system.right for m in row]).reshape(n, n, -1)
    add = _padded([g.addition.ravel() for g in groups])
    x1, d1, x2, d2 = proj[:, None], d[:, None], proj[None], d[None]
    x = mon.multiplication[x1, x2]
    # d1 x2 + x1 d2, read from the flat addition table of D_x
    mul = offset[x] + add[x, right[x1, x2, d1] * sizes[x] + left[x1, x2, d2]]
    total = FiniteMonoid(
        proj.size,
        int(offset[mon.unit]) + groups[mon.unit].zero,
        mul,
        name=name or f"{mon.name}:semidirect",
    )
    actions = tuple(offset[b] + g.addition for b, g in enumerate(groups))
    ext = MonoidExtension(total, mon, proj, system, actions, name=name)
    rep = check_linear_extension(ext)
    if not rep.ok:
        raise InternalError(f"trivial extension failed its own check: {rep.reason}")
    return ext


@dataclass(frozen=True)
class LinearExtReport:
    ok: bool
    reason: str
    witness: tuple | None

    def to_json(self):
        return {
            "ok": self.ok,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _padded(rows):
    """Ragged integer rows as one array, padded with -1."""
    out = np.full((len(rows), max(map(len, rows))), -1, dtype=np.int64)
    for r, row in enumerate(rows):
        out[r, :len(row)] = row
    return out


def _subtraction_tables(ext: MonoidExtension):
    """sub[e, e'] = the unique d with d + e' = e for e, e' in one fibre, -1
    for e, e' in different fibres; None and (b, reason) if the action of
    D_b is not free and transitive.  With |D_b| = |fibre| a free action is
    transitive, so only freeness is tested."""
    N = ext.total.size
    sub = np.full((N, N), -1, dtype=np.int64)
    for b, fib in enumerate(ext._fibres):
        g = ext.system.groups[b]
        if g.size != len(fib):
            return None, (b, "fibre size differs from group order")
        sub[ext.actions[b], fib] = np.arange(g.size)[:, None]
        if (sub[np.ix_(fib, fib)] < 0).any():
            return None, (b, "action is not free")
    return sub, None


def check_linear_extension(ext: MonoidExtension) -> LinearExtReport:
    """Free transitive fibre actions plus both subtraction identities,
    quantified over (e, b, i, j) with i, j positions in the fibre over b."""
    sub, bad = _subtraction_tables(ext)
    if sub is None:
        return LinearExtReport(False, bad[1], (bad[0],))
    N, B, sys_ = ext.total.size, ext.base.size, ext.system
    P, F, tmul = ext.proj, _padded(ext._fibres), ext.total.multiplication
    left = _padded([m for row in sys_.left for m in row]).reshape(B, B, -1)
    right = _padded([m for row in sys_.right for m in row]).reshape(B, B, -1)
    outside = lambda b, i, j: (F[b, i] < 0) | (F[b, j] < 0)
    for reason, holds, witness in (
        ("left subtraction identity fails", lambda e1, b, i, j: outside(b, i, j) | (
            sub[tmul[e1, F[b, i]], tmul[e1, F[b, j]]] == left[P[e1], b, sub[F[b, i], F[b, j]]]),
         lambda e1, e2, e2p: (e1, e2, e2p)),
        ("right subtraction identity fails", lambda e2, b, i, j: outside(b, i, j) | (
            sub[tmul[F[b, i], e2], tmul[F[b, j], e2]] == right[b, P[e2], sub[F[b, i], F[b, j]]]),
         lambda e2, e1, e1p: (e1, e1p, e2)),
    ):
        hit = first_violation((N, B, F.shape[1], F.shape[1]), [(reason, holds)])
        if hit is not None:
            e, b, i, j = hit[1]
            return LinearExtReport(False, reason, witness(e, int(F[b, i]), int(F[b, j])))
    return LinearExtReport(True, "linear extension", None)


@dataclass(frozen=True)
class UntwistedReport:
    found: bool
    family: tuple | None  # entries ((f1, f2, f), value)
    reason: str

    def to_json(self):
        return {
            "found": self.found,
            "reason": self.reason,
            "family": [
                {"args": list(k), "value": v} for k, v in (self.family or ())
            ],
        }


def check_untwisted(ext: MonoidExtension) -> UntwistedReport:
    """Search for a commutative associative Maltsev family on the hom-set.

    Any valid family m determines base-point isomorphisms
    phi_{b,b'}(f1 - f2) = m(f1, f2, f) - f with phi_{b,b} = id and the
    cocycle rule, so it is induced by a tuple of isomorphisms
    psi_b: D_{b0} -> D_b; the search over those tuples is therefore
    exhaustive.  A candidate family is accepted when it is commutative and
    `central_torsor_check` finds it a torsor over the base on the total
    monoid with its left and right translations as unary operations:
    equivariance is commuting with the translations.
    """
    pre = check_linear_extension(ext)
    if not pre.ok:
        raise InvariantViolation("untwisted-requires-linear-extension", pre.reason)
    base, total, sys_ = ext.base, ext.total, ext.system
    for g in sys_.groups:
        if g.size > UNTWISTED_FIBER_CAP:
            raise SearchBudgetExceeded(
                f"fibre size {g.size} exceeds the cap {UNTWISTED_FIBER_CAP}"
            )
    sub, _ = _subtraction_tables(ext)
    b0 = 0
    iso_choices = []
    for b in range(base.size):
        if b == b0:
            iso_choices.append([tuple(range(sys_.groups[b0].size))])
            continue
        isos = isomorphisms(sys_.groups[b0], sys_.groups[b])
        if not isos:
            return UntwistedReport(
                False, None, f"fibres over {b0} and {b} are not isomorphic"
            )
        iso_choices.append(isos)

    # every fibre now has |D_b0| elements, so the fibres and actions stack
    N, P, tmul = total.size, ext.proj, total.multiplication
    fibres, act = np.stack(ext._fibres), np.stack(ext.actions)
    pos = np.empty(N, dtype=np.int64)
    pos[fibres] = np.arange(fibres.shape[1])
    f1, f2, f = np.nonzero(np.broadcast_to((P[:, None] == P)[:, :, None], (N,) * 3))
    proj = tuple(P.tolist())
    translations = FiniteAlgebra(N, tuple(
        Operation(f"{side}{g}", 1, row)
        for side, table in (("left", tmul), ("right", tmul.T)) for g, row in enumerate(table)))
    for psi in map(np.array, itertools.product(*iso_choices)):
        # transport f1 - f2 along psi_b^-1 then psi_{b'}
        inverse = np.argsort(psi, axis=1)
        values = act[P[f], psi[P[f], inverse[P[f1], sub[f1, f2]]], pos[f]]
        m = TernaryTable(N, MIXED, proj, values)
        if check_commutative(m) and central_torsor_check(translations, proj, m).ok:
            domain = map(tuple, np.transpose([f1, f2, f]).tolist())
            return UntwistedReport(
                True, tuple(zip(domain, values.tolist())), "untwisted family found")
    return UntwistedReport(False, None, "no equivariant family exists")


# --- the built-in counterexample -------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    """Record of the multiplicative-monoid counterexample: a linear
    extension of monoid theories whose unit map is not abelian."""

    base_names: tuple[str, ...]
    total_names: tuple[str, ...]
    products: tuple  # ((name1, name2), product name) for non-unit elements
    s_names: tuple[str, ...]
    action: tuple  # ((total name, s name), s name)
    candidates: int
    forced_value: str
    forced_in_all: bool
    associative_count: int
    chain: tuple  # ((expr, value), ...)
    violations: tuple  # per candidate: (index, (u,v,x,y,z) witness as names)

    def to_json(self):
        return {
            "base": list(self.base_names),
            "total": list(self.total_names),
            "products": [
                {"left": a, "right": b, "value": v} for (a, b), v in self.products
            ],
            "s_elements": list(self.s_names),
            "action": [
                {"g": g, "s": s, "value": v} for (g, s), v in self.action
            ],
            "candidates": self.candidates,
            "forced_value": self.forced_value,
            "forced_in_all": self.forced_in_all,
            "associative_count": self.associative_count,
            "chain": [{"expr": e, "value": v} for e, v in self.chain],
            "violations": [
                {"candidate": i, "witness": list(w)} for i, w in self.violations
            ],
        }

    def golden_text(self) -> str:
        lines = []
        lines.append("two-element multiplicative monoid, extended by D_1 = 0, "
                     "D_0 = Z/2 x Z/2 with 0(x,y) = (y,y), (x,y)0 = (0,0)")
        lines.append("total monoid: {" + ", ".join(self.total_names) + "}")
        lines.append("products (unit omitted):")
        for (a, b), v in self.products:
            lines.append(f"  {a}.{b} = {v}")
        lines.append("left action on S = {" + ", ".join(self.s_names) + "}"
                     " (00 and 10 identified as *0):")
        for (g, s), v in self.action:
            lines.append(f"  {g}.{s} = {v}")
        lines.append(f"maltsev equivariant candidates: {self.candidates}")
        lines.append(f"forced value m(*0,01,11) = {self.forced_value}"
                     f" in all candidates: {self.forced_in_all}")
        lines.append(f"associative candidates: {self.associative_count}")
        lines.append("obstruction chain:")
        for e, v in self.chain:
            lines.append(f"  {e} = {v}")
        lines.append("first associativity violation per candidate (u,v,x,y,z):")
        for i, w in self.violations:
            lines.append(f"  candidate {i}: " + " ".join(w))
        return "\n".join(lines) + "\n"


def counterexample_monoid() -> tuple[FiniteMonoid, NaturalSystemOnMonoid]:
    """The two-element multiplicative monoid {1,0} with D_1 = 0 and
    D_0 = Z/2 + Z/2, left action (x,y) |-> (y,y), right action zero."""
    mon = FiniteMonoid(2, 0, (0, 1, 1, 1), name="M2")
    d0 = AbelianGroup.trivial()
    klein = AbelianGroup(
        4, tuple((a // 2 ^ b // 2) * 2 + (a % 2 ^ b % 2) for a in range(4) for b in range(4))
    )
    id1 = (0,)
    id4 = (0, 1, 2, 3)
    zero_to_four = (0,)
    left = (
        (id1, id4),  # unit acts trivially
        (zero_to_four, tuple((d % 2) * 2 + (d % 2) for d in range(4))),  # 0(x,y)=(y,y)
    )
    right = (
        (id1, zero_to_four),  # maps out of D_1
        (id4, (0, 0, 0, 0)),  # (x,y)0 = (0,0)
    )
    system = NaturalSystemOnMonoid(mon, (d0, klein), left, right, name="D")
    return mon, system


def counterexample_harness() -> CounterexampleReport:
    """Reproduce the counterexample end to end and assert its key facts.

    Build the five-element total monoid, identify 00 ~ 10 into the set
    S = {1, *0, 01, 11}, enumerate every equivariant Maltsev operation on
    S over the base fibration by backtracking with constraint propagation,
    and verify that all of them take the forced value at (*0, 01, 11) and
    that none is associative.
    """
    mon, system = counterexample_monoid()
    ext = trivial_extension(mon, system, name="MxD")
    total = ext.total
    # naming: fibre over the unit is "1"; fibre over 0 consists of pairs xy
    total_names = ("1", "00", "01", "10", "11")
    # element e = 1 + d where d = 2x + y; name accordingly
    def tname(e):
        if e == 0:
            return "1"
        d = e - 1
        return f"{d // 2}{d % 2}"
    if tuple(tname(e) for e in range(5)) != total_names:
        raise CounterexampleBroken("unexpected element naming")

    expected = {}
    for a in ("00", "10", "01", "11"):
        expected[(a, "00")] = "00"
        expected[(a, "10")] = "00"
        expected[(a, "01")] = "11"
        expected[(a, "11")] = "11"
    products = []
    name_to_idx = {tname(e): e for e in range(5)}
    mul = total.multiplication.tolist()  # a list for the scalar loops
    for (a, b), want in sorted(expected.items()):
        got = tname(mul[name_to_idx[a]][name_to_idx[b]])
        if got != want:
            raise CounterexampleBroken(f"product {a}.{b} = {got}, expected {want}")
        products.append(((a, b), got))

    # S: identify 00 ~ 10; class order 1, *0, 01, 11
    s_names = ("1", "*0", "01", "11")
    cls = {0: 0, name_to_idx["00"]: 1, name_to_idx["10"]: 1,
           name_to_idx["01"]: 2, name_to_idx["11"]: 3}
    rep = {0: 0, 1: name_to_idx["00"], 2: name_to_idx["01"], 3: name_to_idx["11"]}
    act = {}
    for g in range(5):
        for s in range(4):
            v1 = cls[mul[g][rep[s]]]
            # well-definedness across the identified pair
            alts = [e for e in range(5) if cls[e] == s]
            for e in alts:
                if cls[mul[g][e]] != v1:
                    raise CounterexampleBroken("action not well defined on classes")
            act[(g, s)] = v1
    for (gname, sname, want) in (("10", "*0", "*0"), ("10", "01", "11"), ("10", "11", "11")):
        if s_names[act[(name_to_idx[gname], s_names.index(sname))]] != want:
            raise CounterexampleBroken(f"action {gname}.{sname} != {want}")
    action = tuple(
        ((tname(g), s_names[s]), s_names[act[(g, s)]])
        for g in range(5)
        for s in range(4)
    )

    eta = (0, 1, 1, 1)  # S -> M
    fibers = {0: (0,), 1: (1, 2, 3)}
    domain = [
        (x, y, z)
        for x in range(4)
        for y in range(4)
        for z in range(4)
        if eta[x] == eta[y] == eta[z]
    ]
    forced: dict = {}
    for x in range(4):
        for y in range(4):
            if eta[x] != eta[y]:
                continue
            forced[(x, y, y)] = x
            forced[(y, y, x)] = x

    free_slots = [t for t in domain if t not in forced]

    def propagate(assign):
        """Close under equivariance; return None on conflict."""
        state = dict(assign)
        changed = True
        while changed:
            changed = False
            for (x, y, z), v in list(state.items()):
                for g in range(5):
                    tx, ty, tz = act[(g, x)], act[(g, y)], act[(g, z)]
                    tv = act[(g, v)]
                    cur = state.get((tx, ty, tz))
                    if cur is None:
                        state[(tx, ty, tz)] = tv
                        changed = True
                    elif cur != tv:
                        return None
        return state

    base_state = propagate(forced)
    if base_state is None:
        raise CounterexampleBroken("forced assignments already conflict")

    candidates = []

    def search(state):
        missing = [t for t in free_slots if t not in state]
        if not missing:
            candidates.append({t: state[t] for t in domain})
            return
        slot = missing[0]
        for v in range(4):
            if eta[v] != eta[slot[2]]:
                continue
            nxt = propagate({**state, slot: v})
            if nxt is not None:
                search(nxt)

    search(base_state)
    if not candidates:
        raise CounterexampleBroken("no equivariant Maltsev candidates found")

    star0, o01, o11 = 1, 2, 3
    forced_value = s_names[star0]
    forced_in_all = all(c[(star0, o01, o11)] == star0 for c in candidates)
    if not forced_in_all:
        raise CounterexampleBroken("forced value fails in some candidate")

    chain = (
        ("m(11,*0,*0)", s_names[candidates[0][(o11, star0, star0)]]),
        ("m(*0,01,11)", s_names[candidates[0][(star0, o01, o11)]]),
        ("m(01,*0,*0)", s_names[candidates[0][(o01, star0, star0)]]),
        ("m(11,11,m(01,*0,*0))", s_names[candidates[0][(o11, o11, candidates[0][(o01, star0, star0)])]]),
    )
    # associativity would force m(11,*0,*0) = m(11, m(*0,01,11), *0)
    # = m(11,11,m(01,*0,*0)), i.e. 11 = 01

    assoc_count = 0
    violations = []
    for i, cand in enumerate(candidates):
        witness = _associativity_failure(TernaryTable.from_entries(4, FIBERED, eta, cand))
        if witness is None:
            assoc_count += 1
        else:
            violations.append((i, tuple(s_names[w] for w in witness)))
    if assoc_count != 0:
        raise CounterexampleBroken("an associative candidate exists")

    return CounterexampleReport(
        ("1", "0"),
        total_names,
        tuple(products),
        s_names,
        action,
        len(candidates),
        forced_value,
        forced_in_all,
        0,
        chain,
        tuple(violations),
    )

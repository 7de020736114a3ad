"""Natural systems on finite monoids, trivial extensions, linear-extension
and untwistedness checks, and the built-in non-abelian-unit counterexample.

A natural system assigns an abelian group D_x to every monoid element and
additive actions x(-): D_y -> D_{xy}, (-)y: D_x -> D_{xy} subject to the
three mixed associativity equations (plus unitality).  A linear extension
is a surjective monoid map whose fibres are free transitive D_b-sets
satisfying the subtraction identities

    e1 e2 - e1 e2' = P(e1)(e2 - e2'),   e1 e2 - e1' e2 = (e1 - e1') P(e2).
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
from .laws import first_violation, require, require_range
from .maltsev import (
    FIBERED,
    MIXED,
    TernaryTable,
    _associativity_failure,
    check_associative,
    check_commutative,
    check_maltsev,
)

UNTWISTED_FIBER_CAP = 8


@dataclass(frozen=True)
class FiniteMonoid:
    size: int
    unit: int
    mul: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        n = self.size
        if len(self.mul) != n * n:
            raise InvariantViolation("monoid-table-length", len(self.mul))
        require_range("monoid-entry", self.mul, n)
        if not 0 <= self.unit < n:
            raise InvariantViolation("monoid-unit-range", self.unit)
        mul, e = np.reshape(self.mul, (n, n)), self.unit
        require((n, n, n), [
            ("monoid-unit", lambda a: (mul[e, a] == a) & (mul[a, e] == a)),
            ("monoid-associative", lambda a, b, c: mul[mul[a, b], c] == mul[a, mul[b, c]]),
        ])

    def mulv(self, a: int, b: int) -> int:
        return self.mul[a * self.size + b]

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "unit": self.unit,
            "mul": list(self.mul),
        }


@dataclass(frozen=True)
class NaturalSystemOnMonoid:
    """Groups D_x with left maps left[b][x]: D_x -> D_{bx} and right maps
    right[x][b]: D_x -> D_{xb}."""

    monoid: FiniteMonoid
    groups: tuple[AbelianGroup, ...]
    left: tuple[tuple[tuple[int, ...], ...], ...]
    right: tuple[tuple[tuple[int, ...], ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        mon = self.monoid
        n = mon.size
        if len(self.groups) != n or len(self.left) != n or len(self.right) != n:
            raise InvariantViolation("natsys-shape", None)
        for b in range(n):
            for x in range(n):
                lmap = self.left[b][x]
                if len(lmap) != self.groups[x].size:
                    raise InvariantViolation("natsys-left-length", (b, x))
                tgt = self.groups[mon.mulv(b, x)]
                for v in lmap:
                    if not 0 <= v < tgt.size:
                        raise InvariantViolation("natsys-left-range", (b, x, v))
                rmap = self.right[x][b]
                if len(rmap) != self.groups[x].size:
                    raise InvariantViolation("natsys-right-length", (x, b))
                tgt = self.groups[mon.mulv(x, b)]
                for v in rmap:
                    if not 0 <= v < tgt.size:
                        raise InvariantViolation("natsys-right-range", (x, b, v))
        # additivity
        left = [[np.asarray(m) for m in row] for row in self.left]
        right = [[np.asarray(m) for m in row] for row in self.right]
        add = [np.reshape(g.add, (g.size, g.size)) for g in self.groups]
        for b in range(n):
            for x in range(n):
                for law, amap, y, witness in (
                    ("natsys-left-additive", left[b][x], mon.mulv(b, x), (b, x)),
                    ("natsys-right-additive", right[x][b], mon.mulv(x, b), (x, b)),
                ):
                    hit = first_violation((self.groups[x].size,) * 2, [
                        (law, lambda d1, d2: amap[add[x][d1, d2]] == add[y][amap[d1], amap[d2]]),
                    ])
                    if hit is not None:
                        raise InvariantViolation(law, witness + hit[1])
        # unitality and the three compatibility equations
        e = mon.unit
        for x in range(n):
            if self.left[e][x] != tuple(range(self.groups[x].size)):
                raise InvariantViolation("natsys-left-unital", x)
            if self.right[x][e] != tuple(range(self.groups[x].size)):
                raise InvariantViolation("natsys-right-unital", x)
        mul = mon.mulv
        for b1, b2, x in itertools.product(range(n), repeat=3):
            hit = first_violation((self.groups[x].size,), [
                # (b1 b2) d = b1 (b2 d)
                ("natsys-left-compose",
                 lambda d: left[mul(b1, b2)][x][d] == left[b1][mul(b2, x)][left[b2][x][d]]),
                # (d b1) b2 = d (b1 b2)
                ("natsys-right-compose",
                 lambda d: right[mul(x, b1)][b2][right[x][b1][d]] == right[x][mul(b1, b2)][d]),
                # (b1 d) b2 = b1 (d b2)
                ("natsys-mixed-compose",
                 lambda d: right[mul(b1, x)][b2][left[b1][x][d]]
                 == left[b1][mul(x, b2)][right[x][b2][d]]),
            ])
            if hit is not None:
                law, (d,) = hit
                raise InvariantViolation(law, {
                    "natsys-left-compose": (b1, b2, x, d),
                    "natsys-right-compose": (x, b1, b2, d),
                    "natsys-mixed-compose": (b1, x, b2, d),
                }[law])

    def to_json(self):
        return {
            "name": self.name,
            "monoid": self.monoid.to_json(),
            "groups": [{"size": g.size, "add": list(g.add)} for g in self.groups],
            "left": [[list(m) for m in row] for row in self.left],
            "right": [[list(m) for m in row] for row in self.right],
        }


def constant_system(mon: FiniteMonoid, group: AbelianGroup, name: str = "") -> NaturalSystemOnMonoid:
    """All fibres equal with identity actions: the natural system of a
    constant bifunctor."""
    ident = tuple(range(group.size))
    n = mon.size
    return NaturalSystemOnMonoid(
        mon,
        (group,) * n,
        tuple(tuple(ident for _ in range(n)) for _ in range(n)),
        tuple(tuple(ident for _ in range(n)) for _ in range(n)),
        name=name or "constant",
    )


@dataclass(frozen=True)
class MonoidExtension:
    """Surjective monoid map with fibrewise actions of the natural system.

    actions[b] is a flat |D_b| x |fibre(b)| table of total elements.
    Construction validates shapes, that proj is a unital homomorphism and
    the action axioms; freeness/transitivity and the subtraction
    identities are the business of check_linear_extension.
    """

    total: FiniteMonoid
    base: FiniteMonoid
    proj: tuple[int, ...]
    system: NaturalSystemOnMonoid
    actions: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

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
        proj = np.asarray(self.proj)
        tmul, bmul = np.reshape(self.total.mul, (N, N)), np.reshape(self.base.mul, (B, B))
        require((N, N), [
            ("extension-proj-hom", lambda a, b: proj[tmul[a, b]] == bmul[proj[a], proj[b]]),
        ])
        # the fibres, and the position of each element in its fibre, for act
        fibres = tuple(np.flatnonzero(proj == b) for b in range(B))
        pos = np.zeros(N, dtype=np.int64)
        for b, fib in enumerate(fibres):
            g = self.system.groups[b]
            if len(self.actions[b]) != g.size * fib.size:
                raise InvariantViolation("extension-action-length", b)
            require_range("extension-action-entry", self.actions[b], N)
            table = np.reshape(self.actions[b], (g.size, fib.size))
            gadd = np.reshape(g.add, (g.size, g.size))
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
        object.__setattr__(self, "_pos", pos.tolist())
        object.__setattr__(self, "_fibres", tuple(tuple(f.tolist()) for f in fibres))

    def fiber(self, b: int) -> tuple[int, ...]:
        return self._fibres[b]

    def act(self, b: int, d: int, e: int) -> int:
        if self.proj[e] != b:
            raise ValueError(f"{e} is not in the fibre over {b}")
        fibre_size = len(self.actions[b]) // self.system.groups[b].size
        return self.actions[b][d * fibre_size + self._pos[e]]

    def to_json(self):
        return {
            "name": self.name,
            "total": self.total.to_json(),
            "base": self.base.to_json(),
            "proj": list(self.proj),
            "actions": [list(t) for t in self.actions],
        }


def trivial_extension(mon: FiniteMonoid, system: NaturalSystemOnMonoid,
                      name: str = "") -> MonoidExtension:
    """The split extension: carrier the disjoint union of the D_x, product
    (x1, d1)(x2, d2) = (x1 x2, d1 x2 + x1 d2), fibre actions by addition."""
    if system.monoid != mon:
        raise InvariantViolation("system-monoid-mismatch", None)
    offsets = []
    total_size = 0
    for x in range(mon.size):
        offsets.append(total_size)
        total_size += system.groups[x].size
    enc = lambda x, d: offsets[x] + d
    proj = []
    for x in range(mon.size):
        proj.extend([x] * system.groups[x].size)
    mul = []
    for e1 in range(total_size):
        x1 = proj[e1]
        d1 = e1 - offsets[x1]
        for e2 in range(total_size):
            x2 = proj[e2]
            d2 = e2 - offsets[x2]
            x = mon.mulv(x1, x2)
            d = system.groups[x].plus(
                system.right[x1][x2][d1], system.left[x1][x2][d2]
            )
            mul.append(enc(x, d))
    total = FiniteMonoid(
        total_size,
        enc(mon.unit, system.groups[mon.unit].zero),
        tuple(mul),
        name=name or f"{mon.name}:semidirect",
    )
    actions = []
    for b in range(mon.size):
        g = system.groups[b]
        fib = list(range(offsets[b], offsets[b] + g.size))
        table = []
        for d in range(g.size):
            for e in fib:
                table.append(enc(b, g.plus(d, e - offsets[b])))
        actions.append(tuple(table))
    ext = MonoidExtension(total, mon, tuple(proj), system, tuple(actions), name=name)
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
        table = np.reshape(ext.actions[b], (g.size, len(fib)))
        sub[table, fib] = np.arange(g.size)[:, None]
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
    P, F = np.asarray(ext.proj), _padded(ext._fibres)
    tmul = np.reshape(ext.total.mul, (N, N))
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

    def family_map(self):
        return dict(self.family) if self.family is not None else None

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
    exhaustive.  Every candidate family is verified directly against all
    required identities before being returned.
    """
    pre = check_linear_extension(ext)
    if not pre.ok:
        raise InvariantViolation("untwisted-requires-linear-extension", pre.reason)
    base, total, proj, sys_ = ext.base, ext.total, ext.proj, ext.system
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

    def build_family(psi):
        # transport f1 - f2 along psi_b^-1 then psi_{b'}
        inverse = [np.argsort(p) for p in psi]
        return {
            (f1, f2, f): ext.act(proj[f], psi[proj[f]][inverse[proj[f1]][sub[f1, f2]]], f)
            for f1 in range(total.size)
            for f2 in ext.fiber(proj[f1])
            for f in range(total.size)
        }

    P = np.asarray(proj)
    tmul = np.reshape(total.mul, (total.size, total.size))

    def verify(fam):
        m = TernaryTable.from_entries(total.size, MIXED, proj, fam)
        T = m._table
        over = lambda x, y, z: (T[x, y, z] < 0) | (P[T[x, y, z]] == P[z])
        equivariant = lambda g, x, y, z: (T[x, y, z] < 0) | (
            (T[tmul[g, x], tmul[g, y], tmul[g, z]] == tmul[g, T[x, y, z]])
            & (T[tmul[x, g], tmul[y, g], tmul[z, g]] == tmul[T[x, y, z], g])
        )
        return (
            first_violation((total.size,) * 3, [("over", over)]) is None
            and check_maltsev(m)
            and check_commutative(m)
            and check_associative(m)
            and first_violation((total.size,) * 4, [("equivariant", equivariant)]) is None
        )

    for psi in itertools.product(*iso_choices):
        fam = build_family(psi)
        if verify(fam):
            return UntwistedReport(
                True, tuple(sorted(fam.items())), "untwisted family found"
            )
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
    for (a, b), want in sorted(expected.items()):
        got = tname(total.mulv(name_to_idx[a], name_to_idx[b]))
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
            v1 = cls[total.mulv(g, rep[s])]
            # well-definedness across the identified pair
            alts = [e for e in range(5) if cls[e] == s]
            for e in alts:
                if cls[total.mulv(g, e)] != v1:
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

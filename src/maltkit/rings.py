"""Finite rings, left modules, linear forms and form-bimodules.

A linear form d: M -> R (an R-module map into the ring with its left
regular action) is the classifying datum of an abelian Maltsev theory
without constants; a form-bimodule (B, K, delta, dot) is the coefficient
datum of its abelian extensions.

In memory every table is a read-only int64 array shaped by its
quantifiers, built and range-checked once by the constructor, which
accepts any integer sequence in flat row-major order: ring addition and
multiplication (|R|, |R|), module addition (|M|, |M|) and action (|R|, |M|)
indexed (r, x), the form d (|M|,), and a bimodule's left action (|R|, |B|),
right action (|B|, |R|), delta (|K|,) and dot (|B|, |M|).  Readers index
them directly: R.multiplication[a, b], M.action[r, x].  The flat order is
the exchange contract only (files, JSON and the flat views `add`, `mul`
and `act` of rings and modules).  Every constructor then verifies all its
laws exhaustively with the kernel of `laws`, which reports the
lexicographically first violating tuple.  The tables built here are
index-array expressions over the given ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup
from .algebra import mixed_index, mixed_unindex, same_tables
from .errors import InvariantViolation
from .laws import as_table, first_violation, require


@dataclass(frozen=True, eq=False)
class FiniteRing:
    size: int
    addition: np.ndarray  # (size, size)
    multiplication: np.ndarray  # (size, size)
    zero: int
    one: int
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        n = self.size
        grp = AbelianGroup(n, self.addition)  # validates the additive group
        if grp.zero != self.zero:
            raise InvariantViolation("ring-zero", self.zero)
        object.__setattr__(self, "_grp", grp)
        add, one = grp.addition, self.one
        mul = as_table(self.multiplication, (n, n), n, "ring-mul-entry", "ring-mul-length")
        object.__setattr__(self, "addition", add)
        object.__setattr__(self, "multiplication", mul)
        require((n, n, n), [
            ("ring-unit", lambda a: (mul[one, a] == a) & (mul[a, one] == a)),
            ("ring-mul-associative", lambda a, b, c: mul[mul[a, b], c] == mul[a, mul[b, c]]),
            ("ring-left-distributive",
             lambda a, b, c: mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]),
            ("ring-right-distributive",
             lambda a, b, c: mul[add[a, b], c] == add[mul[a, c], mul[b, c]]),
        ])

    @classmethod
    def from_tables(cls, add, mul, name: str = "") -> "FiniteRing":
        n = math.isqrt(np.size(add))
        grp = AbelianGroup(n, add)
        if np.size(mul) != n * n:
            raise InvariantViolation("ring-mul-length", np.size(mul))
        m, a = np.reshape(mul, (n, n)), np.arange(n)
        units = np.flatnonzero(((m == a) & (m.T == a)).all(axis=1))
        if not units.size:
            raise InvariantViolation("ring-unit-exists", None)
        return cls(n, grp.addition, mul, grp.zero, int(units[0]), name)

    add = property(lambda self: self.addition.ravel(), doc="flat exchange view")
    mul = property(lambda self: self.multiplication.ravel(), doc="flat exchange view")

    def minus(self, a, b):
        return self._grp.minus(a, b)

    def additive_group(self) -> AbelianGroup:
        return self._grp

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "add": self.add.tolist(),
            "mul": self.mul.tolist(),
            "zero": self.zero,
            "one": self.one,
        }


def cyclic_ring(n: int, name: str = "") -> FiniteRing:
    add = tuple((a + b) % n for a in range(n) for b in range(n))
    mul = tuple((a * b) % n for a in range(n) for b in range(n))
    return FiniteRing.from_tables(add, mul, name or f"Z{n}")


def dual_numbers_f2(name: str = "F2eps") -> FiniteRing:
    """F2[eps]/(eps^2): elements a + b*eps indexed 2a + b."""
    a, b = mixed_unindex((2, 2), np.arange(4))
    a1, b1, a2, b2 = a[:, None], b[:, None], a[None], b[None]
    add = mixed_index((2, 2), (a1 ^ a2, b1 ^ b2))
    mul = mixed_index((2, 2), (a1 & a2, (a1 & b2) ^ (b1 & a2)))
    return FiniteRing.from_tables(add, mul, name)


@dataclass(frozen=True, eq=False)
class LeftModule:
    ring: FiniteRing
    size: int
    addition: np.ndarray  # (size, size)
    action: np.ndarray  # (ring.size, size)
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        n = self.size
        grp = AbelianGroup(n, self.addition)
        object.__setattr__(self, "_grp", grp)
        R = self.ring
        act = as_table(self.action, (R.size, n), n, "module-act-entry", "module-act-length")
        add, radd, rmul = grp.addition, R.addition, R.multiplication
        object.__setattr__(self, "addition", add)
        object.__setattr__(self, "action", act)
        require((R.size, n, n), [
            ("module-distributive-right",
             lambda r, x, y: act[r, add[x, y]] == add[act[r, x], act[r, y]]),
        ])
        require((R.size, R.size, n), [
            ("module-distributive-left",
             lambda r, s, x: act[radd[r, s], x] == add[act[r, x], act[s, x]]),
            ("module-mul-compatible", lambda r, s, x: act[rmul[r, s], x] == act[r, act[s, x]]),
        ])
        require((n,), [("module-unit", lambda x: act[R.one, x] == x)])

    add = property(lambda self: self.addition.ravel(), doc="flat exchange view")
    act = property(lambda self: self.action.ravel(), doc="flat exchange view")

    def minus(self, a, b):
        return self._grp.minus(a, b)

    @property
    def zero(self):
        return self._grp.zero

    def additive_group(self) -> AbelianGroup:
        return self._grp

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "add": self.add.tolist(),
            "act": self.act.tolist(),
        }


def module_over_self(ring: FiniteRing, name: str = "") -> LeftModule:
    return LeftModule(ring, ring.size, ring.addition, ring.multiplication,
                      name or f"{ring.name}-reg")


def zero_module(ring: FiniteRing, name: str = "0") -> LeftModule:
    return LeftModule(ring, 1, (0,), (0,) * ring.size, name)


def submodule(module: LeftModule, elements, name: str = "") -> tuple[LeftModule, tuple[int, ...]]:
    """Submodule on a closed subset; returns the module and the element list.
    A closure witness is the lexicographically first pair (a, b) whose sum,
    or (r, a) whose multiple, leaves the subset."""
    elems = sorted(set(elements))
    if module.zero not in elems:
        raise InvariantViolation("submodule-zero", elems)
    slot = np.full(module.size, -1)
    slot[elems] = np.arange(len(elems))
    add = slot[module.addition[np.ix_(elems, elems)]]
    act = slot[module.action[:, elems]]
    for law, table, rows in (("submodule-closed-add", add, elems),
                             ("submodule-closed-act", act, range(module.ring.size))):
        bad = np.argwhere(table < 0)
        if bad.size:
            raise InvariantViolation(law, (rows[bad[0, 0]], elems[bad[0, 1]]))
    return LeftModule(module.ring, len(elems), add, act, name), tuple(elems)


@dataclass(frozen=True, eq=False)
class LinearForm:
    """A left-module map d: M -> R, with R acting on itself from the left."""

    module: LeftModule
    d: np.ndarray  # (module.size,)
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        M, R = self.module, self.module.ring
        d = as_table(self.d, (M.size,), R.size, "form-entry", "form-length")
        object.__setattr__(self, "d", d)
        madd, act, radd, rmul = M.addition, M.action, R.addition, R.multiplication
        require((M.size, M.size), [
            ("form-additive", lambda x, y: d[madd[x, y]] == radd[d[x], d[y]]),
        ])
        require((R.size, M.size), [("form-linear", lambda r, x: d[act[r, x]] == rmul[r, d[x]])])

    @property
    def ring(self) -> FiniteRing:
        return self.module.ring

    def to_json(self):
        return {
            "name": self.name,
            "ring": self.ring.to_json(),
            "module": self.module.to_json(),
            "d": self.d.tolist(),
        }


@dataclass(frozen=True, eq=False)
class DBimodule:
    """Coefficient datum over a linear form: an R-R-bimodule B, a left
    module K, an R-linear delta: K -> B and a pairing dot: B x M -> K with
    delta(b.m) = b * d(m)."""

    form: LinearForm
    bgroup: AbelianGroup
    bleft: np.ndarray  # (R.size, B.size)
    bright: np.ndarray  # (B.size, R.size)
    kmodule: LeftModule
    delta: np.ndarray  # (K.size,) -> B
    dot: np.ndarray  # (B.size, M.size) -> K
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        R = self.form.ring
        M = self.form.module
        B, K = self.bgroup, self.kmodule
        if K.ring != R:
            raise InvariantViolation("bimodule-kmodule-ring", None)
        if np.size(self.bleft) != R.size * B.size or np.size(self.bright) != B.size * R.size:
            raise InvariantViolation("bimodule-action-length", None)
        if np.size(self.delta) != K.size or np.size(self.dot) != B.size * M.size:
            raise InvariantViolation("bimodule-map-length", None)
        for attr, shape, size, law in (("bleft", (R.size, B.size), B.size, "bimodule-left-entry"),
                                       ("bright", (B.size, R.size), B.size, "bimodule-right-entry"),
                                       ("delta", (K.size,), B.size, "delta-entry"),
                                       ("dot", (B.size, M.size), K.size, "dot-entry")):
            object.__setattr__(self, attr, as_table(getattr(self, attr), shape, size, law, None))
        radd, rmul, madd, mact = R.addition, R.multiplication, M.addition, M.action
        badd, kadd, kact = B.addition, K.addition, K.action
        lact, ract, delta, dot, d = self.bleft, self.bright, self.delta, self.dot, self.form.d
        require((R.size, B.size, B.size), [
            ("bimodule-left-additive",
             lambda r, b1, b2: lact[r, badd[b1, b2]] == badd[lact[r, b1], lact[r, b2]]),
            ("bimodule-right-additive",
             lambda r, b1, b2: ract[badd[b1, b2], r] == badd[ract[b1, r], ract[b2, r]]),
        ])
        require((R.size, R.size, B.size), [
            ("bimodule-left-distributive",
             lambda r, s, b: lact[radd[r, s], b] == badd[lact[r, b], lact[s, b]]),
            ("bimodule-right-distributive",
             lambda r, s, b: ract[b, radd[r, s]] == badd[ract[b, r], ract[b, s]]),
            ("bimodule-left-action", lambda r, s, b: lact[rmul[r, s], b] == lact[r, lact[s, b]]),
            ("bimodule-right-action", lambda r, s, b: ract[b, rmul[r, s]] == ract[ract[b, r], s]),
            ("bimodule-actions-commute",
             lambda r, s, b: ract[lact[r, b], s] == lact[r, ract[b, s]]),
        ])
        require((B.size,), [
            ("bimodule-unital", lambda b: (lact[R.one, b] == b) & (ract[b, R.one] == b)),
        ])
        require((K.size, K.size), [
            ("delta-additive", lambda k1, k2: delta[kadd[k1, k2]] == badd[delta[k1], delta[k2]]),
        ])
        require((R.size, K.size), [
            ("delta-linear", lambda r, k: delta[kact[r, k]] == lact[r, delta[k]]),
        ])
        require((B.size, M.size, M.size), [
            ("dot-additive-m",
             lambda b, m1, m2: dot[b, madd[m1, m2]] == kadd[dot[b, m1], dot[b, m2]]),
        ])
        require((B.size, B.size, M.size), [
            ("dot-additive-b",
             lambda b1, b2, m: dot[badd[b1, b2], m] == kadd[dot[b1, m], dot[b2, m]]),
        ])
        hit = first_violation((B.size, R.size, M.size), [
            ("dot-balanced", lambda b, r, m: dot[ract[b, r], m] == dot[b, mact[r, m]]),
            ("dot-left-linear", lambda b, r, m: dot[lact[r, b], m] == kact[r, dot[b, m]]),
        ])
        if hit is not None:
            law, (b, r, m) = hit
            raise InvariantViolation(law, (b, r, m) if law == "dot-balanced" else (r, b, m))
        require((B.size, M.size), [
            ("delta-dot-compatible", lambda b, m: delta[dot[b, m]] == ract[b, d[m]]),
        ])

    def to_json(self):
        return {
            "name": self.name,
            "b_size": self.bgroup.size,
            "b_add": self.bgroup.addition.ravel().tolist(),
            "b_left": self.bleft.ravel().tolist(),
            "b_right": self.bright.ravel().tolist(),
            "k_size": self.kmodule.size,
            "k_add": self.kmodule.add.tolist(),
            "k_act": self.kmodule.act.tolist(),
            "delta": self.delta.tolist(),
            "dot": self.dot.ravel().tolist(),
        }

"""Finite rings, left modules, linear forms and form-bimodules.

A linear form d: M -> R (an R-module map into the ring with its left
regular action) is the classifying datum of an abelian Maltsev theory
without constants; a form-bimodule (B, K, delta, dot) is the coefficient
datum of its abelian extensions.  Every constructor range-checks its
tables and then verifies all its laws exhaustively with the kernel of
`laws`, which reports the lexicographically first violating tuple.  The
tables built here are index-array expressions over the given ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abgroup import AbelianGroup, extend_additive, group_from_presentation
from .algebra import mixed_index, mixed_unindex
from .errors import InvariantViolation
from .laws import first_violation, require, require_range


@dataclass(frozen=True)
class FiniteRing:
    size: int
    add: tuple[int, ...]
    mul: tuple[int, ...]
    zero: int
    one: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        n = self.size
        grp = AbelianGroup(n, self.add)  # validates the additive group
        if grp.zero != self.zero:
            raise InvariantViolation("ring-zero", self.zero)
        object.__setattr__(self, "_grp", grp)
        if len(self.mul) != n * n:
            raise InvariantViolation("ring-mul-length", len(self.mul))
        require_range("ring-mul-entry", self.mul, n)
        add, mul, one = np.reshape(self.add, (n, n)), np.reshape(self.mul, (n, n)), self.one
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
        n = int(len(add) ** 0.5)
        grp = AbelianGroup(n, tuple(add))
        one = None
        for e in range(n):
            if all(mul[e * n + a] == a and mul[a * n + e] == a for a in range(n)):
                one = e
                break
        if one is None:
            raise InvariantViolation("ring-unit-exists", None)
        return cls(n, tuple(add), tuple(mul), grp.zero, one, name)

    def plus(self, a, b):
        return self.add[a * self.size + b]

    def minus(self, a, b):
        return self._grp.minus(a, b)

    def neg(self, a):
        return self._grp.neg[a]

    def mulv(self, a, b):
        return self.mul[a * self.size + b]

    def additive_group(self) -> AbelianGroup:
        return self._grp

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "add": list(self.add),
            "mul": list(self.mul),
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
    return FiniteRing.from_tables(tuple(add.ravel().tolist()), tuple(mul.ravel().tolist()), name)


@dataclass(frozen=True)
class LeftModule:
    ring: FiniteRing
    size: int
    add: tuple[int, ...]
    act: tuple[int, ...]  # flat ring.size x size table
    name: str = field(default="", compare=False)

    def __post_init__(self):
        n = self.size
        grp = AbelianGroup(n, self.add)
        object.__setattr__(self, "_grp", grp)
        R = self.ring
        if len(self.act) != R.size * n:
            raise InvariantViolation("module-act-length", len(self.act))
        require_range("module-act-entry", self.act, n)
        add, act = np.reshape(self.add, (n, n)), np.reshape(self.act, (R.size, n))
        radd, rmul = np.reshape(R.add, (R.size, R.size)), np.reshape(R.mul, (R.size, R.size))
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

    def plus(self, a, b):
        return self.add[a * self.size + b]

    def minus(self, a, b):
        return self._grp.minus(a, b)

    def neg(self, a):
        return self._grp.neg[a]

    @property
    def zero(self):
        return self._grp.zero

    def smul(self, r, x):
        return self.act[r * self.size + x]

    def additive_group(self) -> AbelianGroup:
        return self._grp

    def to_json(self):
        return {
            "name": self.name,
            "size": self.size,
            "add": list(self.add),
            "act": list(self.act),
        }


def module_over_self(ring: FiniteRing, name: str = "") -> LeftModule:
    return LeftModule(ring, ring.size, ring.add, ring.mul, name or f"{ring.name}-reg")


def zero_module(ring: FiniteRing, name: str = "0") -> LeftModule:
    return LeftModule(ring, 1, (0,), (0,) * ring.size, name)


def submodule(module: LeftModule, elements, name: str = "") -> tuple[LeftModule, tuple[int, ...]]:
    """Submodule on a closed subset; returns the module and the element list.
    A closure witness is the lexicographically first pair (a, b) whose sum,
    or (r, a) whose multiple, leaves the subset."""
    elems = sorted(set(elements))
    if module.zero not in elems:
        raise InvariantViolation("submodule-zero", elems)
    n, nr = module.size, module.ring.size
    slot = np.full(n, -1)
    slot[elems] = np.arange(len(elems))
    add = slot[np.reshape(module.add, (n, n))[np.ix_(elems, elems)]]
    act = slot[np.reshape(module.act, (nr, n))[:, elems]]
    for law, table, rows in (("submodule-closed-add", add, elems),
                             ("submodule-closed-act", act, range(nr))):
        bad = np.argwhere(table < 0)
        if bad.size:
            raise InvariantViolation(law, (rows[bad[0, 0]], elems[bad[0, 1]]))
    return LeftModule(module.ring, len(elems), tuple(add.ravel().tolist()),
                      tuple(act.ravel().tolist()), name), tuple(elems)


@dataclass(frozen=True)
class LinearForm:
    """A left-module map d: M -> R, with R acting on itself from the left."""

    module: LeftModule
    d: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        M, R = self.module, self.module.ring
        if len(self.d) != M.size:
            raise InvariantViolation("form-length", len(self.d))
        require_range("form-entry", self.d, R.size)
        d = np.asarray(self.d)
        madd, act = np.reshape(M.add, (M.size, M.size)), np.reshape(M.act, (R.size, M.size))
        radd, rmul = np.reshape(R.add, (R.size, R.size)), np.reshape(R.mul, (R.size, R.size))
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
            "d": list(self.d),
        }


def tensor_over_ring(
    ring: FiniteRing,
    bgroup: AbelianGroup,
    bright: tuple[int, ...],
    module: LeftModule,
):
    """B (x)_R M for a right action `bright` of the ring on B.

    Presented by one generator per pair (b, m) with biadditivity and
    balance relations, collapsed by Smith normal form.  Returns the tensor
    group and the pairing table (b, m) -> element.
    """
    nb, nm, nr = bgroup.size, module.size, ring.size
    badd, madd = np.reshape(bgroup.add, (nb, nb)), np.reshape(module.add, (nm, nm))
    mact, ract = np.reshape(module.act, (nr, nm)), np.reshape(bright, (nb, nr))
    b1, b2, m = np.indices((nb, nb, nm)).reshape(3, -1)
    b, m1, m2 = np.indices((nb, nm, nm)).reshape(3, -1)
    bb, r, mm = np.indices((nb, nr, nm)).reshape(3, -1)
    # the (b, m) coordinates of the generators of each relation, +1 at the
    # first and -1 at the others: biadditivity in b, in m, then balance
    blocks = []
    for pos, *negs in (((badd[b1, b2], m), (b1, m), (b2, m)),
                       ((b, madd[m1, m2]), (b, m1), (b, m2)),
                       ((ract[bb, r], mm), (bb, mact[r, mm]))):
        cols = np.stack([mixed_index((nb, nm), g) for g in (pos, *negs)], axis=1)
        rows = np.zeros((len(cols), nb * nm), dtype=np.int64)
        np.add.at(rows, (np.arange(len(cols))[:, None], cols), [1] + [-1] * len(negs))
        blocks.append(rows)
    # bound generator orders so the quotient is manifestly finite
    blocks.append(_exponent(bgroup) * np.eye(nb * nm, dtype=np.int64))
    tensor, coords = group_from_presentation(nb * nm, np.vstack(blocks).tolist())
    return tensor, tuple(coords)


def _exponent(g: AbelianGroup) -> int:
    """The least k >= 1 with k a = 0 for every a: the lcm of the orders."""
    add, a = np.reshape(g.add, (g.size, g.size)), np.arange(g.size)
    k, v = 1, a
    while (v != g.zero).any():
        k, v = k + 1, add[v, a]
    return k


@dataclass(frozen=True)
class DBimodule:
    """Coefficient datum over a linear form: an R-R-bimodule B, a left
    module K, an R-linear delta: K -> B and a pairing dot: B x M -> K with
    delta(b.m) = b * d(m)."""

    form: LinearForm
    bgroup: AbelianGroup
    bleft: tuple[int, ...]  # R.size x B.size
    bright: tuple[int, ...]  # B.size x R.size
    kmodule: LeftModule
    delta: tuple[int, ...]  # K.size -> B
    dot: tuple[int, ...]  # B.size x M.size -> K
    name: str = field(default="", compare=False)

    def __post_init__(self):
        R = self.form.ring
        M = self.form.module
        B, K = self.bgroup, self.kmodule
        if K.ring is not R and K.ring != R:
            raise InvariantViolation("bimodule-kmodule-ring", None)
        if len(self.bleft) != R.size * B.size or len(self.bright) != B.size * R.size:
            raise InvariantViolation("bimodule-action-length", None)
        if len(self.delta) != K.size or len(self.dot) != B.size * M.size:
            raise InvariantViolation("bimodule-map-length", None)
        require_range("bimodule-left-entry", self.bleft, B.size)
        require_range("bimodule-right-entry", self.bright, B.size)
        require_range("delta-entry", self.delta, B.size)
        require_range("dot-entry", self.dot, K.size)
        radd, rmul = np.reshape(R.add, (R.size, R.size)), np.reshape(R.mul, (R.size, R.size))
        madd, mact = np.reshape(M.add, (M.size, M.size)), np.reshape(M.act, (R.size, M.size))
        badd = np.reshape(B.add, (B.size, B.size))
        kadd, kact = np.reshape(K.add, (K.size, K.size)), np.reshape(K.act, (R.size, K.size))
        lact = np.reshape(self.bleft, (R.size, B.size))
        ract = np.reshape(self.bright, (B.size, R.size))
        delta, d = np.asarray(self.delta), np.asarray(self.form.d)
        dot = np.reshape(self.dot, (B.size, M.size))
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

    def dotv(self, b, m):
        return self.dot[b * self.form.module.size + m]

    def to_json(self):
        return {
            "name": self.name,
            "b_size": self.bgroup.size,
            "b_add": list(self.bgroup.add),
            "b_left": list(self.bleft),
            "b_right": list(self.bright),
            "k_size": self.kmodule.size,
            "k_add": list(self.kmodule.add),
            "k_act": list(self.kmodule.act),
            "delta": list(self.delta),
            "dot": list(self.dot),
        }


def shifted_module(form: LinearForm, kmodule: LeftModule, name: str = "") -> DBimodule:
    """The bimodule with B = 0: only the left module K survives."""
    return DBimodule(
        form,
        AbelianGroup.trivial(),
        (0,) * form.ring.size,
        (0,) * form.ring.size,
        kmodule,
        (0,) * kmodule.size,
        (0,) * form.module.size,
        name or f"{kmodule.name}[1]",
    )


def cone_bimodule(
    form: LinearForm,
    bgroup: AbelianGroup,
    bleft: tuple[int, ...],
    bright: tuple[int, ...],
    name: str = "",
) -> DBimodule:
    """The bimodule with K = B (x)_R M, dot the canonical pairing and
    delta(b (x) m) = b * d(m)."""
    R, M = form.ring, form.module
    require_range("bimodule-left-entry", bleft, bgroup.size)
    require_range("bimodule-right-entry", bright, bgroup.size)
    tensor, pair = tensor_over_ring(R, bgroup, bright, M)
    pairv = lambda b, m: pair[b * M.size + m]
    # left module structure on the tensor: r.(b (x) m) = (rb) (x) m, an
    # additive map determined by its values on pure tensors
    act = []
    for r in range(R.size):
        table, conflict = extend_additive(tensor, tensor, [
            (pairv(b, m), pairv(bleft[r * bgroup.size + b], m))
            for b in range(bgroup.size) for m in range(M.size)
        ])
        if conflict is not None:
            raise InvariantViolation("tensor-action-ill-defined", (r, conflict))
        if None in table:
            raise InvariantViolation("tensor-not-generated", r)
        act.extend(table)
    kmod = LeftModule(R, tensor.size, tensor.add, tuple(act), name=f"{name}-K")
    # delta(b (x) m) = b d(m), extended additively
    delta, conflict = extend_additive(tensor, bgroup, [
        (pairv(b, m), bright[b * R.size + form.d[m]])
        for b in range(bgroup.size) for m in range(M.size)
    ])
    if conflict is not None:
        raise InvariantViolation("tensor-delta-ill-defined", conflict)
    if None in delta:
        raise InvariantViolation("tensor-delta-partial", tensor.size - delta.count(None))
    delta = tuple(delta)
    return DBimodule(
        form, bgroup, bleft, bright, kmod, delta, pair, name or "C(B)"
    )


def regular_bimodule(ring: FiniteRing) -> tuple[AbelianGroup, tuple[int, ...], tuple[int, ...]]:
    """R as an R-R-bimodule: (group, left action, right action)."""
    grp = ring.additive_group()
    left = ring.mul
    right = ring.mul
    return grp, tuple(left), tuple(right)

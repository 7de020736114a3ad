"""Finite algebras as dense operation tables.

Elements are the integers 0..size-1.  A k-ary operation is stored as a flat
table of length size**k in mixed-radix order with the *leftmost* argument
most significant: the tuple (a1, ..., ak) lives at index
a1*size**(k-1) + a2*size**(k-2) + ... + ak.  This encoding is part of the
exchange contract (files, JSON, products) and is shared by every module.

Nullary operations are tables of length 1; they seed subuniverse and clone
generation.  The empty algebra (size 0) is permitted and cannot carry
nullary operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CloneBudgetExceeded, InvariantViolation, SignatureError
from .laws import first_violation

DEFAULT_CLONE_BUDGET = 200_000


def tuple_index(size: int, args) -> int:
    """Flat index of an argument tuple, leftmost argument most significant."""
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def index_tuple(size: int, arity: int, idx: int) -> tuple[int, ...]:
    """Inverse of tuple_index."""
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = idx % size
        idx //= size
    return tuple(out)


def mixed_index(sizes, values) -> int:
    """Mixed-radix encoding over heterogeneous factor sizes (leftmost most significant)."""
    idx = 0
    for s, v in zip(sizes, values):
        idx = idx * s + v
    return idx


def mixed_unindex(sizes, idx: int) -> tuple[int, ...]:
    out = [0] * len(sizes)
    for i in range(len(sizes) - 1, -1, -1):
        out[i] = idx % sizes[i]
        idx //= sizes[i]
    return tuple(out)


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    """A carrier size together with named finitary operations."""

    size: int
    ops: tuple[Operation, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.size < 0:
            raise InvariantViolation("size-nonnegative", self.size)
        seen = set()
        for op in self.ops:
            if op.name in seen:
                raise InvariantViolation("op-names-unique", op.name)
            seen.add(op.name)
            if op.arity < 0:
                raise InvariantViolation("op-arity-nonnegative", op.name)
            expected = self.size**op.arity
            if len(op.table) != expected:
                raise InvariantViolation(
                    "op-table-length",
                    (op.name, len(op.table), expected),
                    f"table of {op.name}/{op.arity} has length {len(op.table)}, expected {expected}",
                )
            for v in op.table:
                if not 0 <= v < self.size:
                    raise InvariantViolation("op-table-entry", (op.name, v))

    def op(self, name: str) -> Operation:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)

    def apply(self, op: Operation | str, args) -> int:
        if isinstance(op, str):
            op = self.op(op)
        return op.table[tuple_index(self.size, args)]

    def op_array(self, op: Operation | str) -> np.ndarray:
        """Operation table reshaped to (size,)*arity for vectorised lookups."""
        if isinstance(op, str):
            op = self.op(op)
        return np.asarray(op.table, dtype=np.int64).reshape((self.size,) * op.arity)

    @cached_property
    def translations(self) -> np.ndarray:
        """Every elementary translation as one row of a read-only (T, size) array.

        A translation frees one argument of an operation and freezes the
        others.  Rows run over the operations in declared order, then the
        free position, then the frozen arguments in lexicographic order.
        """
        rows = [
            np.moveaxis(self.op_array(op), pos, -1).reshape(-1, self.size)
            for op in self.ops
            for pos in range(op.arity)
            if self.size
        ]
        if not rows:
            rows = [np.zeros((0, self.size), dtype=np.int64)]
        # column-major, so that the images of one element lie together
        out = np.asfortranarray(np.concatenate(rows))
        out.setflags(write=False)
        return out

    @cached_property
    def _pair_algebras(self) -> dict:
        """Pair algebras of congruences by block index, kept by `commutator`."""
        return {}

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.ops)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.size:
            raise InvariantViolation("hom-map-length", len(self.map))
        for v in self.map:
            if not 0 <= v < self.target.size:
                raise InvariantViolation("hom-map-entry", v)


def is_homomorphism(h: Homomorphism) -> bool:
    """Exhaustively check that h.map commutes with every shared operation."""
    if h.source.signature() != h.target.signature():
        raise SignatureError("source and target signatures differ")
    hmap = np.asarray(h.map)
    for op in h.source.ops:
        src, tgt = h.source.op_array(op), h.target.op_array(op.name)
        if first_violation((h.source.size,) * op.arity, [
                (op.name, lambda *a: hmap[src[a]] == tgt[tuple(hmap[x] for x in a)])]):
            return False
    return True


def product(algebras) -> FiniteAlgebra:
    """Direct product acting coordinatewise.

    The carrier is mixed-radix encoded with the leftmost factor most
    significant; that encoding is part of the external contract.
    """
    algebras = list(algebras)
    if not algebras:
        raise SignatureError("product of zero algebras has no signature")
    sig = algebras[0].signature()
    for a in algebras[1:]:
        if a.signature() != sig:
            raise SignatureError(f"signature mismatch: {sig} vs {a.signature()}")
    sizes = [a.size for a in algebras]
    n = 1
    for s in sizes:
        n *= s
    ops = []
    for name, arity in sig:
        factor_ops = [a.op(name) for a in algebras]
        table = []
        for args in itertools.product(range(n), repeat=arity):
            decoded = [mixed_unindex(sizes, a) for a in args]
            value = tuple(
                alg.apply(fop, tuple(decoded[j][i] for j in range(arity)))
                for i, (alg, fop) in enumerate(zip(algebras, factor_ops))
            )
            table.append(mixed_index(sizes, value))
        ops.append(Operation(name, arity, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def subuniverse_generate(alg: FiniteAlgebra, generators) -> tuple[int, ...]:
    """Least subset containing the generators, closed under all operations.

    Nullary operations always seed the closure.  Returns the subuniverse
    sorted ascending.
    """
    for g in generators:
        if not 0 <= g < alg.size:
            raise InvariantViolation("generator-in-carrier", g)
    members = sorted(set(generators))
    included = [False] * alg.size
    for g in members:
        included[g] = True
    changed = True
    while changed:
        changed = False
        for op in alg.ops:
            for args in itertools.product(members, repeat=op.arity):
                v = alg.apply(op, args)
                if not included[v]:
                    included[v] = True
                    members.append(v)
                    changed = True
        members.sort()
    return tuple(members)


@dataclass(frozen=True)
class TermOp:
    """A term operation: dense table plus the witness term that produced it."""

    arity: int
    table: tuple[int, ...]
    witness: tuple = field(default=None, compare=False)

    def term_str(self) -> str:
        return term_to_str(self.witness) if self.witness is not None else "?"


def term_to_str(term) -> str:
    if term[0] == "var":
        return f"x{term[1] + 1}"
    head = term[0]
    if len(term) == 1:
        return f"{head}()"
    return f"{head}({', '.join(term_to_str(t) for t in term[1:])})"


def eval_term(alg: FiniteAlgebra, term, args) -> int:
    """Evaluate a witness term on concrete arguments of alg."""
    if term[0] == "var":
        return args[term[1]]
    op = alg.op(term[0])
    return alg.apply(op, tuple(eval_term(alg, t, args) for t in term[1:]))


def iter_term_ops(alg: FiniteAlgebra, arity: int, budget: int = DEFAULT_CLONE_BUDGET):
    """Yield the term operations of the given arity in generation order.

    Order is breadth-first over term depth, then operations in declared
    order, then argument tuples lexicographically by discovery index, so
    the sequence (and any witness picked from it) is reproducible.
    Generators are the projections; nullary operations contribute constant
    functions in the first closure round.  Raises CloneBudgetExceeded if
    more than `budget` distinct operations appear.
    """
    if arity < 0:
        raise InvariantViolation("clone-arity-nonnegative", arity)
    if budget <= 0:
        raise InvariantViolation("clone-budget-positive", budget)
    n = alg.size
    length = n**arity
    if n == 0:
        # Only the empty function exists; nullary ops cannot occur on size 0.
        if arity > 0:
            yield TermOp(arity, (), ("var", 0))
        return

    idx = np.arange(length, dtype=np.int64)
    tables: list[np.ndarray] = []
    rounds: list[int] = []
    witnesses: list[tuple] = []
    seen: dict[bytes, int] = {}

    def emit(arr: np.ndarray, witness: tuple, rnd: int):
        key = arr.tobytes()
        if key in seen:
            return None
        if len(tables) >= budget:
            raise CloneBudgetExceeded(
                f"clone budget {budget} exceeded at arity {arity}", count=len(tables)
            )
        seen[key] = len(tables)
        tables.append(arr)
        rounds.append(rnd)
        witnesses.append(witness)
        return TermOp(arity, tuple(int(v) for v in arr), witness)

    for i in range(arity):
        proj = (idx // (n ** (arity - 1 - i))) % n
        t = emit(proj, ("var", i), 0)
        if t is not None:
            yield t

    op_arrays = [(op, alg.op_array(op)) for op in alg.ops]
    rnd = 0
    while True:
        rnd += 1
        snapshot = len(tables)
        produced = False
        for op, arr in op_arrays:
            if op.arity == 0:
                if rnd == 1:
                    const = np.full(length, op.table[0], dtype=np.int64)
                    t = emit(const, (op.name,), rnd)
                    if t is not None:
                        yield t
                        produced = True
                continue
            for combo in itertools.product(range(snapshot), repeat=op.arity):
                # depth-stratified: at least one argument from the previous round
                if snapshot and max(rounds[i] for i in combo) != rnd - 1:
                    continue
                if op.arity == 1:
                    new = arr[tables[combo[0]]]
                elif op.arity == 2:
                    new = arr[tables[combo[0]], tables[combo[1]]]
                else:
                    new = arr[tuple(tables[i] for i in combo)]
                t = emit(new, (op.name, *(witnesses[i] for i in combo)), rnd)
                if t is not None:
                    yield t
                    produced = True
        if not produced:
            return


def term_clone(
    alg: FiniteAlgebra, arity: int, budget: int = DEFAULT_CLONE_BUDGET
) -> tuple[TermOp, ...]:
    """All term operations of the given arity, computed to fixpoint."""
    return tuple(iter_term_ops(alg, arity, budget))


def clone_to_json(clone) -> list[dict]:
    return [
        {"arity": t.arity, "table": list(t.table), "witness": t.term_str()}
        for t in clone
    ]

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
from . import laws

DEFAULT_CLONE_BUDGET = 200_000
CODE_BITS = 62  # the clone engine looks tables up by integer codes below 2**CODE_BITS


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
        if laws.first_violation((h.source.size,) * op.arity, [
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
    sorted ascending.  It is the closure of the clone engine at one
    coordinate, whose generator rows are the generators.
    """
    gens = sorted(set(generators))
    for g in gens:
        if not 0 <= g < alg.size:
            raise InvariantViolation("generator-in-carrier", g)
    blocks = _term_blocks(alg, np.reshape(gens, (-1, 1)), max(1, alg.size))
    return tuple(sorted(v for rows, _ in blocks for v in rows[:, 0].tolist()))


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


def _projections(n: int, arity: int) -> np.ndarray:
    """The projections of the given arity as rows over all argument tuples."""
    if arity < 0:
        raise InvariantViolation("clone-arity-nonnegative", arity)
    return np.arange(n**arity) // n ** np.arange(arity - 1, -1, -1)[:, None] % n


def _term_blocks(alg: FiniteAlgebra, gens, budget: int, cols=None):
    """The clone engine behind iter_term_ops, the Maltsev search,
    abelianize and subuniverse_generate.

    It closes the generator rows gens under the operations, applied
    coordinatewise.  Column j of gens is a coordinate, an argument tuple of
    length len(gens), and row i holds argument i of each: the projections
    there (_projections for a whole clone, the generators at the one
    coordinate of a subuniverse), so that every row is the table of a term
    operation on those coordinates.  Yields blocks (rows, term): rows is an
    array of the next distinct new rows in generation order, term(i) the
    TermOp of rows[i].  The new rows of a run of candidates are found,
    deduplicated and stored with array operations; a stored row keeps only
    its parents (head, argument indices), and its witness term is expanded
    when term() asks for it.  If a run holds more new rows than the budget
    allows, the block of those that fit comes first and CloneBudgetExceeded
    is raised on the next step.

    Given cols, candidates are evaluated and told apart on those columns
    only, and a new row is evaluated whole once, from its parents, in runs
    of at most laws.CHUNK entries.  The rows stay exact; the enumeration is
    that of all columns if distinct rows of the closure differ on cols.
    """
    if budget <= 0:
        raise InvariantViolation("clone-budget-positive", budget)
    n = alg.size
    arity = len(gens)
    if n == 0:
        # Every row is empty; nullary ops cannot occur on size 0.
        if arity > 0:
            yield np.zeros((1, 0), np.uint8), lambda i: TermOp(arity, (), ("var", 0))
        return

    dtype = np.min_scalar_type(n - 1)
    gens = np.asarray(gens, dtype)
    ops = [(op, np.asarray(op.table, dtype)) for op in alg.ops]
    full = np.empty((16, gens.shape[1]), dtype)
    tables = full if cols is None else np.empty((16, len(cols)), dtype)  # rows on cols
    length = tables.shape[1]
    heads = np.empty(16, np.intp)  # -1 for a projection, else the index of the operation
    args = np.empty((16, max([op.arity for op in alg.ops] + [1])), np.intp)
    k = 0
    # Rows are looked up by their code at the coordinates X in keys, the
    # sorted codes of the stored rows (order holds their indices).  When a
    # whole row fits a code, X is every coordinate and the code is the row.
    # Otherwise X is widened while two stored rows share a code and
    # n**len(X) stays within 2**CODE_BITS, and every hit is confirmed on the
    # whole row; rows with equal codes sit next to each other in keys.
    width = CODE_BITS // max(1, (n - 1).bit_length())
    exact = length <= width
    X = slice(None) if exact else np.zeros(1, np.intp)
    weights = n ** np.arange(length if exact else 1)
    keys, order = np.array([np.iinfo(np.int64).max]), np.array([-1])  # a sentinel ends keys
    rnd = tried = 0

    def index(lo):
        """Add the tables lo, ..., k - 1 to the lookup."""
        nonlocal X, weights, keys, order
        while True:
            codes = tables[lo:k, X] @ weights
            s = np.argsort(codes)
            at = np.searchsorted(keys, codes[s])
            keys, order = np.insert(keys, at, codes[s]), np.insert(order, at, lo + s)
            if exact or len(X) == width or (keys[1:] != keys[:-1]).all():
                return
            clash = np.flatnonzero(keys[1:] == keys[:-1])
            diff = (tables[order[clash]] != tables[order[clash + 1]]).argmax(axis=1)
            X = np.union1d(X, diff)[:width]
            weights = n ** np.arange(len(X))
            keys, order, lo = keys[-1:], order[-1:], 0

    def fresh(cand):
        """Positions of the rows of cand that are new: stored nowhere and
        first of their kind in cand."""
        codes = cand[:, X] @ weights
        at = np.searchsorted(keys, codes)
        new, live = keys[at] != codes, ()
        if not exact:
            new, live = np.ones(len(cand), bool), np.flatnonzero(~new)
        while len(live):
            same = (cand[live] == tables[order[at[live]]]).all(axis=1)
            new[live[same]] = False
            live = live[~same]
            at[live] += 1
            live = live[keys[at[live]] == codes[live]]
        js = np.flatnonzero(new)
        if len(js) > 1:
            rows = cand[js].view(np.dtype((np.void, cand.itemsize * length))).ravel()
            js = js[np.sort(np.unique(rows, return_index=True)[1])]
        return js

    def emit(cand, head, prefix, start, tried, whole):
        """Store and yield the new rows of cand.  Row j has the parents
        prefix + (start + j,) and is argument tuple tried + j + 1 of the
        enumeration (a projection is no tuple); whole(js) evaluates the
        rows js of cand on every column."""
        nonlocal tables, full, heads, args, k
        js = fresh(cand)
        if not len(js):
            return
        over = int(js[budget - k]) if k + len(js) > budget else None
        lo, js = k, js[:budget - k]
        k += len(js)
        while k > len(heads):
            heads, args, full = (np.concatenate([a, a]) for a in (heads, args, full))
            tables = full if cols is None else np.concatenate([tables, tables])
        tables[lo:k], heads[lo:k] = cand[js], head
        args[lo:k, :len(prefix)], args[lo:k, len(prefix)] = prefix, start + js
        if cols is not None:
            step = max(1, laws.CHUNK // full.shape[1])
            for i in range(0, len(js), step):
                full[lo + i:lo + i + len(js[i:i + step])] = whole(js[i:i + step])
        index(lo)
        if len(js):
            yield full[lo:k], lambda i: TermOp(arity, tuple(full[lo + i].tolist()),
                                               witness(lo + i))
        if over is not None:
            raise CloneBudgetExceeded(f"clone budget {budget} exceeded at arity {arity}",
                                      count=budget, round=rnd,
                                      combos_tried=0 if head < 0 else tried + over + 1)

    witnesses: dict[int, tuple] = {}

    def witness(i):
        if i not in witnesses:
            if heads[i] < 0:
                witnesses[i] = ("var", int(args[i, 0]))
            else:
                op = ops[heads[i]][0]
                witnesses[i] = (op.name,) + tuple(witness(int(c)) for c in args[i, :op.arity])
        return witnesses[i]

    yield from emit(gens if cols is None else gens[:, cols], -1, (), 0, 0, lambda js: gens[js])
    rows = max(1, laws.CHUNK // length)
    prev = 0  # first index of the previous round
    while True:
        rnd += 1
        snapshot = k
        for h, (op, flat) in enumerate(ops):
            if op.arity == 0:
                if rnd == 1:
                    yield from emit(np.full((1, length), flat[0], dtype), h, (), 0, tried,
                                    lambda js: np.full((len(js), full.shape[1]), flat[0], dtype))
                    tried += 1
                continue
            weight = n ** np.arange(op.arity - 1, 0, -1)
            for prefix in itertools.product(range(snapshot), repeat=op.arity - 1):
                base = weight @ tables[list(prefix)]
                lo = 0 if prefix and max(prefix) >= prev else prev
                for start in range(lo, snapshot, rows):
                    cand = np.take(flat, base + tables[start:min(start + rows, snapshot)])
                    yield from emit(cand, h, prefix, start, tried, lambda js: np.take(
                        flat, weight @ full[list(prefix)] + full[start + js]))
                    tried += len(cand)
        if k == snapshot:
            return
        prev = snapshot


def iter_term_ops(alg: FiniteAlgebra, arity: int, budget: int = DEFAULT_CLONE_BUDGET):
    """Yield the term operations of the given arity in generation order.

    Order is breadth-first over term depth, then operations in declared
    order, then argument tuples lexicographically by discovery index, so
    the sequence (and any witness picked from it) is reproducible.
    Generators are the projections; nullary operations contribute constant
    functions in the first closure round.  Raises CloneBudgetExceeded, with
    the round reached and the argument tuples tried, if more than `budget`
    distinct operations appear.

    A round tries the tuples with an argument from the previous round.  A
    table's round never decreases with its index, so these are the tuples
    whose largest index is at least the first index of that round.  Each
    prefix of a tuple meets its last arguments in runs of at most laws.CHUNK
    entries (or one table), so memory stays bounded whatever the clone.

    The engine (_term_blocks) closes the projections at all n**arity
    argument tuples a block of new tables at a time, and this generator
    only turns them into TermOps.  A table is looked up by an exact integer
    code of its whole row when its n**arity entries of (n - 1).bit_length()
    bits fit 62 bits (every ternary table on 3 elements does), otherwise by
    a code on a growing set of coordinates, confirmed on the full row.
    """
    for rows, term in _term_blocks(alg, _projections(alg.size, arity), budget):
        yield from map(term, range(len(rows)))


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

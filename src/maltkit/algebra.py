"""Finite algebras as dense operation tables.

Elements are the integers 0..size-1.  In memory every table of every
structure of maltkit is a read-only int64 numpy array shaped by its
quantifiers, built and range-checked once by the structure's constructor
(`laws.as_table`): a k-ary operation is an array of shape (size,)*k, indexed
by its arguments, op.values[a1, ..., ak].  Constructors accept any integer
sequence in flat row-major order.

The flat order, with the *leftmost* argument most significant, so that
(a1, ..., ak) lives at index a1*size**(k-1) + ... + ak, is the exchange
contract only: files, JSON and the `table` view of an Operation.  Product
carriers are coded in the same order by `mixed_index`.

Nullary operations are arrays of shape (); they seed clone generation.
The empty algebra (size 0) is permitted and cannot carry nullary
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import CloneBudgetExceeded, InvariantViolation, SignatureError
from . import laws

DEFAULT_CLONE_BUDGET = 200_000
CODE_BITS = 62  # the clone engine looks tables up by integer codes below 2**CODE_BITS
TABLE_ENTRIES = 1 << 16  # most entries of an operation table of the clone engine on A^w
CACHE_SLOTS = 1 << 17  # most slots of the clone engine's code cache


def mixed_index(sizes, values):
    """Mixed-radix code of coordinates over heterogeneous factor sizes,
    leftmost most significant: the one encoder of product carriers.

    The values may be integers or broadcastable index arrays; with arrays the
    result is the array of codes."""
    idx = 0
    for s, v in zip(sizes, values):
        idx = idx * s + v
    return idx


def mixed_unindex(sizes, idx):
    """Inverse of mixed_index: the coordinates of a code, or of every code
    of an index array (one array per factor), as a tuple."""
    out = [0] * len(sizes)
    for i in range(len(sizes) - 1, -1, -1):
        out[i] = idx % sizes[i]
        idx = idx // sizes[i]
    return tuple(out)


def same_tables(a, b):
    """Value equality of structures, the __eq__ of every structure that holds
    tables: one class, and every compared field equal, arrays entrywise and
    nested structures alike; names are not compared."""
    if type(a) is not type(b):
        return NotImplemented
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)


def _same(u, v) -> bool:
    if isinstance(u, np.ndarray):
        return np.array_equal(u, v)
    if isinstance(u, tuple):
        return len(u) == len(v) and all(map(_same, u, v))
    return u == v


@dataclass(frozen=True, eq=False)
class Operation:
    """A named operation; inside a FiniteAlgebra its values are an array of
    shape (size,)*arity."""

    name: str
    arity: int
    values: np.ndarray

    __eq__ = same_tables
    table = property(lambda self: np.ravel(self.values), doc="flat exchange view")


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A carrier size together with named finitary operations."""

    size: int
    ops: tuple[Operation, ...]
    name: str = field(default="", compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        if self.size < 0:
            raise InvariantViolation("size-nonnegative", self.size)
        seen, ops = set(), []
        for op in self.ops:
            if op.name in seen:
                raise InvariantViolation("op-names-unique", op.name)
            seen.add(op.name)
            if op.arity < 0:
                raise InvariantViolation("op-arity-nonnegative", op.name)
            expected, length = self.size**op.arity, np.size(op.values)
            if length != expected:
                raise InvariantViolation(
                    "op-table-length", (op.name, length, expected),
                    f"table of {op.name}/{op.arity} has length {length}, expected {expected}")
            ops.append(Operation(op.name, op.arity, laws.as_table(
                op.values, (self.size,) * op.arity, self.size, "op-table-entry", None, (op.name,))))
        object.__setattr__(self, "ops", tuple(ops))

    def op(self, name: str) -> Operation:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)

    @cached_property
    def translations(self) -> np.ndarray:
        """Every elementary translation as one row of a read-only (T, size) array.

        A translation frees one argument of an operation and freezes the
        others.  Rows run over the operations in declared order, then the
        free position, then the frozen arguments in lexicographic order.
        """
        rows = [
            np.moveaxis(op.values, pos, -1).reshape(-1, self.size)
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
    n = math.prod(sizes)
    ops = []
    for name, arity in sig:
        # the factor coordinates of each argument, as open grids over the arguments
        args = [mixed_unindex(sizes, g) for g in np.ix_(*[np.arange(n)] * arity)]
        value = [alg.op(name).values[tuple(a[i] for a in args)] for i, alg in enumerate(algebras)]
        ops.append(Operation(name, arity, mixed_index(sizes, value)))
    return FiniteAlgebra(n, tuple(ops))


@dataclass(frozen=True, eq=False)
class TermOp:
    """A term operation: its values, an array of shape (n,)*arity built from
    any integer sequence of n**arity entries, plus the witness term that
    produced it."""

    arity: int
    values: np.ndarray
    witness: tuple = field(default=None, compare=False)

    __eq__ = same_tables

    def __post_init__(self):
        values = np.array(self.values, dtype=np.int64)
        shape = (round(values.size ** (1 / self.arity)),) * self.arity if self.arity else ()
        if math.prod(shape) != values.size:
            raise InvariantViolation("term-table-length", values.size)
        values = values.reshape(shape)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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
    return int(alg.op(term[0]).values[tuple(eval_term(alg, t, args) for t in term[1:])])


def _projections(n: int, arity: int) -> np.ndarray:
    """The projections of the given arity as rows over all argument tuples.

    Raises CloneBudgetExceeded, having tried nothing, before allocating
    rows whose bytes an int64 cannot count; that includes every row with
    more entries than an int64 indexes.
    """
    if arity < 0:
        raise InvariantViolation("clone-arity-nonnegative", arity)
    # n**64 alone exceeds int64 for n >= 2, so huge arities cost nothing here
    if 8 * arity * n ** min(arity, 64) > np.iinfo(np.int64).max:
        raise CloneBudgetExceeded(
            f"the projections of arity {arity} on {n} elements, {n}**{arity} entries each, "
            "exceed an int64 index", count=0, round=0, combos_tried=0)
    return np.arange(n**arity) // n ** np.arange(arity - 1, -1, -1)[:, None] % n


def _power_tables(flat, arity: int, n: int, w: int, dtype) -> list:
    """The tables of an operation of arity >= 1 on A^1, ..., A^w.

    Element p of A^j has the digits p // n**i % n, i < j, and the operation
    acts on each digit.  Splitting off the top digit, p = M*d + q with
    M = n**(j - 1), gives f(p1, ...) = M*f(d1, ...) + f(q1, ...): the table
    on A^j is a broadcast sum of those on A^1 and A^(j - 1).
    """
    out = [flat.astype(dtype, copy=False)]
    f = out[0].reshape((n, 1) * arity)
    for j in range(1, w):
        out.append((out[-1].reshape((1, n**j) * arity) + n**j * f).reshape(-1))
    return out


def _packing(n: int, widest: int, length: int) -> int:
    """The clone engine's packing width: the largest w <= length, and at
    least 1, whose table of an operation of arity widest on A^w has at most
    TABLE_ENTRIES entries."""
    w = 1
    while w < length and n ** ((w + 1) * widest) <= TABLE_ENTRIES:
        w += 1
    return w


def _term_blocks(alg: FiniteAlgebra, gens, budget: int, cols=None):
    """The clone engine behind iter_term_ops, the Maltsev search and
    abelianize.

    It closes the generator rows gens under the operations, applied
    coordinatewise.  Column j of gens is a coordinate, an argument tuple of
    length len(gens), and row i holds argument i of each: the projections
    there (_projections for a whole clone, the generators at the one
    coordinate of a subuniverse), so that every row is the table of a term
    operation on those coordinates.  Yields blocks (rows, term): rows is an
    array of the next distinct new rows in generation order, term(i) the
    TermOp of rows[i].

    A round applies each operation to the tuples of stored rows with an
    argument from the previous round, in lexicographic order.  A tuple is
    a prefix, all its arguments but the last, and a last argument; the last
    arguments of a prefix start at 0 if the prefix has an argument from the
    previous round, else at that round's first row, so the prefixes with one
    start form ranges of consecutive prefix ids.  A run of candidates is as
    many consecutive prefixes of one range as laws.CHUNK entries allow, each
    with all its last arguments, or one prefix with a slice of them when it
    alone has more.  A run is evaluated with one broadcast add of the
    prefixes' part of the table indices to the last arguments' part and
    one gather, in the smallest integer dtype that indexes the table.  Its
    new rows are found, deduplicated and stored with array operations; a
    stored row keeps only its parents (head, argument indices), read off
    its position in the run, and its witness term is expanded when term()
    asks for it.  If a run holds more new rows than the budget allows, the
    block of those that fit comes first and CloneBudgetExceeded is raised
    on the next step.

    Rows are stored packed: every w consecutive coordinates, the last
    stretch possibly shorter, are one element of the power A^w, its base-n
    digits in coordinate order (_packing picks w; w = 1 leaves rows as they
    are).  The tables of every operation on A^w, and on A^r for a shorter
    last stretch, are built once and gathered from; only the new rows are
    unpacked to rows of A.

    A candidate is looked up by an integer code of its packed elements at
    a set X of packed columns in the sorted codes of every stored row.
    When a whole row fits CODE_BITS, X is every column and the code is the
    row read as a base-n number, coordinate j of weight n**j; a
    direct-mapped cache of the stored codes, whose slot is a multiplicative
    hash of the code, answers first, and only its misses reach the sorted
    codes, which decide.  Otherwise X grows while two stored rows share a
    code, and every code hit is confirmed on the whole packed row.

    Given cols, candidates are evaluated and told apart on those columns
    only, and a new row is evaluated whole once, from its parents, in
    pieces of at most laws.CHUNK entries.  The rows stay exact; the
    enumeration is that of all columns if distinct rows of the closure
    differ on cols.
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
    length = gens.shape[1] if cols is None else len(cols)
    widest = max([op.arity for op in alg.ops] + [1])
    w = _packing(n, widest, length)
    r = length % w  # the length of a shorter last stretch, if any
    G = -(-length // w)  # packed columns
    # the width of each packed column; one entry stands for all when they agree
    spans = np.array([w] * (G - 1) + [r] if r else [w])
    N = n**w
    packed = np.min_scalar_type(N - 1)  # the dtype of an element of A^w
    digits = (np.arange(N)[:, None] // n ** np.arange(w) % n).astype(dtype)  # of A^w

    def pack(rows):
        if w == 1:
            return rows
        padded = np.zeros((len(rows), G * w), np.int64)
        padded[:, :length] = rows
        return (padded.reshape(len(rows), G, w) @ n ** np.arange(w)).astype(packed)

    def unpack(rows):
        if w == 1:
            return rows
        return np.take(digits, rows, axis=0).reshape(len(rows), G * w)[:, :length]

    # (op, table on A, tables on A^w and A^r for a shorter last stretch, the
    # weights of a packed column on them and its offset, in the smallest
    # dtype that indexes those tables)
    ops = []
    for op in alg.ops:
        flat = op.table.astype(dtype)
        if op.arity == 0:
            ops.append((op, flat, None, None, None))
            continue
        powers = _power_tables(flat, op.arity, n, w, packed)
        power = np.concatenate([powers[-1], powers[r - 1]]) if r else powers[-1]
        index = np.min_scalar_type(len(power) - 1)
        ops.append((op, flat, power,
                    (n ** (spans * np.arange(op.arity - 1, 0, -1)[:, None])).astype(index),
                    np.where(spans == w, 0, len(powers[-1])).astype(index)[None]))
    tables = np.empty((16, G), packed)  # packed rows (on cols, if given)
    full = np.empty((16 if cols is not None else 0, gens.shape[1]), dtype)  # whole rows, for cols
    heads = np.empty(16, np.intp)  # -1 for a projection, else the index of the operation
    args = np.empty((16, widest), np.intp)
    k = 0
    # keys holds the sorted codes of the stored rows and order their indices
    # (rows with equal codes sit next to each other).  Slot i of the cache
    # holds the exact code slot_code[i] of a stored row, or -1; the cache
    # grows with the stored rows up to CACHE_SLOTS slots.
    width = max(1, CODE_BITS // max(1, (N - 1).bit_length()))
    exact = length <= CODE_BITS // max(1, (n - 1).bit_length())
    X = slice(None) if exact else np.zeros(1, np.intp)
    weights = N ** np.arange(G if exact else 1)
    keys, order = np.array([np.iinfo(np.int64).max]), np.array([-1])  # a sentinel ends keys
    slot_code, shift = np.full(2, -1, np.int64), np.uint64(63)
    rnd = tried = 0

    def slot(codes):
        return (codes.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> shift

    def index(lo):
        """Add the tables lo, ..., k - 1 to the lookup."""
        nonlocal X, weights, keys, order, slot_code, shift
        while True:
            codes = tables[lo:k, X] @ weights
            s = np.argsort(codes)
            at = np.searchsorted(keys, codes[s])
            keys, order = np.insert(keys, at, codes[s]), np.insert(order, at, lo + s)
            if exact or len(X) == width or (keys[1:] != keys[:-1]).all():
                break
            clash = np.flatnonzero(keys[1:] == keys[:-1])
            diff = (tables[order[clash]] != tables[order[clash + 1]]).argmax(axis=1)
            X = np.union1d(X, diff)[:width]
            weights = N ** np.arange(len(X))
            keys, order, lo = keys[-1:], order[-1:], 0
        if not exact:
            return
        if len(slot_code) < min(8 * k, CACHE_SLOTS):
            size = min(CACHE_SLOTS, 1 << max(10, (8 * k).bit_length()))
            slot_code, shift = np.full(size, -1, np.int64), np.uint64(65 - size.bit_length())
            codes = tables[:k] @ weights
        slot_code[slot(codes)] = codes

    def fresh(cand):
        """Positions of the rows of cand that are new: stored nowhere and
        first of their kind in cand."""
        codes = cand[:, X] @ weights
        rest = np.flatnonzero(slot_code[slot(codes)] != codes) if exact else np.arange(len(cand))
        if not len(rest):
            return rest
        codes = codes[rest]
        at = np.searchsorted(keys, codes)
        new, live = keys[at] != codes, ()
        if not exact:
            new, live = np.ones(len(rest), bool), np.flatnonzero(~new)
        while len(live):
            same = (cand[rest[live]] == tables[order[at[live]]]).all(axis=1)
            new[live[same]] = False
            live = live[~same]
            at[live] += 1
            live = live[keys[at[live]] == codes[live]]
        js = rest[new]
        if len(js) > 1:
            rows = cand[js].view(np.dtype((np.void, cand.itemsize * cand.shape[1]))).ravel()
            js = js[np.sort(np.unique(rows, return_index=True)[1])]
        return js

    def whole(head, parents):
        """The rows with the given head and parents (index arrays, one per
        argument; a projection's is its variable) on every column."""
        if head < 0:
            return gens[parents[0]]
        flat = ops[head][1]
        if not parents:
            return flat[0]
        at = full[parents[0]].astype(np.int64)
        for p in parents[1:]:
            at *= n
            at += full[p]
        return np.take(flat, at)

    def emit(cand, head, tried, parents):
        """Store and yield the new rows of the packed candidates cand.  Row
        j is argument tuple tried + j + 1 of the enumeration (a projection
        is no tuple), and parents(js) gives the parents of the rows js as
        index arrays, one per argument."""
        nonlocal tables, full, heads, args, k
        js = fresh(cand)
        if not len(js):
            return
        over = int(js[budget - k]) if k + len(js) > budget else None
        lo, js = k, js[:budget - k]
        k += len(js)
        while k > len(heads):
            heads, args, tables, full = (np.concatenate([a, a])
                                         for a in (heads, args, tables, full))
        tables[lo:k], heads[lo:k] = cand[js], head
        pa = parents(js)
        for i, p in enumerate(pa):
            args[lo:k, i] = p
        if cols is None:
            block = unpack(tables[lo:k])
        else:
            step = max(1, laws.CHUNK // full.shape[1])
            for i in range(0, len(js), step):
                full[lo + i:lo + i + len(js[i:i + step])] = whole(
                    head, [p[i:i + step] for p in pa])
            block = full[lo:k]
        index(lo)
        if len(js):
            yield block, lambda i: TermOp(arity, block[i], witness(lo + i))
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

    def groups(m):
        """The ranges [a, b) of prefix ids, lexicographic over m arguments
        below snapshot, whose last arguments all start at one lo: 0 if the
        prefix has an argument from the previous round, else prev."""
        if m == 0:
            return [(0, 1, prev)]
        size, sub, out = snapshot ** (m - 1), groups(m - 1), []
        for a, b, lo in [(c * size + a, c * size + b, lo) for c in range(prev)
                         for a, b, lo in sub] + [(prev * size, snapshot * size, 0)]:
            if out and out[-1][2] == lo:
                a = out.pop()[0]
            out.append((a, b, lo))
        return out

    def prefixes(first, count, m):
        """The arguments of the prefixes first, ..., first + count - 1 of m
        arguments, as m index arrays: the digits of first plus a range."""
        out, carry = [], np.arange(count)
        for _ in range(m):
            first, digit = divmod(first, snapshot)
            carry, d = np.divmod(digit + carry, snapshot)
            out.append(d)
        return out[::-1]

    yield from emit(pack(gens if cols is None else gens[:, cols]), -1, 0, lambda js: [js])
    rows = max(1, laws.CHUNK // G)
    prev = 0  # first index of the previous round
    while True:
        rnd += 1
        snapshot = k
        for h, (op, flat, power, radix, offset) in enumerate(ops):
            if op.arity == 0:
                if rnd == 1:
                    yield from emit(pack(np.full((1, length), flat[0])), h, tried,
                                    lambda js: [])
                    tried += 1
                continue
            m = op.arity - 1
            for a, b, lo in groups(m):
                # a run is P prefixes times every last argument, or one
                # prefix times a slice of them, within rows candidates
                P = max(1, rows // max(1, snapshot - lo))
                for first in range(a, b, P):
                    pre = prefixes(first, min(P, b - first), m)
                    base = sum((c * tables[d] for c, d in zip(radix, pre)), offset)
                    for start in range(lo, snapshot, rows):
                        last = tables[start:min(start + rows, snapshot)]
                        L = len(last)
                        # indexing casts the narrow indices a buffer at a
                        # time, where np.take would copy them all to intp
                        cand = power[(base[:, None] + last).reshape(-1, G)]
                        yield from emit(cand, h, tried, lambda js: [
                            d[js // L] for d in pre] + [start + js % L])
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
    whose largest index is at least the first index of that round.  The
    engine evaluates them in runs of consecutive prefixes (all arguments
    but the last), each with all its last arguments, or of one prefix with
    a slice of them, at most laws.CHUNK entries (or one table) a run, so
    memory stays bounded whatever the clone and the numpy calls per round
    do not grow with the number of prefixes.

    The engine (_term_blocks) closes the projections at all n**arity
    argument tuples a block of new tables at a time, and this generator
    only turns them into TermOps.  It keeps each table packed, w entries to
    one element of A^w (w = 5 on 3 elements and 2 on 8 to 16 elements when
    the widest operation is binary, 1 on the 64-element free affinities
    with their ternary herd), and evaluates every operation through its
    table on A^w.  A candidate table is looked up by an integer code in the
    sorted codes of all stored tables: an exact code of the whole row when
    its n**arity entries of (n - 1).bit_length() bits fit 62 bits (every
    ternary table on 3 elements does), which a direct-mapped cache answers
    first, otherwise a code on a growing set of packed columns, confirmed
    on the full row.
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
        {"arity": t.arity, "table": t.values.ravel().tolist(), "witness": t.term_str()}
        for t in clone
    ]

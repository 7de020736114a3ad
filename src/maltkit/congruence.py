"""Partitions-as-congruences: generation, joins, quotients.

A congruence is stored canonically as a block-index array: blocks are
numbered by their least element (the block of 0 is block 0, the next new
block is 1, and so on), which makes equality of congruences equality of
tuples.  Generation and compatibility checks run as array operations over
the algebra's cached translation array (`FiniteAlgebra.translations`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra, Operation
from .errors import InvariantViolation, NotACongruence

@dataclass(frozen=True)
class Congruence:
    size: int
    block_index: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_index) != self.size:
            raise InvariantViolation("congruence-length", len(self.block_index))
        nxt = 0
        for b in self.block_index:
            if b > nxt:
                raise InvariantViolation("congruence-canonical", self.block_index)
            if b == nxt:
                nxt += 1
        # surjectivity onto 0..nblocks-1 is implied by the canonical numbering

    @classmethod
    def from_labels(cls, labels) -> "Congruence":
        """Canonicalise an arbitrary element->label map (first occurrence order)."""
        relabel: dict = {}
        out = tuple(relabel.setdefault(lab, len(relabel)) for lab in labels)
        return cls(len(out), out)

    @classmethod
    def diagonal(cls, size: int) -> "Congruence":
        return cls(size, tuple(range(size)))

    @classmethod
    def total(cls, size: int) -> "Congruence":
        return cls(size, (0,) * size)

    @classmethod
    def from_blocks(cls, size: int, blocks) -> "Congruence":
        labels = {}
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < size or x in labels:
                    raise InvariantViolation("blocks-partition", x)
                labels[x] = i
        if len(labels) < size:
            least_missing = next(x for x in range(size) if x not in labels)
            raise InvariantViolation("blocks-cover-carrier", least_missing)
        return cls.from_labels([labels[x] for x in range(size)])

    @property
    def nblocks(self) -> int:
        return max(self.block_index) + 1 if self.size else 0

    def same(self, a: int, b: int) -> bool:
        return self.block_index[a] == self.block_index[b]

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.nblocks)]
        for x, b in enumerate(self.block_index):
            out[b].append(x)
        return out

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        return len(set(zip(self.block_index, other.block_index))) == self.nblocks

    def is_diagonal(self) -> bool:
        return self.nblocks == self.size

    def is_total(self) -> bool:
        return self.nblocks <= 1


def _merge(roots: np.ndarray, u, v) -> np.ndarray:
    """Join the blocks of u[i] and v[i] in the root array, in place.

    roots[x] is the least element of the block of x.  Each round takes the
    pairs whose roots differ, deduplicated as one 1-D unique of a*n + b,
    hooks every root onto the least root it meets among them and then
    compresses paths.  Returns the elements that stopped being roots.
    """
    n = roots.size
    ident = np.arange(n)
    was_root = roots == ident
    while True:
        ru, rv = roots[u], roots[v]
        split = ru != rv
        if not split.any():
            break
        ru, rv = ru[split], rv[split]
        u, v = np.divmod(np.unique(np.minimum(ru, rv) * n + np.maximum(ru, rv)), n)
        np.minimum.at(roots, v, u)
        while True:
            up = roots[roots]
            if np.array_equal(up, roots):
                break
            roots[:] = up
    return np.flatnonzero(was_root & (roots != ident))


def _generate(translations: np.ndarray, size: int, u, v) -> np.ndarray:
    """Root array of the least congruence containing the pairs (u[i], v[i]).

    The algebra is given by its elementary translations.  Every element x
    that stops being a root is paired with its root r, and the pairs
    (t(x), t(r)) are merged for every translation t at once; the fixpoint is
    reached when a round stops no root.  These pairs generate the
    equivalence, so the result is compatible, and each merge is forced, so
    it is the least such.  Every element is pushed through the translations
    at most once.
    """
    roots = np.arange(size)
    moved = _merge(roots, u, v)
    while moved.size:
        # column-major ravels copy nothing from Fortran-ordered translations
        moved = _merge(roots, translations[:, moved].ravel(order="F"),
                       translations[:, roots[moved]].ravel(order="F"))
    return roots


def _from_roots(roots: np.ndarray) -> Congruence:
    """Canonical congruence of a root array (blocks numbered by least element)."""
    number = np.cumsum(roots == np.arange(roots.size)) - 1
    return Congruence(roots.size, tuple(number[roots].tolist()))


def _first_elements(cong: Congruence) -> np.ndarray:
    """Root array of a congruence: the least element of each element's block."""
    labels = np.asarray(cong.block_index, dtype=np.int64)
    _, first = np.unique(labels, return_index=True)
    return first[labels]


def congruence_violation(alg: FiniteAlgebra, cong: Congruence):
    """First incompatibility witness (t, a, b), or None.

    Compatibility with every operation is equivalent to closure under the
    elementary translations: every translation must send each element and
    the least element of its block to one block.  Only when that fails is
    the witness looked up: the first translation in row order, then the
    lexicographically first pair a < b it splits.
    """
    if cong.size != alg.size:
        raise InvariantViolation("congruence-size", cong.size)
    labels = np.asarray(cong.block_index, dtype=np.int64)
    images = labels[alg.translations]
    split = images != images[:, _first_elements(cong)]
    if not split.any():
        return None
    t = int(np.argmax(split.any(axis=1)))
    row = images[t]
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            if cong.same(a, b) and row[a] != row[b]:
                return (tuple(alg.translations[t].tolist()), a, b)


def cg(alg: FiniteAlgebra, pairs) -> Congruence:
    """Least congruence containing the given pairs.

    Array closure over the algebra's cached translation array (R. Freese,
    "Computing congruences efficiently", Algebra Universalis 59, 2008): see
    `_generate`.
    """
    pairs = [tuple(p) for p in pairs]
    for a, b in pairs:
        if not (0 <= a < alg.size and 0 <= b < alg.size):
            raise InvariantViolation("pair-in-carrier", (a, b))
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    return _from_roots(_generate(alg.translations, alg.size, u, v))


def join(alg: FiniteAlgebra, c1: Congruence, c2: Congruence) -> Congruence:
    """Join in the congruence lattice: the congruence generated by the union."""
    if c1.size != c2.size or c1.size != alg.size:
        raise InvariantViolation("join-same-carrier", (c1.size, c2.size, alg.size))
    roots = np.arange(alg.size)
    _merge(roots, np.tile(roots, 2), np.concatenate([_first_elements(c1), _first_elements(c2)]))
    # the transitive closure of a union of congruences is already compatible
    return _from_roots(roots)


def principal_congruences(alg: FiniteAlgebra) -> list[Congruence]:
    out = []
    seen = set()
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            c = cg(alg, [(a, b)])
            if c.block_index not in seen:
                seen.add(c.block_index)
                out.append(c)
    return out


def quotient(alg: FiniteAlgebra, theta: Congruence):
    """Quotient algebra and projection map; raises NotACongruence when unfit."""
    witness = congruence_violation(alg, theta)
    if witness is not None:
        raise NotACongruence(f"partition is not a congruence (witness {witness})")
    proj = np.asarray(theta.block_index)
    _, reps = np.unique(proj, return_index=True)
    ops = tuple(Operation(op.name, op.arity, proj[op.values[np.ix_(*[reps] * op.arity)]])
                for op in alg.ops)
    return FiniteAlgebra(theta.nblocks, ops), theta.block_index

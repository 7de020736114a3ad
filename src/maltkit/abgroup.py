"""Finite abelian groups given by addition tables, plus hom/iso enumeration
and integer Smith normal form.  A group holds its addition as a read-only
(size, size) array and its negation as a (size,) array (see `algebra`)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import same_tables
from .errors import InvariantViolation
from .laws import as_table, require


@dataclass(frozen=True, eq=False)
class AbelianGroup:
    size: int
    addition: np.ndarray  # (size, size)

    __eq__ = same_tables

    def __post_init__(self):
        n = self.size
        add = as_table(self.addition, (n, n), n, "abgroup-entry", "abgroup-table-length")
        object.__setattr__(self, "addition", add)
        units = np.flatnonzero((add == np.arange(n)).all(axis=1))
        if not units.size:
            raise InvariantViolation("abgroup-zero", tuple(add.ravel().tolist()))
        zero = int(units[0])
        inverse = add == zero
        missing = np.flatnonzero(~inverse.any(axis=1))
        if missing.size:
            raise InvariantViolation("abgroup-inverses", int(missing[0]))
        require((n, n, n), [
            ("abgroup-commutative", lambda a, b: add[a, b] == add[b, a]),
            ("abgroup-associative", lambda a, b, c: add[add[a, b], c] == add[a, add[b, c]]),
        ])
        neg = inverse.argmax(axis=1)
        neg.setflags(write=False)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "neg", neg)

    def minus(self, a: int, b: int) -> int:
        return int(self.addition[a, self.neg[b]])

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls(n, tuple((a + b) % n for a in range(n) for b in range(n)))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls.cyclic(1)


def generating_sequence(g: AbelianGroup) -> list[int]:
    """Greedy generating sequence: extend whenever an element is not yet spanned."""
    add = g.addition.tolist()  # Python lists for the scalar loop
    span = {g.zero}
    gens = []
    for x in range(g.size):
        if x in span:
            continue
        gens.append(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for s in list(span):
                v = add[s][y]
                if v not in span:
                    span.add(v)
                    frontier.append(v)
            if y not in span:
                span.add(y)
    return gens


def extend_additive(src: AbelianGroup, dst: AbelianGroup, images):
    """Fold (element, image) pairs into a map src -> dst, closing under
    addition after each pair.

    Returns (table, conflict): table[x] is the image of x, None where the
    pairs do not reach x; conflict is the first element found with two
    different images, and None when there is none.
    """
    sadd, dadd = src.addition.tolist(), dst.addition.tolist()  # lists for the scalar loop
    table = [None] * src.size
    table[src.zero] = dst.zero
    frontier = [src.zero]
    for x, img in images:
        if table[x] is None:
            table[x] = img
            frontier.append(x)
        elif table[x] != img:
            return table, x
        while frontier:
            y = frontier.pop()
            for u in range(src.size):
                if table[u] is None:
                    continue
                v = sadd[u][y]
                w = dadd[table[u]][table[y]]
                if table[v] is None:
                    table[v] = w
                    frontier.append(v)
                elif table[v] != w:
                    return table, v
    return table, None


def additive_maps(src: AbelianGroup, dst: AbelianGroup) -> list[tuple[int, ...]]:
    """All group homomorphisms src -> dst as value tables, in a stable order.

    Enumerated over images of a generating sequence; each candidate is
    extended by closure and rejected on the first conflict, so the cost is
    |dst|**len(gens) candidate extensions.

    A complete table without conflict is a homomorphism: extend_additive
    pushes every element that gets an image exactly once, and popping y
    checks u + y against every u that already has an image.  Of any pair
    u, y the element popped later finds the other with an image (it got
    one before it was pushed), so it checks their sum; a checked entry is
    never changed.
    """
    gens = generating_sequence(src)
    out = []
    for images in itertools.product(range(dst.size), repeat=len(gens)):
        table, conflict = extend_additive(src, dst, zip(gens, images))
        if conflict is None and None not in table:
            out.append(tuple(table))
    return out


def isomorphisms(src: AbelianGroup, dst: AbelianGroup) -> list[tuple[int, ...]]:
    if src.size != dst.size:
        return []
    return [
        h for h in additive_maps(src, dst) if len(set(h)) == src.size
    ]


def smith_normal_form(matrix: list[list[int]], ncols: int):
    """Diagonalise an integer relation matrix by row/column operations.

    Returns (diag, V) where diag has length ncols and V is the accumulated
    column-operation matrix: for the row lattice L of `matrix`, z ~ z'
    modulo L iff (z - z')V is componentwise divisible by diag.  Only the
    column transform is tracked; row operations do not change the lattice.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]  # V stored transposed: V[c] is column c of the transform

    def addmul_col(dst, src, k):
        for r in rows:
            r[dst] += k * r[src]
        for t in range(ncols):
            V[dst][t] += k * V[src][t]

    def swap_rows(i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def addmul_row(dst, src, k):
        for t in range(ncols):
            rows[dst][t] += k * rows[src][t]

    diag = [0] * ncols
    t = 0
    while t < ncols and t < nrows:
        # pick the minimal nonzero pivot in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if rows[i][j] != 0 and (
                    pivot is None or abs(rows[i][j]) < abs(rows[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            done = True
            for i in range(t + 1, nrows):
                if rows[i][t] % rows[t][t] != 0:
                    addmul_row(i, t, -(rows[i][t] // rows[t][t]))
                    swap_rows(t, i)
                    done = False
            for i in range(t + 1, nrows):
                if rows[i][t]:
                    addmul_row(i, t, -(rows[i][t] // rows[t][t]))
            for j in range(t + 1, ncols):
                if rows[t][j] % rows[t][t] != 0:
                    addmul_col(j, t, -(rows[t][j] // rows[t][t]))
                    swap_cols(t, j)
                    done = False
            for j in range(t + 1, ncols):
                if rows[t][j]:
                    addmul_col(j, t, -(rows[t][j] // rows[t][t]))
            if done and all(rows[i][t] == 0 for i in range(t + 1, nrows)) and all(
                rows[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
        diag[t] = abs(rows[t][t])
        t += 1
    # V was maintained transposed; hand back column vectors
    return diag, V

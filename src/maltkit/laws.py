"""The exhaustive law-checking kernel behind every construction-time check.

A law is an identity quantified over finite index ranges.
``first_violation(sizes, laws)`` takes the ranges of the quantified
variables v0, ..., v(k-1) and an ordered list of ``(name, holds)`` pairs.
``holds`` takes the first j variables, j being its number of parameters, as
integer index arrays that broadcast against each other (the leading ones may
be plain ints), and returns where the identity holds, usually the comparison
of its two sides evaluated by table lookups.  A ``holds`` taking ``*args``
gets all k variables.

Witness order is that of nested loops over v0, ..., v(k-1):

- the witness is the lexicographically first failing tuple of (v0, ..., v(k-1));
- at one tuple, laws are tried in their declared order;
- a law over a prefix v0, ..., v(j-1) of the variables holds or fails on every
  tuple that extends its own, so it first fails at its tuple padded with the
  first value of each missing variable, as a check placed before the inner
  loops would; its witness is its own j variables.

A quantifier with an empty range has no tuples and therefore no violation;
with no quantifiers there is one tuple, ().

The tuples are evaluated in chunks of consecutive tuples along the leading
axes.  No index array, and no temporary of a ``holds`` built from lookups and
comparisons, holds more than ``CHUNK`` entries, so memory stays bounded
whatever the sizes.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from .errors import InvariantViolation

CHUNK = 1 << 18


def _reads(holds, k):
    """How many leading variables a law reads; one taking *args reads all k."""
    params = inspect.signature(holds).parameters.values()
    return k if any(p.kind is p.VAR_POSITIONAL for p in params) else len(params)


def first_violation(sizes, laws):
    """The first ``(law name, witness)`` in the order above, or None."""
    sizes = tuple(sizes)
    if min(sizes, default=1) <= 0:
        return None
    if not sizes:
        return next(((name, ()) for name, holds in laws if not np.all(holds())), None)
    k = len(sizes)
    laws = [(name, holds, _reads(holds, k)) for name, holds in laws]
    # Axes after `cut` are whole in every chunk, axis `cut` is split into
    # steps, and the axes before it are looped over one value at a time.
    cut = k - 1
    while cut > 0 and math.prod(sizes[cut:]) <= CHUNK:
        cut -= 1
    step = CHUNK // math.prod(sizes[cut + 1:])
    grids = [np.arange(s).reshape((-1,) + (1,) * (k - 1 - i)) for i, s in enumerate(sizes)]
    for lead in itertools.product(*map(range, sizes[:cut])):
        for lo in range(0, sizes[cut], step):
            hi = min(lo + step, sizes[cut])
            idx = list(lead) + [grids[cut][lo:hi]] + grids[cut + 1:]
            shape = (hi - lo,) + sizes[cut + 1:]
            first = None
            for name, holds, j in laws:
                ok = np.broadcast_to(holds(*idx[:j]), shape)
                if not ok.all():
                    pos = int(np.argmin(ok))
                    if first is None or pos < first[0]:
                        first = (pos, name, j)
            if first is not None:
                pos, name, j = first
                offset = np.unravel_index(pos, shape)
                witness = lead + (lo + int(offset[0]),) + tuple(int(v) for v in offset[1:])
                return name, witness[:j]
    return None


def require(sizes, laws):
    """Raise InvariantViolation(law, witness) at the first violation; the
    witness of a law over one variable is that variable's value."""
    hit = first_violation(sizes, laws)
    if hit is not None:
        law, witness = hit
        raise InvariantViolation(law, witness[0] if len(witness) == 1 else witness)


def require_range(law, values, size):
    """Raise InvariantViolation(law, v) at the first entry v outside range(size).

    Runs before any law reads the table, so that a bad entry is reported as
    such rather than used as an index."""
    for v in values:
        if not 0 <= v < size:
            raise InvariantViolation(law, v)

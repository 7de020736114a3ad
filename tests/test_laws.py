"""The law kernel against the brute-force loops of law_oracle."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from law_oracle import affinity_violation, monoid_extension_violation, ring_violation
from maltkit.abgroup import AbelianGroup
from maltkit.affinity import affinity_axiom_check, canonical_affinity_tables
from maltkit.errors import InvariantViolation
from maltkit.laws import CHUNK, first_violation
from maltkit.monoid import (
    MonoidExtension, constant_system, counterexample_monoid, trivial_extension,
)
from maltkit.rings import FiniteRing, cyclic_ring, dual_numbers_f2
from maltkit.specfile import parse_files

from conftest import form_corpus

DATA = Path(__file__).parent / "data"

FORMS = [f for name, f in form_corpus() if name in ("id-Z2", "zero-map-Z2", "Z2-into-Z4")]
RINGS = [cyclic_ring(3), cyclic_ring(4), dual_numbers_f2(), cyclic_ring(6)]


def _extensions():
    mon, system = counterexample_monoid()
    return [
        parse_files([str(DATA / "monoid.ext")]).extensions["E"],
        trivial_extension(mon, system),
        trivial_extension(mon, constant_system(mon, AbelianGroup.cyclic(3))),
    ]


EXTENSIONS = _extensions()


def corrupted(data, table, size):
    """The table with one to three entries replaced by values in range(size)."""
    table = list(table)
    for _ in range(data.draw(st.integers(1, 3))):
        table[data.draw(st.integers(0, len(table) - 1))] = data.draw(st.integers(0, size - 1))
    return tuple(table)


def raised(build):
    try:
        build()
    except InvariantViolation as exc:
        return exc.law, exc.witness
    return None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_affinity_witness_matches_oracle(data):
    form = data.draw(st.sampled_from(FORMS))
    n, *tables = (np.asarray(t).tolist() for t in canonical_affinity_tables(form, 2))
    which = data.draw(st.integers(0, 2))
    tables[which] = corrupted(data, tables[which], n)
    report = affinity_axiom_check(form, n, *tables)
    got = None if report.ok else (report.law, report.witness)
    assert got == affinity_violation(form, n, *tables)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ring_witness_matches_oracle(data):
    R = data.draw(st.sampled_from(RINGS))
    add, mul = R.add, R.mul
    if data.draw(st.booleans()):
        mul = corrupted(data, mul, R.size)
    else:
        add = corrupted(data, add, R.size)
    got = raised(lambda: FiniteRing(R.size, add, mul, R.zero, R.one))
    assert got == ring_violation(R.size, add, mul, R.zero, R.one)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monoid_extension_witness_matches_oracle(data):
    ext = data.draw(st.sampled_from(EXTENSIONS))
    proj, actions = ext.proj, list(ext.actions)
    if data.draw(st.integers(0, 4)) == 0:
        proj = corrupted(data, proj, ext.base.size)
    else:
        b = data.draw(st.integers(0, len(actions) - 1))
        actions[b] = corrupted(data, actions[b], ext.total.size)
    got = raised(lambda: MonoidExtension(ext.total, ext.base, proj, ext.system, tuple(actions)))
    assert got == monoid_extension_violation(ext.total, ext.base, proj, ext.system, actions)


@pytest.mark.parametrize("sizes", [(3, CHUNK + 5), (2, 700, 700), (CHUNK // 4 + 1, 9)])
def test_chunk_boundaries_keep_lexicographic_order(sizes):
    """Violations planted on both sides of a chunk boundary: the first one
    in lexicographic order is reported, whichever law it belongs to."""
    last = tuple(s - 1 for s in sizes)
    middle = tuple(s // 2 for s in sizes)

    def at(point):  # a law failing at `point` only
        if len(point) == 2:
            return lambda a, b: (a != point[0]) | (b != point[1])
        return lambda a, b, c: (a != point[0]) | (b != point[1]) | (c != point[2])

    laws = [("late", at(last)), ("middle", at(middle))]
    assert first_violation(sizes, laws) == ("middle", middle)
    assert first_violation(sizes, laws[:1]) == ("late", last)
    # a law over the first variable fails at its tuple padded with zeros
    prefix = ("prefix", lambda a: a != middle[0])
    assert first_violation(sizes, [laws[1], prefix]) == ("prefix", middle[:1])

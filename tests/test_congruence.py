import itertools

import pytest
from hypothesis import given, settings, strategies as st

from maltkit.algebra import FiniteAlgebra, Operation, product
from maltkit.catalog import cyclic_group, group_maltsev_term, klein_four
from maltkit.congruence import (
    Congruence,
    all_congruences,
    cg,
    compose,
    congruence_violation,
    is_congruence,
    join,
    meet,
    quotient,
    quotient_congruence,
)
from maltkit.errors import LatticeBudgetExceeded, NotACongruence

import law_oracle


def set_partitions(n):
    """All partitions of {0..n-1} as canonical label tuples (test oracle)."""
    if n == 0:
        yield ()
        return
    for smaller in set_partitions(n - 1):
        k = max(smaller) + 1 if smaller else 0
        for b in range(k + 1):
            yield smaller + (b,)


def lattice_by_filter(alg):
    """Oracle: filter every partition of the carrier for compatibility."""
    out = []
    for labels in set_partitions(alg.size):
        c = Congruence.from_labels(labels)
        if is_congruence(alg, c):
            out.append(c)
    return sorted(out, key=lambda c: c.block_index)


def test_canonical_form():
    c = Congruence.from_labels([7, 3, 7, 3])
    assert c.block_index == (0, 1, 0, 1)
    with pytest.raises(Exception):
        Congruence(3, (1, 0, 0))


def test_cg_examples(z4):
    assert cg(z4, []) == Congruence.diagonal(4)
    assert cg(z4, [(0, 2)]).blocks() == [[0, 2], [1, 3]]
    every = [(a, b) for a in range(4) for b in range(4)]
    assert cg(z4, every) == Congruence.total(4)


def test_cg_output_is_congruence(z4):
    for a in range(4):
        for b in range(4):
            assert congruence_violation(z4, cg(z4, [(a, b)])) is None


@st.composite
def algebras_with_pairs(draw):
    """A random algebra on at most 5 elements with a nullary, a unary, a
    binary and a ternary operation, and a few pairs of its elements."""
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)
    ops = tuple(
        Operation(name, k, tuple(draw(st.lists(element, min_size=n**k, max_size=n**k))))
        for name, k in (("c", 0), ("u", 1), ("b", 2), ("t", 3))
    )
    pairs = draw(st.lists(st.tuples(element, element), max_size=4))
    return FiniteAlgebra(n, ops), pairs


@given(algebras_with_pairs())
@settings(max_examples=60, deadline=None)
def test_cg_compatibility_random_algebra(case):
    """cg is the meet of every congruence that contains the pairs."""
    alg, pairs = case
    c = cg(alg, pairs)
    assert congruence_violation(alg, c) is None
    for a, b in pairs:
        assert c.same(a, b)
    least = Congruence.total(alg.size)
    for d in lattice_by_filter(alg):
        if all(d.same(a, b) for a, b in pairs):
            least = meet(least, d)
    assert c == least


@given(algebras_with_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_congruence_violation_matches_oracle(case, data):
    alg, _ = case
    labels = data.draw(st.lists(st.integers(0, alg.size - 1), min_size=alg.size,
                                max_size=alg.size))
    cong = Congruence.from_labels(labels)
    assert congruence_violation(alg, cong) == law_oracle.congruence_violation(
        alg, cong.block_index)


def test_meet_join_units(z4):
    theta = cg(z4, [(0, 2)])
    assert meet(theta, Congruence.total(4)) == theta
    assert join(z4, theta, Congruence.diagonal(4)) == theta


def test_klein_coordinate_kernels():
    v4 = klein_four()
    k1 = cg(v4, [(0, 1)])  # kernel of first coordinate: 0~1, 2~3
    k2 = cg(v4, [(0, 2)])
    assert join(v4, k1, k2) == Congruence.total(4)
    assert meet(k1, k2) == Congruence.diagonal(4)


def test_compose_equals_join_on_maltsev(z4):
    lattice = all_congruences(z4)
    for c1 in lattice:
        for c2 in lattice:
            assert compose(c1, c2) == join(z4, c1, c2).relation()


def test_all_congruences_z4_against_partition_filter(z4):
    enumerated = list(all_congruences(z4))
    assert len(enumerated) == 3
    assert enumerated == lattice_by_filter(z4)


def test_all_congruences_klein_against_partition_filter():
    v4 = klein_four()
    enumerated = list(all_congruences(v4))
    assert len(enumerated) == 5
    assert enumerated == lattice_by_filter(v4)


def test_all_congruences_one_element():
    one = FiniteAlgebra(1, ())
    assert list(all_congruences(one)) == [Congruence.diagonal(1)]


def test_all_congruences_budget():
    # every partition of an operation-free carrier is a congruence: Bell(5) = 52
    assert len(all_congruences(FiniteAlgebra(5, ()))) == 52
    # the 4,140 partitions of 8 elements take far more joins than the budget
    with pytest.raises(LatticeBudgetExceeded) as exc:
        all_congruences(FiniteAlgebra(8, ()), budget=1_000)
    assert exc.value.count == 1_000


def test_lattice_laws(z4):
    v4 = klein_four()
    for alg in (z4, v4):
        lattice = all_congruences(alg)
        for a in lattice:
            for b in lattice:
                assert meet(a, b) == meet(b, a)
                assert join(alg, a, b) == join(alg, b, a)
                assert meet(a, join(alg, a, b)) == a
                assert join(alg, a, meet(a, b)) == a
                for c in lattice:
                    assert meet(meet(a, b), c) == meet(a, meet(b, c))
                    assert join(alg, join(alg, a, b), c) == join(alg, a, join(alg, b, c))


def test_quotient_z4_mod_2(z4):
    theta = cg(z4, [(0, 2)])
    q, proj = quotient(z4, theta)
    assert q.size == 2
    assert q.op("plus").table == (0, 1, 1, 0)
    assert proj == (0, 1, 0, 1)


def test_quotient_diagonal_total(z4):
    q, _ = quotient(z4, Congruence.diagonal(4))
    assert q.size == 4 and q.op("plus").table == z4.op("plus").table
    q1, _ = quotient(z4, Congruence.total(4))
    assert q1.size == 1


def test_quotient_rejects_non_congruence(z4):
    bad = Congruence.from_labels([0, 0, 1, 1])  # 0~1 not compatible with +1 shift
    with pytest.raises(NotACongruence):
        quotient(z4, bad)


def test_quotient_projection_is_hom_with_kernel(z4):
    from maltkit.algebra import Homomorphism, is_homomorphism

    theta = cg(z4, [(0, 2)])
    q, proj = quotient(z4, theta)
    assert is_homomorphism(Homomorphism(z4, q, proj))
    kernel = Congruence.from_labels(proj)
    assert kernel == theta


def test_quotient_congruence(z4):
    theta = cg(z4, [(0, 2)])
    assert quotient_congruence(z4, theta, Congruence.diagonal(4)) == theta
    assert quotient_congruence(z4, Congruence.total(4), theta) == Congruence.total(2)
    assert quotient_congruence(z4, theta, theta) == Congruence.diagonal(2)

import itertools
import types

import pytest
from hypothesis import given, settings, strategies as st

import maltkit.commutator
from maltkit.algebra import FiniteAlgebra, Operation, TermOp, product
from maltkit.catalog import (
    cyclic_group,
    dihedral_group,
    group_corpus,
    group_maltsev_term,
    klein_four,
    maltsev_corpus,
    quaternion_group,
    symmetric_group_3,
)
from maltkit.commutator import (
    center,
    centralize,
    commutator,
    is_abelian,
    lower_series,
    upper_series,
)
from maltkit.congruence import Congruence, cg, quotient
from maltkit.errors import NotMaltsev

from commutator_oracle import all_congruences, commutator_oracle, meet
from group_oracle import GroupTable


def diag(alg):
    return Congruence.diagonal(alg.size)


def total(alg):
    return Congruence.total(alg.size)


def test_centralize_requires_maltsev(z4):
    bad = TermOp(3, tuple(0 for _ in range(64)))
    with pytest.raises(NotMaltsev):
        centralize(z4, total(z4), total(z4), bad)


def test_centralize_diagonal_always(z4, z4_term):
    assert centralize(z4, diag(z4), diag(z4), z4_term)


def test_centralize_z4_total(z4, z4_term):
    assert centralize(z4, total(z4), total(z4), z4_term)


def test_centralize_s3_total_fails():
    s3 = symmetric_group_3()
    p = group_maltsev_term(s3)
    assert not centralize(s3, total(s3), total(s3), p)


def test_centralize_term_independence():
    z2 = cyclic_group(2)
    p1 = group_maltsev_term(z2, "plus", "neg")
    # a different witness for the same (unique) Maltsev table
    p2 = TermOp(3, p1.values, ("plus", ("plus", ("var", 0), ("var", 1)), ("var", 2)))
    assert centralize(z2, total(z2), total(z2), p1)
    assert centralize(z2, total(z2), total(z2), p2)


def test_commutator_diagonal(z4, z4_term):
    assert commutator(z4, diag(z4), diag(z4), z4_term) == diag(z4)


def test_commutator_z4_total_is_diagonal(z4, z4_term):
    assert commutator(z4, total(z4), total(z4), z4_term) == diag(z4)


def test_commutator_d4_derived_subgroup():
    d4 = dihedral_group(4)
    p = group_maltsev_term(d4)
    got = commutator(d4, total(d4), total(d4), p)
    oracle = GroupTable(d4, "mul", "inv")
    derived = oracle.commutator_subgroup(frozenset(range(8)), frozenset(range(8)))
    assert derived == frozenset({0, 2})  # {e, r^2}
    assert got.block_index == oracle.congruence_blocks(derived)


def test_commutator_matches_oracle_on_z4(z4, z4_term):
    lattice = all_congruences(z4)
    assert len(lattice) == 3
    for r in lattice:
        for s in lattice:
            assert commutator(z4, r, s, z4_term) == commutator_oracle(z4, r, s, z4_term)


def test_commutator_matches_oracle_on_d4():
    d4 = dihedral_group(4)
    p = group_maltsev_term(d4)
    lattice = all_congruences(d4)
    for r in lattice:
        for s in lattice:
            assert commutator(d4, r, s, p) == commutator_oracle(d4, r, s, p)


def test_commutator_properties_small_corpus():
    for alg, p in maltsev_corpus():
        if alg.size > 6:
            continue
        lattice = all_congruences(alg)
        table = {}
        for r in lattice:
            for s in lattice:
                table[(r, s)] = commutator(alg, r, s, p)
        for r in lattice:
            for s in lattice:
                c = table[(r, s)]
                assert c == table[(s, r)]  # symmetry
                assert c.leq(meet(r, s))
                for r2 in lattice:
                    for s2 in lattice:
                        if r.leq(r2) and s.leq(s2):
                            assert c.leq(table[(r2, s2)])  # monotone


def test_center_z4(z4, z4_term):
    assert center(z4, z4_term) == total(z4)


def test_center_one_element():
    one = FiniteAlgebra(1, (Operation("f", 2, (0,)),))
    p = TermOp(3, (0,), ("var", 0))
    assert center(one, p) == Congruence.total(1)


def test_center_d4_matches_group_center():
    d4 = dihedral_group(4)
    p = group_maltsev_term(d4)
    oracle = GroupTable(d4, "mul", "inv")
    zc = oracle.center_subgroup()
    assert zc == frozenset({0, 2})
    assert center(d4, p).block_index == oracle.congruence_blocks(zc)


def test_series_z2():
    z2 = cyclic_group(2)
    p = group_maltsev_term(z2, "plus", "neg")
    low = lower_series(z2, p)
    assert [t.nblocks for t in low.terms] == [1, 2]
    assert low.class_ == 1 and low.stabilized
    up = upper_series(z2, p)
    assert up.class_ == 1


def test_series_d4():
    d4 = dihedral_group(4)
    p = group_maltsev_term(d4)
    low = lower_series(d4, p)
    assert low.class_ == 2
    assert [t.nblocks for t in low.terms] == [1, 4, 8]
    up = upper_series(d4, p)
    assert up.class_ == 2


def test_series_s3_not_nilpotent():
    s3 = symmetric_group_3()
    p = group_maltsev_term(s3)
    low = lower_series(s3, p)
    assert low.class_ is None and low.stabilized
    a3 = cg(s3, [(0, 3)])
    assert low.terms[-1] == a3
    up = upper_series(s3, p)
    assert up.class_ is None


def test_is_abelian_examples(z4, z4_term):
    assert is_abelian(z4, z4_term)
    assert lower_series(z4, z4_term).class_ == 1
    d4 = dihedral_group(4)
    pd4 = group_maltsev_term(d4)
    assert not is_abelian(d4, pd4)
    assert lower_series(d4, pd4).class_ == 2
    one = FiniteAlgebra(1, (Operation("f", 2, (0,)),))
    pone = TermOp(3, (0,), ("var", 0))
    assert is_abelian(one, pone)
    assert lower_series(one, pone).class_ == 0


def test_upper_equals_lower_class_everywhere():
    for alg, p in maltsev_corpus():
        low = lower_series(alg, p).class_
        up = upper_series(alg, p).class_
        assert low == up


def _group_agreement(alg, p, mul, inv, series=True):
    oracle = GroupTable(alg, mul, inv)
    normals = oracle.normal_subgroups()
    for n1 in normals:
        for n2 in normals:
            r = Congruence(alg.size, oracle.congruence_blocks(n1))
            s = Congruence(alg.size, oracle.congruence_blocks(n2))
            got = commutator(alg, r, s, p)
            want = oracle.congruence_blocks(oracle.commutator_subgroup(n1, n2))
            assert got.block_index == want
    assert center(alg, p).block_index == oracle.congruence_blocks(oracle.center_subgroup())
    assert lower_series(alg, p).class_ == oracle.nilpotency_class()
    if series:
        low, up = lower_series(alg, p), upper_series(alg, p)
        assert [t.block_index for t in low.terms] == [
            oracle.congruence_blocks(g) for g in oracle.lower_central_series()]
        want_up = [oracle.congruence_blocks(z) for z in oracle.upper_central_series()]
        assert [t.block_index for t in up.terms] == want_up


def test_group_oracle_full_agreement():
    for alg, p, mul, inv in group_corpus():
        _group_agreement(alg, p, mul, inv, series=False)


def _s3_times_z2():
    s3 = symmetric_group_3()
    z2 = FiniteAlgebra(2, (
        Operation("mul", 2, (0, 1, 1, 0)), Operation("inv", 1, (0, 1)), Operation("e", 0, (0,)),
    ))
    return product([s3, z2])


@pytest.mark.parametrize("alg", [dihedral_group(8), _s3_times_z2()], ids=["D8", "S3xZ2"])
def test_group_oracle_agreement_order_16_and_12(alg):
    _group_agreement(alg, group_maltsev_term(alg), "mul", "inv")


def _renamed(alg):
    """A group with operations plus, neg, zero as one with mul, inv, e."""
    return FiniteAlgebra(alg.size, tuple(
        Operation(name, op.arity, op.table) for name, op in zip(("mul", "inv", "e"), alg.ops)))


SMALL_GROUPS = [_renamed(cyclic_group(n)) for n in range(2, 9)] + [
    _renamed(klein_four()), dihedral_group(4), quaternion_group(), symmetric_group_3()]
SMALL_PRODUCTS = [(g, h) for g, h in itertools.combinations_with_replacement(SMALL_GROUPS, 2)
                  if g.size * h.size <= 16]


@given(st.data())
@settings(max_examples=6, deadline=None)
def test_group_oracle_agreement_on_products_and_quotients(data):
    """Products of two catalog groups of order <= 16, optionally divided by a
    normal subgroup, against the group oracle."""
    alg = product(data.draw(st.sampled_from(SMALL_PRODUCTS)))
    if data.draw(st.booleans()):
        oracle = GroupTable(alg, "mul", "inv")
        normal = data.draw(st.sampled_from(sorted(oracle.normal_subgroups(), key=sorted)))
        alg, _ = quotient(alg, Congruence(alg.size, oracle.congruence_blocks(normal)))
    _group_agreement(alg, group_maltsev_term(alg), "mul", "inv")


def test_center_and_class_of_d16():
    """A 32-element group: the center and the nilpotence class of D16."""
    d16 = dihedral_group(16)
    p = group_maltsev_term(d16)
    oracle = GroupTable(d16, "mul", "inv")
    assert center(d16, p).block_index == oracle.congruence_blocks(oracle.center_subgroup())
    assert lower_series(d16, p).class_ == oracle.nilpotency_class() == 4


def test_commutator_matches_oracle_on_d8():
    d8 = dihedral_group(8)
    p = group_maltsev_term(d8)
    lattice = all_congruences(d8)
    assert len(lattice) == 7  # the normal subgroups of D8
    for r, s in itertools.combinations_with_replacement(lattice, 2):
        assert commutator(d8, r, s, p) == commutator_oracle(d8, r, s, p)


def test_is_abelian_tests_associativity_only_for_homomorphic_terms(monkeypatch, z4, z4_term):
    """D8 fails centralize(total, total), so the n^5 associativity check is
    skipped; on Z4 it runs once, for the cross-check."""
    calls = []
    real = maltkit.commutator.check_associative
    monkeypatch.setattr(maltkit.commutator, "check_associative",
                        lambda m: calls.append(m.size) or real(m))
    d8 = dihedral_group(8)
    assert not is_abelian(d8, group_maltsev_term(d8))
    assert calls == []
    assert is_abelian(z4, z4_term)
    assert calls == [4]


# the attributes the import system gives every package
MODULE_ATTRIBUTES = {"__name__", "__doc__", "__package__", "__loader__", "__spec__", "__path__",
                     "__file__", "__cached__", "__builtins__"}


def test_package_binds_only_its_submodules():
    """`maltkit.commutator` is the module: the package binds its imported
    submodules and `__version__`, and re-exports nothing."""
    bound = {k: v for k, v in vars(maltkit).items() if k not in MODULE_ATTRIBUTES}
    assert bound.pop("__version__") and isinstance(bound["commutator"], types.ModuleType)
    assert all(getattr(v, "__name__", None) == f"maltkit.{k}" for k, v in bound.items()), bound

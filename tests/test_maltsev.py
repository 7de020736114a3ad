import itertools

import numpy as np
import pytest

from maltkit.algebra import FiniteAlgebra, Operation
from maltkit.catalog import (
    cyclic_group,
    symmetric_group_3,
    two_element_semilattice,
)
from maltkit.errors import CloneBudgetExceeded, DomainError, EmptyTorsor, NotAHerd
from maltkit.maltsev import (
    FIBERED,
    MIXED,
    TernaryTable,
    central_torsor_check,
    check_associative,
    check_commutative,
    check_maltsev,
    find_maltsev_term,
    torsor_to_group,
)

from corpus import enumerate_herds


def asmal_holds(m):
    """The derived identity m(u,v,m(x,y,z)) = m(u,m(y,x,v),z) of associative
    Maltsev operations, checked as a consequence rather than assumed."""
    for u, v, x, y, z in itertools.product(range(m.size), repeat=5):
        if not (m.defined((u, v, x)) and m.defined((x, y, z))):
            continue
        if not (m.defined((y, x, v)) and m.defined((u, m(y, x, v), z))):
            continue
        if m(u, v, m(x, y, z)) != m(u, m(y, x, v), z):
            return False
    return True


def restrict_to_fibered(m_ext):
    """Restriction of a mixed-domain table to the fully fibred domain."""
    return TernaryTable.from_entries(m_ext.size, FIBERED, m_ext.base, {
        (x, y, z): m_ext(x, y, z) for x, y, z in m_ext.domain().tolist()
        if m_ext.base[y] == m_ext.base[z]})


def group_difference_table(n):
    x, y, z = np.indices((n,) * 3)
    return TernaryTable.full_from_flat(n, (x - y + z) % n)


def mixed_from_fn(size, base, fn):
    n = range(size)
    return TernaryTable.from_entries(size, MIXED, base, {
        (x, y, z): fn(x, y, z) for x in n for y in n if base[x] == base[y] for z in n})


def test_check_maltsev_group_difference():
    assert check_maltsev(group_difference_table(4))
    assert check_associative(group_difference_table(4))
    assert check_commutative(group_difference_table(4))


def test_check_maltsev_meet_fails():
    m = TernaryTable.full_from_flat(2, np.indices((2,) * 3).min(axis=0))
    assert not check_maltsev(m)


def test_size_one_table():
    m = TernaryTable.full_from_flat(1, [0])
    assert check_maltsev(m) and check_associative(m) and check_commutative(m)


def test_s3_difference_associative_not_commutative():
    s3 = symmetric_group_3()
    mul, inv = s3.op("mul").values, s3.op("inv").values
    x, y, z = np.indices((6,) * 3)
    m = TernaryTable.full_from_flat(6, mul[mul[x, inv[y]], z])
    assert check_maltsev(m)
    assert check_associative(m)
    assert not check_commutative(m)
    assert asmal_holds(m)


def test_domain_error():
    m = mixed_from_fn(4, (0, 0, 1, 1), lambda x, y, z: z)
    with pytest.raises(DomainError):
        m(0, 2, 1)


def test_find_maltsev_z2_group():
    z2 = cyclic_group(2)
    t = find_maltsev_term(z2)
    assert t is not None
    assert t.values.ravel().tolist() == [
        (x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3)
    ]


def test_find_maltsev_semilattice_absent():
    t = find_maltsev_term(two_element_semilattice())
    assert t is None


def test_find_maltsev_size_one():
    one = FiniteAlgebra(1, (Operation("f", 2, (0,)),))
    t = find_maltsev_term(one)
    assert t is not None and t.witness == ("var", 0)


def test_find_maltsev_budget_inconclusive():
    z4 = cyclic_group(4)
    with pytest.raises(CloneBudgetExceeded):
        find_maltsev_term(z4, budget=2)


def test_torsor_to_group_z4():
    m = group_difference_table(4)
    g = torsor_to_group(m)
    assert g.size == 4
    assert g.abelian
    # the action of the class of (x, 0) is translation by x
    for x in range(4):
        cls = g.sub[x][0]
        assert [g.action[cls][z] for z in range(4)] == [(x + z) % 4 for z in range(4)]
    # (x - y) + z recovers the table
    assert np.array_equal(g.action[g.sub[:, :, None], np.arange(4)], m.table)


def test_torsor_to_group_trivial():
    m = group_difference_table(1)
    assert torsor_to_group(m).size == 1


def test_torsor_to_group_rejects():
    bad = TernaryTable.full_from_flat(2, np.zeros((2,) * 3, dtype=int))
    with pytest.raises(NotAHerd):
        torsor_to_group(bad)
    with pytest.raises(EmptyTorsor):
        torsor_to_group(TernaryTable.full_from_flat(0, ()))


def test_enumerate_herds_complete_for_size2():
    # brute-force oracle: filter all 2^8 ternary tables on a 2-set
    herds = []
    for bits in itertools.product((0, 1), repeat=8):
        m = TernaryTable.full_from_flat(2, bits)
        if check_maltsev(m) and check_associative(m):
            herds.append(m)
    assert sorted(h.table.ravel().tolist() for h in herds) == sorted(
        h.table.ravel().tolist() for h in enumerate_herds(2)
    )


@pytest.mark.parametrize("size,count", [(1, 1), (2, 1), (3, 1), (4, 4)])
def test_enumerate_herds_counts(size, count):
    herds = enumerate_herds(size)
    assert len(herds) == count
    for m in herds:
        assert check_maltsev(m) and check_associative(m)


def test_herd_group_roundtrip_and_asmal_all_sizes():
    for size in (1, 2, 3, 4):
        for m in enumerate_herds(size):
            g = torsor_to_group(m)
            assert np.array_equal(g.action[g.sub[:, :, None], np.arange(size)], m.table)
            if check_commutative(m):
                assert g.abelian
            assert asmal_holds(m)


def test_central_torsor_z4_over_z2(z4):
    base = (0, 1, 0, 1)
    m = mixed_from_fn(4, base, lambda x, y, z: (x - y + z) % 4)
    report = central_torsor_check(z4, base, m)
    assert report.ok
    assert report.group.size == 2
    # the restriction to the fully fibred domain is itself a herd
    fib = restrict_to_fibered(m)
    assert check_maltsev(fib) and check_associative(fib)


def test_central_torsor_identity_projection():
    one_op = FiniteAlgebra(3, ())
    base = (0, 1, 2)
    m = mixed_from_fn(3, base, lambda x, y, z: z)
    report = central_torsor_check(one_op, base, m)
    assert report.ok and report.group.size == 1


def test_central_torsor_s3_fails_homomorphism():
    s3 = symmetric_group_3()
    mul, inv = s3.op("mul"), s3.op("inv")
    base = tuple(0 if x in (0, 3, 4) else 1 for x in range(6))  # sign map

    def diff(x, y, z):
        return mul.table[mul.table[x * 6 + inv.table[y]] * 6 + z]

    m = mixed_from_fn(6, base, diff)
    report = central_torsor_check(s3, base, m)
    assert not report.ok
    assert "homomorphism" in report.reason
    assert report.witness is not None


def test_central_torsor_fiber_escape_reported():
    # Maltsev but x - y can leave the fibre of z when the base map is not a
    # quotient of the group structure
    alg = FiniteAlgebra(4, ())
    base = (0, 0, 1, 1)
    m = mixed_from_fn(4, base, lambda x, y, z: (x - y + z) % 4)
    report = central_torsor_check(alg, base, m)
    assert not report.ok
    assert report.reason == "value leaves the fibre of z"
    assert report.witness is not None

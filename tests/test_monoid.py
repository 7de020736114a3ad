import pytest

from maltkit.abgroup import AbelianGroup
from maltkit.errors import InvariantViolation, SearchBudgetExceeded
from maltkit.monoid import (
    FiniteMonoid,
    MonoidExtension,
    NaturalSystemOnMonoid,
    check_linear_extension,
    check_untwisted,
    counterexample_harness,
    counterexample_monoid,
    trivial_extension,
)

import law_oracle
from corpus import constant_system, m2_systems


def mult_monoid_2():
    return FiniteMonoid(2, 0, (0, 1, 1, 1), name="M2")


def test_monoid_validation():
    mult_monoid_2()
    with pytest.raises(InvariantViolation):
        # (1.1).1 = 2.1 = 2 but 1.(1.1) = 1.2 = 1
        FiniteMonoid(3, 0, (0, 1, 2, 1, 2, 1, 2, 2, 1))
    with pytest.raises(InvariantViolation):
        FiniteMonoid(2, 1, (0, 1, 1, 1))  # claimed unit is not a unit


def test_natural_system_validation():
    mon = mult_monoid_2()
    constant_system(mon, AbelianGroup.cyclic(3))
    _, system = counterexample_monoid()
    # break additivity of the left action of 0 on D_0
    with pytest.raises(InvariantViolation):
        NaturalSystemOnMonoid(
            system.monoid,
            system.groups,
            (system.left[0], (system.left[1][0], (0, 3, 3, 3))),
            system.right,
        )


def test_trivial_extension_all_trivial_fibers():
    mon = mult_monoid_2()
    system = constant_system(mon, AbelianGroup.trivial())
    ext = trivial_extension(mon, system)
    assert ext.total.size == mon.size
    assert ext.total.multiplication.tolist() == mon.multiplication.tolist()
    assert check_linear_extension(ext).ok


def test_trivial_extension_constant_system_product_formula():
    mon = mult_monoid_2()
    group = AbelianGroup.cyclic(2)
    ext = trivial_extension(mon, constant_system(mon, group))
    # elements are (base, fibre) pairs; product multiplies bases and adds fibres
    for x1 in range(mon.size):
        for d1 in range(2):
            for x2 in range(mon.size):
                for d2 in range(2):
                    e1 = 2 * x1 + d1
                    e2 = 2 * x2 + d2
                    expect = 2 * mon.multiplication[x1, x2] + ((d1 + d2) % 2)
                    assert ext.total.multiplication[e1, e2] == expect


def test_trivial_extension_always_linear():
    mon = mult_monoid_2()
    for group in (AbelianGroup.cyclic(2), AbelianGroup.cyclic(3)):
        ext = trivial_extension(mon, constant_system(mon, group))
        assert check_linear_extension(ext).ok


def test_counterexample_projection_is_linear():
    mon, system = counterexample_monoid()
    ext = trivial_extension(mon, system)
    assert check_linear_extension(ext).ok


def test_act_reads_the_fibre_table():
    mon, system = counterexample_monoid()
    ext = trivial_extension(mon, system)
    for b in range(ext.base.size):
        fib = ext.fiber(b)
        assert fib.tolist() == [e for e in range(ext.total.size) if ext.proj[e] == b]
        assert ext.fiber(b) is fib  # built once, with the extension
        # actions[b][d, i] is d acting on fib[i]: zero fixes it, and it stays over b
        table = ext.actions[b]
        assert table.shape == (system.groups[b].size, fib.size)
        assert table[system.groups[b].zero].tolist() == fib.tolist()
        assert set(table.ravel().tolist()) <= set(fib.tolist())


def test_twisted_action_detected():
    mon = mult_monoid_2()
    ext = trivial_extension(mon, constant_system(mon, AbelianGroup.cyclic(2)))
    # overwrite one fibre action with the trivial (non-free) one
    fib = ext.fiber(1)
    flat = tuple(fib[i % len(fib)] for d in range(2) for i in range(len(fib)))
    twisted = MonoidExtension(
        ext.total, ext.base, ext.proj, ext.system, (ext.actions[0], flat)
    )
    report = check_linear_extension(twisted)
    assert (report.ok, report.reason, report.witness) == (False, "action is not free", (1,))


def test_untwisted_constant_system():
    mon = mult_monoid_2()
    for group in (AbelianGroup.cyclic(2), AbelianGroup.cyclic(3), AbelianGroup.trivial()):
        ext = trivial_extension(mon, constant_system(mon, group))
        report = check_untwisted(ext)
        assert report.found
        fam = dict(report.family)
        total = ext.total

        def minus(b, e, e2):
            """e - e2 in D_b: the d with d + e2 = e under the fibre action."""
            return ext.actions[b][:, ext.fiber(b).tolist().index(e2)].tolist().index(e)

        # the family is built from isomorphisms phi with phi_{b,b} = id and
        # the cocycle law
        for (f1, f2, f), v in fam.items():
            assert ext.proj[v] == ext.proj[f]
            b = ext.proj[f1]
            if ext.proj[f] == b:
                # phi_{b,b} = id: m(f1,f2,f) - f equals f1 - f2 under subtraction
                assert minus(b, v, f) == minus(b, f1, f2)
        # equivariance spot check
        for g in range(total.size):
            for (f1, f2, f), v in fam.items():
                assert fam[
                    (total.multiplication[g, f1], total.multiplication[g, f2],
                     total.multiplication[g, f])
                ] == total.multiplication[g, v]


def test_untwisted_matches_the_former_search():
    """check_untwisted against the search with its five laws written out, on
    the 30 natural systems of M2: 18 untwisted, 12 with no equivariant family."""
    systems = m2_systems()
    found = 0
    for system in systems:
        ext = trivial_extension(system.monoid, system)
        report = check_untwisted(ext)
        assert (report.found, report.family, report.reason) == law_oracle.untwisted_report(ext)
        found += report.found
    assert (len(systems), found) == (30, 18)


def test_untwisted_cardinality_obstruction():
    mon, system = counterexample_monoid()
    ext = trivial_extension(mon, system)
    report = check_untwisted(ext)
    assert not report.found
    assert "not isomorphic" in report.reason


def test_untwisted_degenerate_identity_projection():
    mon = mult_monoid_2()
    ext = trivial_extension(mon, constant_system(mon, AbelianGroup.trivial()))
    report = check_untwisted(ext)
    assert report.found


def test_untwisted_fiber_cap():
    mon = FiniteMonoid(1, 0, (0,))
    big = constant_system(mon, AbelianGroup.cyclic(9))
    ext = trivial_extension(mon, big)
    with pytest.raises(SearchBudgetExceeded):
        check_untwisted(ext)


def test_counterexample_monoid_products():
    mon, system = counterexample_monoid()
    ext = trivial_extension(mon, system)
    total = ext.total
    assert total.size == 5
    names = {0: "1", 1: "00", 2: "01", 3: "10", 4: "11"}
    idx = {v: k for k, v in names.items()}
    # left column of the displayed products: everything times 00 or 10 is 00
    for a in ("00", "10", "01", "11"):
        for b in ("00", "10"):
            assert names[total.multiplication[idx[a], idx[b]]] == "00"
        for b in ("01", "11"):
            assert names[total.multiplication[idx[a], idx[b]]] == "11"


def test_counterexample_harness_report():
    rep = counterexample_harness()
    assert rep.candidates == 108
    assert rep.forced_value == "*0"
    assert rep.forced_in_all
    assert rep.associative_count == 0
    assert len(rep.violations) == rep.candidates
    chain = dict(rep.chain)
    assert chain["m(11,*0,*0)"] == "11"
    assert chain["m(*0,01,11)"] == "*0"
    assert chain["m(01,*0,*0)"] == "01"
    assert chain["m(11,11,m(01,*0,*0))"] == "01"
    # action facts quoted in the report
    action = dict(rep.action)
    assert action[("10", "*0")] == "*0"
    assert action[("10", "01")] == "11"
    assert action[("10", "11")] == "11"

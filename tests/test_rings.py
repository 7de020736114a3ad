import pytest

from maltkit.abgroup import (
    AbelianGroup,
    additive_maps,
    generating_sequence,
    isomorphisms,
)
from maltkit.errors import InvariantViolation
from maltkit.rings import (
    DBimodule,
    FiniteRing,
    LeftModule,
    LinearForm,
    cyclic_ring,
    dual_numbers_f2,
    module_over_self,
    submodule,
    zero_module,
)

from corpus import (
    cone_bimodule,
    group_from_presentation,
    regular_bimodule,
    shifted_module,
    tensor_over_ring,
)


def test_abelian_group_validation():
    AbelianGroup.cyclic(4)
    with pytest.raises(InvariantViolation):
        AbelianGroup(2, (0, 1, 1, 1))  # not a group
    klein = AbelianGroup(4, tuple(a ^ b for a in range(4) for b in range(4)))
    assert klein.zero == 0 and klein.neg.tolist() == [0, 1, 2, 3]


def test_generating_sequence_and_homs():
    z4 = AbelianGroup.cyclic(4)
    z2 = AbelianGroup.cyclic(2)
    assert len(generating_sequence(z4)) == 1
    homs = additive_maps(z4, z2)
    assert sorted(homs) == [(0, 0, 0, 0), (0, 1, 0, 1)]
    assert len(additive_maps(z2, z4)) == 2  # 0 and x -> 2x
    klein = AbelianGroup(4, tuple(a ^ b for a in range(4) for b in range(4)))
    assert len(additive_maps(klein, z2)) == 4
    assert len(isomorphisms(klein, klein)) == 6
    assert len(isomorphisms(klein, z4)) == 0


def test_smith_normal_form_quotients():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3
    grp, coords = group_from_presentation(2, [[2, 0], [0, 3]])
    assert grp.size == 6
    # Z^2 / <(1,1),(0,4)> = Z/4
    grp2, coords2 = group_from_presentation(2, [[1, 1], [0, 4]])
    assert grp2.size == 4
    # generators map to mutually inverse elements
    assert grp2.addition[coords2[0], coords2[1]] == grp2.zero


def test_ring_validation():
    cyclic_ring(4)
    dual_numbers_f2()
    bad_mul = tuple(0 for _ in range(4))
    with pytest.raises(InvariantViolation):
        FiniteRing.from_tables((0, 1, 1, 0), bad_mul)  # no unit


def test_module_laws():
    r4 = cyclic_ring(4)
    module_over_self(r4)
    zero_module(r4)
    # Z/2 with r acting as r mod 2 is lawful over Z/4
    LeftModule(r4, 2, (0, 1, 1, 0), (0, 0, 0, 1, 0, 0, 0, 1))
    with pytest.raises(InvariantViolation):
        # unit law broken: 1.x = 0
        LeftModule(r4, 2, (0, 1, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1))


def test_linear_form_laws():
    r4 = cyclic_ring(4)
    m4 = module_over_self(r4)
    LinearForm(m4, (0, 1, 2, 3))
    LinearForm(m4, (0, 2, 0, 2))
    with pytest.raises(InvariantViolation):
        LinearForm(m4, (0, 1, 1, 1))  # not additive


def test_submodule_eps_ideal():
    deps = dual_numbers_f2()
    msub, elems = submodule(module_over_self(deps), [0, 1])
    assert elems == (0, 1)
    assert msub.size == 2
    with pytest.raises(InvariantViolation):
        submodule(module_over_self(deps), [0, 2])  # 2 = 1+eps? closure fails


def test_tensor_z4_with_itself():
    r4 = cyclic_ring(4)
    grp, left, right = regular_bimodule(r4)
    tensor, pair = tensor_over_ring(r4, grp, right, module_over_self(r4))
    assert tensor.size == 4
    # pure tensors b (x) 1 enumerate the group
    ones = {pair[b, 1] for b in range(4)}
    assert len(ones) == 4


def test_tensor_z2_z4():
    # Z/2 (x)_Z4 Z/4 = Z/2
    r4 = cyclic_ring(4)
    z2 = AbelianGroup.cyclic(2)
    bright = tuple((b * r) % 2 for b in range(2) for r in range(4))
    tensor, pair = tensor_over_ring(r4, z2, bright, module_over_self(r4))
    assert tensor.size == 2


def test_bimodule_constructors(forms):
    by_name = dict(forms)
    f4 = by_name["id-Z4"]
    grp, left, right = regular_bimodule(f4.ring)
    cone = cone_bimodule(f4, grp, left, right)
    assert cone.kmodule.size == 4
    assert list(cone.delta) == [0, 1, 2, 3]
    k1 = shifted_module(f4, module_over_self(f4.ring))
    assert k1.bgroup.size == 1
    zero = shifted_module(f4, zero_module(f4.ring))
    assert zero.kmodule.size == 1


def test_bimodule_law_violation(forms):
    by_name = dict(forms)
    f2 = by_name["id-Z2"]
    grp = AbelianGroup.cyclic(2)
    with pytest.raises(InvariantViolation):
        DBimodule(
            f2, grp, (0, 0, 0, 1), (0, 0, 0, 1),
            module_over_self(f2.ring),
            (0, 0),  # delta == 0 conflicts with delta(b.m) = b d(m)
            (0, 0, 0, 1),
        )


def test_form_corpus_all_validate(forms):
    assert len(forms) >= 6
    sizes = {(f.module.size, f.ring.size) for _, f in forms}
    assert all(m <= 4 and r <= 4 for m, r in sizes)

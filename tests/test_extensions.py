import pytest

from maltkit.affinity import AffinityOp, canonical_maltsev, is_maltsev_op
from maltkit.errors import DiagramError
from maltkit.extensions import (
    FormExtension,
    crext_check,
    enumerate_derivations,
    lift_maltsev,
)
from maltkit.rings import (
    FiniteRing,
    LeftModule,
    LinearForm,
    cyclic_ring,
    dual_numbers_f2,
    module_over_self,
    zero_module,
)

from corpus import cone_bimodule, regular_bimodule, shifted_module, trivial_form_extension

import law_oracle


def id_form(ring, name=""):
    return LinearForm(module_over_self(ring), tuple(range(ring.size)), name=name)


def ext_z4_over_z2():
    f4 = id_form(cyclic_ring(4), "idZ4")
    f2 = id_form(cyclic_ring(2), "idZ2")
    return FormExtension(f4, f2, (0, 1, 0, 1), (0, 1, 0, 1), name="Z4/Z2")


def ext_f2eps_over_z2():
    deps = dual_numbers_f2()
    feps = id_form(deps, "idF2eps")
    f2 = id_form(cyclic_ring(2), "idZ2")
    p = tuple(a // 2 for a in range(4))
    return FormExtension(feps, f2, p, p, name="F2eps/Z2")


def ext_mixed_kernel():
    """d': Z/2 -> Z/4 (x -> 2x) over the zero form on Z/2."""
    r4, r2 = cyclic_ring(4), cyclic_ring(2)
    n = LeftModule(r4, 2, (0, 1, 1, 0), tuple((r * x) % 2 for r in range(4) for x in range(2)))
    total = LinearForm(n, (0, 2), name="2x")
    base = LinearForm(module_over_self(r2), (0, 0), name="zeroZ2")
    return FormExtension(total, base, (0, 1, 0, 1), (0, 1), name="2x/zero")


def all_form_extensions():
    return [ext_z4_over_z2(), ext_f2eps_over_z2(), ext_mixed_kernel()]


def test_form_extension_validation():
    f4 = id_form(cyclic_ring(4))
    f2 = id_form(cyclic_ring(2))
    with pytest.raises(DiagramError):
        FormExtension(f4, f2, (0, 1, 1, 0), (0, 1, 0, 1))  # not a ring hom
    with pytest.raises(DiagramError):
        FormExtension(f4, f2, (0, 0, 0, 0), (0, 1, 0, 1))  # not surjective


def test_crext_z4_over_z2():
    report = crext_check(ext_z4_over_z2())
    assert report.ok
    bim = report.bimodule
    assert bim.bgroup.size == 2 and bim.kmodule.size == 2
    assert bim.delta.tolist() == [0, 1]  # identity on Z/2
    assert bim.dot[1, 1] == 1  # 2 * 1 = 2 inside the kernel


def test_crext_product_ring_fails_with_witness():
    addp = tuple((a // 2 ^ b // 2) * 2 + (a % 2 ^ b % 2) for a in range(4) for b in range(4))
    mulp = tuple(((a // 2) & (b // 2)) * 2 + ((a % 2) & (b % 2)) for a in range(4) for b in range(4))
    rp = FiniteRing.from_tables(addp, mulp)
    fp = LinearForm(module_over_self(rp), (0, 1, 2, 3))
    f2 = id_form(cyclic_ring(2))
    p = tuple(a // 2 for a in range(4))
    report = crext_check(FormExtension(fp, f2, p, p))
    assert not report.ok
    assert report.reason == "ring kernel does not square to zero"
    assert report.witness == (1, 1)


def test_crext_trivial_kernels():
    f2 = id_form(cyclic_ring(2))
    report = crext_check(FormExtension(f2, f2, (0, 1), (0, 1)))
    assert report.ok
    assert report.bimodule.bgroup.size == 1
    assert report.bimodule.kmodule.size == 1


def test_crext_hom_set_fibre_sizes():
    # |K| * |B|^(n-1) fibres on n-ary hom-sets: total hom-set size factors
    for ext in all_form_extensions():
        report = crext_check(ext)
        assert report.ok
        bim = report.bimodule
        nb, nk = bim.bgroup.size, bim.kmodule.size
        for n in (1, 2, 3):
            total_size = ext.total.module.size * ext.total.ring.size ** (n - 1)
            base_size = ext.base.module.size * ext.base.ring.size ** (n - 1)
            assert total_size == base_size * nk * nb ** (n - 1)


def bimodule_corpus(forms):
    """Each form with the shifted regular, shifted zero and cone bimodules."""
    return [
        (name, form, bim)
        for name, form in forms
        for bim in (
            shifted_module(form, module_over_self(form.ring)),
            shifted_module(form, zero_module(form.ring)),
            cone_bimodule(form, *regular_bimodule(form.ring)),
        )
    ]


def test_split_extension_roundtrip(forms):
    """The split extension of a bimodule is singular and induces the same
    bimodule again, table for table."""
    for name, _, bim in bimodule_corpus(forms):
        report = crext_check(trivial_form_extension(bim))
        assert report.ok, name
        induced = report.bimodule.to_json()
        assert {**induced, "name": bim.name} == bim.to_json(), name


def test_derivations_agree_with_oracle(forms):
    for name, form, bim in bimodule_corpus(forms):
        rep = enumerate_derivations(form, bim)
        der, inner, h0, h1_order = law_oracle.derivations(form, bim)
        assert {(t.d, t.nabla) for t in rep.derivations} == der, name
        assert len(rep.derivations) == len(der), name
        assert {(t.d, t.nabla) for t in rep.inner} == inner, name
        assert len(rep.inner) == len(inner), name
        assert (rep.h0, rep.h1_order) == (h0, h1_order), name
        # one representative in each coset of Ider
        B, K = bim.bgroup, bim.kmodule
        cosets = {frozenset((tuple(B.addition[t.d, d].tolist()),
                             tuple(K.addition[t.nabla, n].tolist()))
                            for d, n in inner) for t in rep.h1_reps}
        assert len(cosets) == h1_order and all((t.d, t.nabla) in der for t in rep.h1_reps), name


def test_derivations_id_z4_cone(forms):
    by_name = dict(forms)
    f4 = by_name["id-Z4"]
    grp, left, right = regular_bimodule(f4.ring)
    bim = cone_bimodule(f4, grp, left, right)
    rep = enumerate_derivations(f4, bim)
    assert len(rep.derivations) == 1  # only the zero derivation
    assert rep.h0 == (0, 1, 2, 3)  # all of K
    assert rep.h1_order == 1


def test_derivations_shifted_is_hom_module(forms):
    by_name = dict(forms)
    f2 = by_name["id-Z2"]
    bim = shifted_module(f2, module_over_self(f2.ring))
    rep = enumerate_derivations(f2, bim)
    # Der = Hom_R(M, K), inner derivations are m -> d(m) k
    assert len(rep.derivations) == 2
    assert len(rep.inner) == 2
    assert {t.nabla for t in rep.inner} == {(0, 0), (0, 1)}
    assert rep.h1_order == 1


def test_derivations_zero_bimodule(forms):
    by_name = dict(forms)
    f2 = by_name["id-Z2"]
    bim = shifted_module(f2, zero_module(f2.ring))
    rep = enumerate_derivations(f2, bim)
    assert len(rep.derivations) == 1
    assert len(rep.inner) == 1
    assert rep.h0 == (0,)
    assert rep.h1_order == 1


def test_derivations_cardinality_identity_on_pairs(forms):
    for _, form, bim in bimodule_corpus(forms):
        rep = enumerate_derivations(form, bim)
        assert len(rep.h0) * len(rep.derivations) == bim.kmodule.size * rep.h1_order


def test_lift_maltsev_preimage_already_maltsev():
    ext = ext_z4_over_z2()
    good = canonical_maltsev(ext.total)
    assert lift_maltsev(ext, canonical_maltsev(ext.base), good) == good


def test_lift_maltsev_corrects_bad_preimage():
    ext = ext_z4_over_z2()
    base_m = canonical_maltsev(ext.base)
    bad = AffinityOp(2, (3, 1))  # projects to <0;(1,1)> but is not Maltsev
    assert not is_maltsev_op(ext.total, bad)
    lifted = lift_maltsev(ext, base_m, bad)
    assert lifted == canonical_maltsev(ext.total)


def test_lift_maltsev_all_extensions_with_perturbed_preimages():
    for ext in all_form_extensions():
        base_m = canonical_maltsev(ext.base)
        ker_m = [x for x in range(ext.total.module.size) if ext.module_map[x] == ext.base.module.zero]
        ker_r = [s for s in range(ext.total.ring.size) if ext.ring_map[s] == ext.base.ring.zero]
        canon = canonical_maltsev(ext.total)
        count = 0
        for km in ker_m:
            for kr in ker_r:
                pre = AffinityOp(
                    int(ext.total.module.addition[canon.m_part, km]),
                    (
                        int(ext.total.ring.addition[canon.r_parts[0], kr]),
                        canon.r_parts[1],
                    ),
                )
                lifted = lift_maltsev(ext, base_m, pre)
                assert is_maltsev_op(ext.total, lifted)
                # image is the base operation again
                assert (
                    ext.module_map[lifted.m_part] == base_m.m_part
                    and tuple(ext.ring_map[r] for r in lifted.r_parts) == base_m.r_parts
                )
                count += 1
        assert count >= 1


def test_lift_maltsev_default_section():
    for ext in all_form_extensions():
        lifted = lift_maltsev(ext, canonical_maltsev(ext.base))
        assert is_maltsev_op(ext.total, lifted)

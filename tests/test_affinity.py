import itertools
import random

import pytest

from maltkit.affinity import (
    AffinityOp,
    FreeAffinity,
    TheoryWithConstants,
    abelianize,
    affinity_axiom_check,
    all_ops,
    canonical_affinity_tables,
    canonical_maltsev,
    compose_affinity,
    form_isomorphism,
    is_maltsev_op,
    projection,
    pseudoconstants,
    roundtrip_check,
)
from maltkit.algebra import FiniteAlgebra, Operation, TermOp
from maltkit.errors import ArityError, NotAbelian, NotMaltsev
from maltkit.rings import LinearForm, cyclic_ring, module_over_self, zero_module


def ternary_algebra(n, fn):
    table = tuple(fn(x, y, z) for x, y, z in itertools.product(range(n), repeat=3))
    alg = FiniteAlgebra(n, (Operation("m", 3, table),))
    term = TermOp(3, table, ("m", ("var", 0), ("var", 1), ("var", 2)))
    return alg, term


def test_compose_with_projections_is_identity(forms):
    for _, form in forms:
        for arity in (1, 2, 3):
            projs = [projection(form, arity, i) for i in range(arity)]
            for op in all_ops(form, arity):
                assert compose_affinity(form, op, projs) == op


def test_projection_of_composite_picks_component(forms):
    for _, form in forms:
        ops = list(all_ops(form, 2))
        for i in range(2):
            proj = projection(form, 2, i)
            for v0 in ops[:3]:
                for v1 in ops[:3]:
                    assert compose_affinity(form, proj, [v0, v1]) == (v0, v1)[i]


def test_arity_mismatch():
    form = dict_form()
    with pytest.raises(ArityError):
        compose_affinity(form, canonical_maltsev(form), [projection(form, 2, 0)])


def dict_form():
    r2 = cyclic_ring(2)
    return LinearForm(module_over_self(r2), (0, 1))


def test_functional_interpretation_agrees(forms):
    """fn(u o v) == fn(u) o fn(v) on the rank-2 free affinity."""
    rng = random.Random(20240811)
    for _, form in forms:
        fa = FreeAffinity(form, 2)
        cache = {}

        def table_of(op):
            if op not in cache:
                cache[op] = fa.op_table(op)
            return cache[op]

        for arity_out, arity_in in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            outers = list(all_ops(form, arity_out))
            inners = list(all_ops(form, arity_in))
            for _ in range(8):
                u = rng.choice(outers)
                vs = [rng.choice(inners) for _ in range(arity_out)]
                w = compose_affinity(form, u, vs)
                tables = [table_of(v) for v in vs]
                size = fa.size
                for args in itertools.islice(
                    itertools.product(range(size), repeat=arity_in), 40
                ):
                    idx = 0
                    for a in args:
                        idx = idx * size + a
                    inner_vals = tuple(t[idx] for t in tables)
                    assert fa.evaluate(u, inner_vals) == fa.evaluate(w, args)


def test_composition_associative_symbolically(forms):
    rng = random.Random(99)
    for _, form in forms:
        ops3 = list(all_ops(form, 3))
        ops2 = list(all_ops(form, 2))
        for _ in range(20):
            u = rng.choice(ops3)
            vs = [rng.choice(ops3) for _ in range(3)]
            ws = [rng.choice(ops2) for _ in range(3)]
            left = compose_affinity(form, compose_affinity(form, u, vs), ws)
            right = compose_affinity(
                form, u, [compose_affinity(form, v, ws) for v in vs]
            )
            assert left == right


def test_canonical_maltsev_is_unique_maltsev(forms):
    for _, form in forms:
        cm = canonical_maltsev(form)
        assert is_maltsev_op(form, cm)
        others = [op for op in all_ops(form, 3) if is_maltsev_op(form, op)]
        assert others == [cm]
        # commutative and associative as the herd operation
        fa = FreeAffinity(form, 2)
        t = fa.op_table(cm)
        n = fa.size
        for x, y, z in itertools.product(range(n), repeat=3):
            assert t[(x * n + y) * n + z] == fa.herd(x, y, z)


def test_affinity_axioms_on_canonical_model(forms):
    for _, form in forms:
        report = affinity_axiom_check(form, *canonical_affinity_tables(form, 1))
        assert report.ok, (report.law, report.witness)


def test_affinity_axioms_reject_trivial_scaling():
    form = dict_form()
    n, herd, raction, phi = canonical_affinity_tables(form, 1)
    # make every scalar act as the identity; (r+s) law must fail for R = Z/2
    broken = tuple(b for _ in range(form.ring.size) for a in range(n) for b in range(n))
    report = affinity_axiom_check(form, n, herd, broken, phi)
    assert not report.ok
    assert report.law in ("scale-adds", "scale-multiplies", "base-change-scale")


def test_affinity_axioms_one_element_carrier():
    form = dict_form()
    report = affinity_axiom_check(
        form,
        1,
        (0,),
        (0,) * form.ring.size,
        (0,) * form.module.size,
    )
    assert report.ok


def test_abelianize_z2_sum():
    alg, term = ternary_algebra(2, lambda x, y, z: (x + y + z) % 2)
    ab = abelianize(alg, term)
    assert ab.form.module.size == 1
    assert ab.form.ring.size == 2
    # ring elements are the two projections
    assert sorted(t.table for t in ab.ring_terms) == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_abelianize_z4_difference():
    alg, term = ternary_algebra(4, lambda x, y, z: (x - y + z) % 4)
    ab = abelianize(alg, term)
    assert ab.form.module.size == 1
    assert ab.form.ring.size == 4
    iso = form_isomorphism(
        ab.form, LinearForm(zero_module(cyclic_ring(4)), (0,))
    )
    assert iso is not None


def test_abelianize_with_pseudoconstant():
    table = tuple((x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3))
    alg = FiniteAlgebra(
        2, (Operation("m", 3, table), Operation("c", 0, (0,)))
    )
    term = TermOp(3, table, ("m", ("var", 0), ("var", 1), ("var", 2)))
    ab = abelianize(alg, term)
    assert ab.form.module.size == 2
    assert ab.form.ring.size == 2
    # the constant term is a pseudoconstant: d sends it to 1
    const_idx = next(
        i for i, t in enumerate(ab.module_terms) if t.table == (0, 0)
    )
    assert ab.form.d[const_idx] == ab.form.ring.one
    assert pseudoconstants(ab.form) == (const_idx,)


def test_abelianize_rejects_nonabelian():
    from maltkit.catalog import dihedral_group, group_maltsev_term

    d4 = dihedral_group(4)
    p = group_maltsev_term(d4)
    with pytest.raises(NotAbelian):
        abelianize(d4, p)


def test_abelianize_rejects_non_maltsev():
    alg, _ = ternary_algebra(2, lambda x, y, z: (x + y + z) % 2)
    with pytest.raises(NotMaltsev):
        abelianize(alg, TermOp(3, (0,) * 8))


def test_roundtrip_whole_corpus(forms):
    for name, form in forms:
        report = roundtrip_check(form)
        assert report.ok, name


def test_pseudoconstants(forms):
    by_name = dict(forms)
    assert pseudoconstants(by_name["zero-into-Z2"]) == ()
    assert pseudoconstants(by_name["id-Z2"]) == (1,)
    assert pseudoconstants(by_name["Z2-into-Z4"]) == ()
    # realized theory has a constant unary operation iff a pseudoconstant exists
    for name in ("id-Z2", "zero-into-Z2"):
        form = by_name[name]
        fa = FreeAffinity(form, 2)
        constants = [
            op
            for op in all_ops(form, 1)
            if len(set(fa.op_table(op))) == 1
        ]
        assert bool(constants) == bool(pseudoconstants(form))


def test_theory_with_constants_sizes():
    r2 = cyclic_ring(2)
    k2 = module_over_self(r2)
    th = TheoryWithConstants(r2, k2)
    for n in range(3):
        assert th.hom_size(n, 1) == 2 * 2**n
        assert len(th.hom(n, 1)) == th.hom_size(n, 1)
    # hom(X, X) has 4 elements and projects 2-to-1 onto the module theory
    h11 = th.hom(1, 1)
    assert len(h11) == 4
    projections = {}
    for m in h11:
        projections.setdefault(th.project(m), []).append(m)
    assert all(len(v) == 2 for v in projections.values())


def test_theory_with_constants_identity_and_composition():
    r2 = cyclic_ring(2)
    k2 = module_over_self(r2)
    th = TheoryWithConstants(r2, k2)
    ident = th.identity(2)
    assert ident == ((0, (1, 0)), (0, (0, 1)))
    for u in th.hom(2, 2):
        assert th.compose(u, ident, 2) == u
        assert th.compose(ident, u, 2) == u
    assert th.check_linear_extension_identities(max_arity=2)
    assert th.empty_model_allowed is False


class _InnerConstantsIgnored(TheoryWithConstants):
    """Composition that drops the K-parts of the inner morphism."""

    def compose(self, outer, inner, n):
        zeroed = tuple((self.kmodule.zero, rho) for _, rho in inner)
        return super().compose(outer, zeroed, n)


class _OuterConstantsDoubled(TheoryWithConstants):
    """Composition that counts the K-parts of the outer morphism twice."""

    def compose(self, outer, inner, n):
        K = self.kmodule
        return tuple((K.plus(kappa, k0), rho) for (kappa, rho), (k0, _)
                     in zip(super().compose(outer, inner, n), outer))


def test_theory_with_constants_detects_broken_composition():
    """Each subtraction identity catches a composition that breaks it alone."""
    r3 = cyclic_ring(3)
    k3 = module_over_self(r3)
    assert TheoryWithConstants(r3, k3).check_linear_extension_identities(max_arity=1)
    assert not _InnerConstantsIgnored(r3, k3).check_linear_extension_identities(max_arity=1)
    assert not _OuterConstantsDoubled(r3, k3).check_linear_extension_identities(max_arity=1)

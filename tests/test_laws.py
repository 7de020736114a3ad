"""The law kernel against the brute-force loops of law_oracle."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import law_oracle
from law_oracle import affinity_violation, monoid_extension_violation, ring_violation
from maltkit.abgroup import AbelianGroup, isomorphisms
from maltkit.affinity import affinity_axiom_check, canonical_affinity_tables, form_isomorphism
from maltkit.algebra import Homomorphism, is_homomorphism
from maltkit.catalog import two_element_semilattice
from maltkit.errors import InvariantViolation
from maltkit.extensions import FormExtension, crext_check
from maltkit.laws import CHUNK, first_violation
from maltkit.monoid import (
    FiniteMonoid, MonoidExtension, NaturalSystemOnMonoid, check_linear_extension,
    constant_system, counterexample_monoid, trivial_extension,
)
from maltkit.rings import FiniteRing, LinearForm, LeftModule, cyclic_ring, dual_numbers_f2
from maltkit.specfile import parse_files

from conftest import form_corpus
from test_commutator import SMALL_GROUPS
from test_extensions import all_form_extensions, id_form

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


def test_no_quantifiers_is_one_empty_tuple():
    laws = [("holds", lambda: np.True_), ("fails", lambda: np.False_), ("late", lambda: False)]
    assert first_violation((), laws) == ("fails", ())
    assert first_violation((), laws[:1]) is None


# --- checks that report otherwise, against the former loops kept in law_oracle


def draw_permutation(draw, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = draw(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


M2 = FiniteMonoid(2, 0, (0, 1, 1, 1), name="M2")


def _m2_systems():
    """Natural systems on M2 = {1, 0}: the counterexample's, and for each pair
    of fibre groups the actions of 0 by zero maps or, between equal groups,
    by identities on either side."""
    ident = lambda g: tuple(range(g.size))
    zero = lambda g: (0,) * g.size
    groups = [AbelianGroup.trivial(), AbelianGroup.cyclic(2), AbelianGroup.cyclic(3)]
    out = [counterexample_monoid()[1]]
    for g0, g1 in itertools.product(groups, repeat=2):
        for lmap, rmap in itertools.product((zero, ident) if g0 == g1 else (zero,), repeat=2):
            out.append(NaturalSystemOnMonoid(
                M2, (g0, g1),
                ((ident(g0), ident(g1)), (lmap(g0), lmap(g1))),
                ((ident(g0), rmap(g0)), (ident(g1), rmap(g1))),
            ))
    return out


M2_SYSTEMS = _m2_systems()
M2_SPLIT = [trivial_extension(M2, system) for system in M2_SYSTEMS]


def linear_extension_case(draw):
    """An extension over M2 that may fail check_linear_extension anywhere: the
    products of the split extension of one system with another system, each
    fibre acted on by translations through a drawn automorphism or trivially,
    and the total elements relabelled so that fibres are not contiguous."""
    split = M2_SPLIT[draw(0, len(M2_SPLIT) - 1)]
    any_groups = draw(0, 3) == 0
    systems = [s for s in M2_SYSTEMS if any_groups or s.groups == split.system.groups]
    system = systems[draw(0, len(systems) - 1)]
    n = split.total.size
    perm = draw_permutation(draw, n)
    proj = [0] * n
    for e in range(n):
        proj[perm[e]] = split.proj[e]
    actions = []
    for b in range(M2.size):
        fib, g = split.fiber(b), system.groups[b]
        autos = isomorphisms(g, g) if g.size == len(fib) else []
        act = ((lambda d, i: i) if not autos or draw(0, 3) == 0
               else lambda d, i, a=autos[draw(0, len(autos) - 1)]: g.plus(a[d], i))
        new = sorted(perm[e] for e in fib)
        table = [0] * (g.size * len(fib))
        for d, i in itertools.product(range(g.size), range(len(fib))):
            table[d * len(fib) + new.index(perm[fib[i]])] = perm[fib[act(d, i)]]
        actions.append(tuple(table))
    mul = [0] * (n * n)
    for a, b in itertools.product(range(n), repeat=2):
        mul[perm[a] * n + perm[b]] = perm[split.total.mulv(a, b)]
    total = FiniteMonoid(n, perm[split.total.unit], tuple(mul))
    return MonoidExtension(total, M2, tuple(proj), system, tuple(actions))


def linear_extension_agrees(ext):
    report = check_linear_extension(ext)
    got = (report.ok, report.reason, report.witness)
    assert got == law_oracle.linear_extension_report(ext)
    return report.reason


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_extension_report_matches_oracle(data):
    linear_extension_agrees(linear_extension_case(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_linear_extension_cases_reach_every_branch():
    """'action is not transitive' cannot occur: with |D_b| = |fibre| a free
    action is transitive."""
    draw = random.Random(0).randint
    reached = {linear_extension_agrees(linear_extension_case(draw)) for _ in range(150)}
    assert reached == {
        "linear extension", "fibre size differs from group order", "action is not free",
        "left subtraction identity fails", "right subtraction identity fails",
    }


def _triangular_f2():
    """Upper triangular 2x2 matrices over F2, (a, b, c) as 4a + 2b + c: a
    ring whose kernel onto F2 x F2 acts differently on the two sides."""
    els = list(itertools.product(range(2), repeat=3))
    enc = lambda a, b, c: 4 * a + 2 * b + c
    return FiniteRing.from_tables(
        tuple(enc(a ^ x, b ^ y, c ^ z) for a, b, c in els for x, y, z in els),
        tuple(enc(a & x, (a & y) ^ (b & z), c & z) for a, b, c in els for x, y, z in els),
    )


def _f2_squared():
    els = list(itertools.product(range(2), repeat=2))
    return FiniteRing.from_tables(
        tuple(2 * (a ^ x) + (c ^ z) for a, c in els for x, z in els),
        tuple(2 * (a & x) + (c & z) for a, c in els for x, z in els),
    )


_diag = tuple(2 * (s // 4) + s % 2 for s in range(8))
_mod4 = tuple(x % 4 for x in range(8))
FORM_EXTENSIONS = all_form_extensions() + [
    FormExtension(id_form(_triangular_f2()), id_form(_f2_squared()), _diag, _diag),
    FormExtension(id_form(cyclic_ring(8)), id_form(cyclic_ring(4)), _mod4, _mod4),
]


def crext_case(draw):
    """A form extension whose maps are surjective but need not be
    homomorphisms: the base ring or module relabelled by a transposition
    fixing 0, or one to three entries of the maps replaced."""
    ext = FORM_EXTENSIONS[draw(0, len(FORM_EXTENSIONS) - 1)]
    p, q = list(ext.ring_map), list(ext.module_map)
    R, M = ext.base.ring.size, ext.base.module.size
    kind = draw(0, 3)
    if kind < 2:
        size = R if kind == 0 else M
        perm = list(range(size))
        i, j = draw(1, size - 1), draw(1, size - 1)
        perm[i], perm[j] = perm[j], perm[i]
        p, q = ([perm[v] for v in p], q) if kind == 0 else (p, [perm[v] for v in q])
    else:
        for _ in range(draw(1, 3)):
            if draw(0, 1):
                p[draw(0, len(p) - 1)] = draw(0, R - 1)
            else:
                q[draw(0, len(q) - 1)] = draw(0, M - 1)
    unchecked = object.__new__(FormExtension)
    for name, value in (("total", ext.total), ("base", ext.base), ("ring_map", tuple(p)),
                        ("module_map", tuple(q)), ("name", "")):
        object.__setattr__(unchecked, name, value)
    return unchecked


def crext_agrees(ext):
    """The reason both report, or None where the maps are not surjective or
    the former loops raise (a value outside a kernel used as one)."""
    if (set(ext.ring_map) != set(range(ext.base.ring.size))
            or set(ext.module_map) != set(range(ext.base.module.size))):
        return None
    try:
        want = law_oracle.crext_report(ext)
    except (KeyError, InvariantViolation):
        return None
    report = crext_check(ext)
    assert (report.ok, report.reason, report.witness, report.bimodule) == want
    return report.reason.split(":")[0]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_crext_report_matches_oracle(data):
    crext_agrees(crext_case(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_crext_cases_reach_every_branch():
    draw = random.Random(0).randint
    reached = {crext_agrees(crext_case(draw)) for _ in range(400)} - {None}
    assert reached == {
        "singular extension", "ring kernel does not square to zero",
        "ring kernel does not annihilate the module kernel", "left action ill-defined",
        "right action ill-defined", "kernel module action ill-defined",
        "kernel module law fails", "delta leaves the ring kernel", "pairing ill-defined",
        "pairing leaves the module kernel", "bimodule law fails",
    }


def relabelled_form(form, ring_perm, module_perm):
    """The same form on relabelled carriers: an isomorphic copy."""
    R, M, pi, sigma = form.ring, form.module, ring_perm, module_perm
    table = lambda op, perm, n: tuple(
        perm[op[a * n + b]] for a, b in sorted(itertools.product(range(n), repeat=2),
                                                key=lambda t: (perm[t[0]], perm[t[1]])))
    ring = FiniteRing(R.size, table(R.add, pi, R.size), table(R.mul, pi, R.size),
                      pi[R.zero], pi[R.one])
    act = [0] * (R.size * M.size)
    for r, x in itertools.product(range(R.size), range(M.size)):
        act[pi[r] * M.size + sigma[x]] = sigma[M.smul(r, x)]
    module = LeftModule(ring, M.size, table(M.add, sigma, M.size), tuple(act))
    d = [0] * M.size
    for x in range(M.size):
        d[sigma[x]] = pi[form.d[x]]
    return LinearForm(module, tuple(d))


ISO_FORMS = [f for _, f in form_corpus()]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_form_isomorphism_matches_oracle(data):
    draw = lambda lo, hi: data.draw(st.integers(lo, hi))
    f1, f2 = (ISO_FORMS[draw(0, len(ISO_FORMS) - 1)] for _ in range(2))
    if draw(0, 1):
        f2 = f1
    f2 = relabelled_form(f2, draw_permutation(draw, f2.ring.size),
                         draw_permutation(draw, f2.module.size))
    assert form_isomorphism(f1, f2) == law_oracle.form_isomorphism(f1, f2, isomorphisms)


HOM_ALGEBRAS = [SMALL_GROUPS, [two_element_semilattice()]]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_is_homomorphism_matches_oracle(data):
    """Maps x -> k*x, constant maps to the unit and identities, with up to
    two entries replaced."""
    draw = lambda lo, hi: data.draw(st.integers(lo, hi))
    algebras = HOM_ALGEBRAS[draw(0, 1)]
    src, tgt = (algebras[draw(0, len(algebras) - 1)] for _ in range(2))
    if draw(0, 1):
        tgt = src
    unit = tgt.ops[-1].table[0]  # e, or meet(0, 0) = 0 on the semilattice
    k = draw(0, tgt.size - 1)
    hmap = [
        [(k * x) % tgt.size for x in range(src.size)],
        [unit] * src.size,
        [x % tgt.size for x in range(src.size)],
    ][draw(0, 2)]
    for _ in range(draw(0, 2)):
        hmap[draw(0, src.size - 1)] = draw(0, tgt.size - 1)
    h = Homomorphism(src, tgt, tuple(hmap))
    assert is_homomorphism(h) == law_oracle.is_homomorphism(h)

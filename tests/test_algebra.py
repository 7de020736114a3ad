import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import law_oracle
from law_oracle import flat
from maltkit import algebra, laws
from maltkit.affinity import FreeAffinity, _binary_terms
from maltkit.algebra import (
    _projections,
    _term_blocks,
    FiniteAlgebra,
    Operation,
    eval_term,
    iter_term_ops,
    mixed_index,
    mixed_unindex,
    product,
    term_clone,
)
from maltkit.catalog import cyclic_group, group_corpus, maltsev_corpus
from maltkit.commutator import is_abelian
from maltkit.errors import CloneBudgetExceeded, InvariantViolation, SignatureError
from maltkit.maltsev import find_maltsev_term, is_maltsev_table
from maltkit.rings import LinearForm, cyclic_ring, dual_numbers_f2, module_over_self


def subuniverse_generate(alg, generators):
    """Least subset containing the generators, closed under all operations,
    sorted ascending; nullary operations always seed it.  It is the closure
    of the clone engine at one coordinate, whose generator rows are the
    generators, so the tests below check the engine on rows that are not
    projections."""
    gens = np.reshape(sorted(set(generators)), (-1, 1))
    blocks = _term_blocks(alg, gens, max(1, alg.size))
    return tuple(sorted(v for rows, _ in blocks for v in rows[:, 0].tolist()))


def brute_closure(alg, generators):
    """Naive fixpoint closure, the oracle for subuniverse_generate."""
    members = set(generators)
    while True:
        new = set()
        for op in alg.ops:
            for args in itertools.product(sorted(members), repeat=op.arity):
                v = int(op.values[args])
                if v not in members:
                    new.add(v)
        if not new:
            return tuple(sorted(members))
        members |= new


def test_tuple_index_roundtrip():
    for args in itertools.product(range(3), repeat=4):
        assert mixed_unindex((3,) * 4, mixed_index((3,) * 4, args)) == args


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4), st.data())
@settings(max_examples=50, deadline=None)
def test_mixed_radix_roundtrip(sizes, data):
    values = tuple(data.draw(st.integers(0, s - 1)) for s in sizes)
    assert mixed_unindex(sizes, mixed_index(sizes, values)) == values


def test_table_validation():
    with pytest.raises(InvariantViolation):
        FiniteAlgebra(2, (Operation("f", 2, (0, 1, 1)),))
    with pytest.raises(InvariantViolation):
        FiniteAlgebra(2, (Operation("f", 1, (0, 2)),))
    with pytest.raises(InvariantViolation):
        FiniteAlgebra(2, (Operation("f", 0, (0,)), Operation("f", 1, (0, 1))))


def test_product_klein_four():
    z2 = cyclic_group(2)
    klein = product([z2, z2])
    assert klein.size == 4
    plus = klein.op("plus")
    for a in range(4):
        for b in range(4):
            expect = ((a // 2 ^ b // 2) * 2) + (a % 2 ^ b % 2)
            assert plus.table[a * 4 + b] == expect
    # x + x = 0 everywhere
    assert all(plus.table[a * 4 + a] == 0 for a in range(4))


def test_product_single_factor_identity():
    z3 = cyclic_group(3)
    again = product([z3])
    assert again.size == 3
    assert [op.table.tolist() for op in again.ops] == [op.table.tolist() for op in z3.ops]


def test_product_z2_z3_against_pairwise_oracle():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    p = product([z2, z3])
    assert p.size == 6
    plus = p.op("plus")
    for a2, a3 in itertools.product(range(2), range(3)):
        for b2, b3 in itertools.product(range(2), range(3)):
            lhs = plus.table[(a2 * 3 + a3) * 6 + (b2 * 3 + b3)]
            assert lhs == ((a2 + b2) % 2) * 3 + (a3 + b3) % 3


def test_product_projections_recover_factors():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    p = product([z2, z3])
    sizes = [2, 3]
    for i, factor in enumerate((z2, z3)):
        for op in factor.ops:
            pop = p.op(op.name)
            for args in itertools.product(range(p.size), repeat=op.arity):
                decoded = tuple(mixed_unindex(sizes, a)[i] for a in args)
                assert mixed_unindex(sizes, pop.values[args])[i] == op.values[decoded]


def test_product_signature_mismatch():
    z2 = cyclic_group(2)
    other = FiniteAlgebra(2, (Operation("f", 1, (0, 1)),))
    with pytest.raises(SignatureError):
        product([z2, other])
    with pytest.raises(SignatureError):
        product([])


def test_subuniverse_examples(z4):
    assert subuniverse_generate(z4, {2}) == (0, 2)
    assert subuniverse_generate(z4, {1}) == (0, 1, 2, 3)
    assert subuniverse_generate(z4, range(4)) == (0, 1, 2, 3)
    assert subuniverse_generate(z4, {2}) == brute_closure(z4, {2})
    assert subuniverse_generate(z4, {1}) == brute_closure(z4, {1})


def test_subuniverse_nullary_seed(z4):
    # the nullary zero operation forces 0 into every subuniverse
    assert subuniverse_generate(z4, set()) == (0,)


@given(st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_subuniverse_idempotent_monotone(g1, g2):
    alg = cyclic_group(4)
    s1 = subuniverse_generate(alg, g1)
    assert subuniverse_generate(alg, s1) == s1
    if g1 <= g2:
        assert set(s1) <= set(subuniverse_generate(alg, g2))


@st.composite
def algebras_with_generators(draw):
    """At most five elements, operations of arity 0 to 3, and a set of
    generators."""
    n = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    alg = FiniteAlgebra(n, tuple(
        Operation(f"f{i}", a, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**a,
                                                   max_size=n**a))))
        for i, a in enumerate(arities)))
    return alg, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=80, deadline=None)
@given(algebras_with_generators())
def test_subuniverse_matches_brute_closure(case):
    alg, generators = case
    assert subuniverse_generate(alg, generators) == brute_closure(alg, generators)


def one_ternary(table2, size):
    return FiniteAlgebra(size, (Operation("m", 3, table2),))


def test_term_clone_z2_sum_arity1():
    table = tuple((x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3))
    alg = one_ternary(table, 2)
    clone = term_clone(alg, 1)
    assert [flat(t.values) for t in clone] == [(0, 1)]


def test_term_clone_z2_sum_arity2():
    table = tuple((x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3))
    alg = one_ternary(table, 2)
    clone = term_clone(alg, 2)
    assert sorted(flat(t.values) for t in clone) == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_term_clone_always_contains_identity(z4):
    clone = term_clone(z4, 1)
    assert (0, 1, 2, 3) in {flat(t.values) for t in clone}
    assert clone[0].witness == ("var", 0)


def test_term_clone_budget(z4):
    with pytest.raises(CloneBudgetExceeded):
        term_clone(z4, 2, budget=3)


def test_clone_budget_reports_progress(z4):
    """x1, x2 and plus(x1, x1) fit the budget; plus(x1, x2), the second
    argument tuple of round 1, is the fourth table."""
    with pytest.raises(CloneBudgetExceeded) as exc:
        term_clone(z4, 2, budget=3)
    assert (exc.value.count, exc.value.round, exc.value.combos_tried) == (3, 1, 2)
    assert str(exc.value) == "clone budget 3 exceeded at arity 2"


def sequence(term_ops):
    """The (table, witness) pairs of a clone enumeration, then the count,
    round and argument tuples tried of a budget error if one ends it."""
    out = []
    try:
        for t in term_ops:
            out.append((flat(t.values), t.witness) if hasattr(t, "values") else t)
    except CloneBudgetExceeded as exc:
        out.append(("budget", exc.count, exc.round, exc.combos_tried))
    return out


@st.composite
def small_algebras(draw):
    """At most four elements; a nullary, unary, binary or ternary operation
    each, possibly several of one arity."""
    n = draw(st.integers(1, 4))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return FiniteAlgebra(n, tuple(
        Operation(f"f{i}", a, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**a,
                                                   max_size=n**a))))
        for i, a in enumerate(arities)))


def packed(mp, alg, w, slots=algebra.CACHE_SLOTS):
    """Make the engine pack w coordinates per element of A^w (fewer if the
    rows are shorter) and look codes up through a cache of the given slots."""
    widest = max([op.arity for op in alg.ops] + [1])
    assert alg.size ** (w * widest) <= 1 << 20, "keep the tables on A^w small"
    mp.setattr(algebra, "TABLE_ENTRIES", alg.size ** (w * widest))
    mp.setattr(algebra, "CACHE_SLOTS", slots)


@settings(max_examples=80, deadline=None)
@given(small_algebras(), st.integers(0, 3), st.integers(1, 40), st.sampled_from([1, 2, 3]),
       st.sampled_from([2, algebra.CACHE_SLOTS]))
def test_iter_term_ops_matches_oracle(alg, arity, budget, w, slots):
    """Packed rows of widths 1 to 3, which need not divide the row length,
    and a 2-slot cache in which lookups collide."""
    with pytest.MonkeyPatch.context() as mp:
        packed(mp, alg, w, slots)
        assert sequence(iter_term_ops(alg, arity, budget)) == sequence(
            law_oracle.term_ops(alg, arity, budget))


def test_packing_width():
    """5 coordinates per element for 3-element groupoids, 2 for groups of
    8 to 16 elements, 1 for 64-element free affinities (ternary herd), and
    never more than the row length."""
    assert algebra._packing(3, 2, 27) == 5
    assert [algebra._packing(n, 2, n**3) for n in (8, 12, 16)] == [2, 2, 2]
    assert algebra._packing(64, 3, 64**2) == 1
    assert algebra._packing(3, 2, 1) == algebra._packing(1, 3, 4) - 3 == 1


def test_iter_term_ops_matches_oracle_on_split_batches(monkeypatch):
    """Runs of two and three last arguments, so that a run ends inside the
    arguments of one prefix and budget errors fall between runs."""
    s3 = next(alg for alg, _ in maltsev_corpus() if alg.name == "S3")
    groupoid = FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),))
    for chunk, alg, arity, budget in [(20, groupoid, 2, 500), (80, groupoid, 3, 150),
                                      (100, s3, 2, 400), (3 * 216, s3, 3, 120)]:
        monkeypatch.setattr(laws, "CHUNK", chunk)
        assert sequence(iter_term_ops(alg, arity, budget)) == sequence(
            law_oracle.term_ops(alg, arity, budget))


def isotope(n, stream):
    """The Latin square c(a(x) + b(y)) mod n for random permutations a, b, c."""
    a, b, c = (stream.sample(range(n), n) for _ in range(3))
    return FiniteAlgebra(n, (Operation(
        "f", 2, tuple(c[(a[x] + b[y]) % n] for x in range(n) for y in range(n))),))


def free_affinity(ring):
    """The rank-2 free affinity of the identity form of ring."""
    return FreeAffinity(LinearForm(module_over_self(ring), tuple(range(ring.size))), 2).algebra()


def test_binary_terms_on_free_affinities(monkeypatch):
    """The free affinities of id-Z2, ..., id-Z6 and F2[eps] (the clone has
    n tables): complete, and cut by the budget inside a round.  The engine
    tells tables apart on the 2n - 1 pairs (x, 0) and (0, y) and yields the
    full clone's tables, witnesses, order and budget progress."""
    for ring in [cyclic_ring(k) for k in range(2, 7)] + [dual_numbers_f2()]:
        alg = free_affinity(ring)
        for budget in (10_000, alg.size // 2 + 1, 3):
            assert sequence(_binary_terms(alg, budget)) == sequence(
                law_oracle.term_ops(alg, 2, budget))
    # runs of 16 candidates, whose whole rows are evaluated two at a time
    alg = free_affinity(cyclic_ring(4))
    monkeypatch.setattr(laws, "CHUNK", 2 * alg.size**2)
    for budget in (10_000, 11):
        assert sequence(_binary_terms(alg, budget)) == sequence(
            law_oracle.term_ops(alg, 2, budget))
    axes = np.union1d(np.arange(16) * 16, np.arange(16))
    for rows, term in _term_blocks(alg, _projections(16, 2), 100, axes):
        assert rows.tolist() == [term(i).values.ravel().tolist() for i in range(len(rows))]


def test_binary_terms_packed():
    """The binary clone on the 2n - 1 pairs X of the free affinities of
    id-Z2 and id-Z3 (a ternary herd) and of Z6 (with its nullary zero),
    packed 1 to 3 (id-Z3: 2) coordinates of X at a time (2n - 1 is odd)
    and with a 2-slot cache."""
    cases = [(free_affinity(cyclic_ring(2)), 3), (free_affinity(cyclic_ring(3)), 2),
             (cyclic_group(6), 3)]
    for alg, most in cases:
        for budget in (10_000, 5):
            oracle = sequence(law_oracle.term_ops(alg, 2, budget))
            for w, slots in [(1, 2), (2, algebra.CACHE_SLOTS), (most, 2)]:
                with pytest.MonkeyPatch.context() as mp:
                    packed(mp, alg, w, slots)
                    assert sequence(_binary_terms(alg, budget)) == oracle, (alg.size, w, slots)


def test_binary_terms_on_abelian_groups():
    groups = [alg for alg, p, *_ in group_corpus() if is_abelian(alg, p)]
    assert [alg.size for alg in groups] == [2, 3, 4, 5, 6, 4]
    for alg in groups + [cyclic_group(8)]:
        for budget in (10_000, 7):
            assert sequence(_binary_terms(alg, budget)) == sequence(
                law_oracle.term_ops(alg, 2, budget))


@st.composite
def affine_algebras(draw):
    """Z_n^k with operations c + A_1 x_1 + ... + A_a x_a of arity a in 0..3,
    for a vector c and k x k matrices A_i over Z_n; elements are their
    digit vectors, most significant first."""
    n, k = draw(st.sampled_from([(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3)]))
    size = n**k
    digits = _projections(n, k)
    ops = []
    for i, a in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))):
        value = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))[:, None]
        for x in _projections(size, a):
            mat = draw(st.lists(st.integers(0, n - 1), min_size=k * k, max_size=k * k))
            value = value + np.reshape(mat, (k, k)) @ digits[:, x]
        table = n ** np.arange(k - 1, -1, -1) @ (value % n)
        ops.append(Operation(f"f{i}", a, tuple(np.broadcast_to(table, size**a).tolist())))
    return FiniteAlgebra(size, tuple(ops))


@settings(max_examples=40, deadline=None)
@given(affine_algebras(), st.integers(1, 30))
def test_binary_terms_on_affine_algebras(alg, budget):
    assert sequence(_binary_terms(alg, budget)) == sequence(law_oracle.term_ops(alg, 2, budget))


def test_blocks_split_inside_one_prefix(monkeypatch):
    """With runs of three last arguments, a run ends inside the arguments of
    one prefix, so consecutive blocks share their operation and prefix; the
    blocks still hold the oracle's tables in its order."""
    monkeypatch.setattr(laws, "CHUNK", 3 * 27)
    groupoid = FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),))
    blocks = []
    with pytest.raises(CloneBudgetExceeded) as exc:
        for rows, term in _term_blocks(groupoid, _projections(3, 3), 200):
            blocks.append([term(i) for i in range(len(rows))])
            assert [flat(t.values) for t in blocks[-1]] == [tuple(r) for r in rows.tolist()]
    found = [(flat(t.values), t.witness) for block in blocks for t in block]
    assert found + [("budget", exc.value.count, exc.value.round, exc.value.combos_tried)] \
        == sequence(law_oracle.term_ops(groupoid, 3, 200))
    assert any(a[-1].witness[:-1] == b[0].witness[:-1] for a, b in zip(blocks, blocks[1:]))


def depth(term):
    return 0 if term[0] == "var" else 1 + max(map(depth, term[1:]), default=0)


def engine_blocks(alg, arity, budget, cols=None):
    """The engine's blocks, one per run with new tables, as lists of
    TermOps, and the progress of the budget error that ends them, if any."""
    blocks, progress = [], None
    try:
        for rows, term in _term_blocks(alg, _projections(alg.size, arity), budget, cols):
            blocks.append([term(i) for i in range(len(rows))])
    except CloneBudgetExceeded as exc:
        progress = exc.count, exc.round, exc.combos_tried
    return blocks, progress


def run_shapes(blocks, binary):
    """Which of three shapes of runs the blocks show.  A binary operation's
    prefixes form two groups in a round: those from the previous round,
    whose last arguments start at 0, and the older ones."""
    def group(t):
        return t.witness[0], depth(t.witness), depth(t.witness[1]) == depth(t.witness) - 1

    shapes = set()
    if any(len({t.witness[:-1] for t in b}) > 1 for b in blocks):
        shapes.add("several prefixes")
    for a, b in zip(blocks, blocks[1:]):
        if a[-1].witness[:-1] == b[0].witness[:-1]:
            shapes.add("ends inside a prefix")
        elif a[-1].witness[0] == b[0].witness[0] == binary and group(a[-1]) == group(b[0]):
            shapes.add("ends inside a group")
    return shapes


def axes(n):
    """The 2n - 1 pairs (x, 0) and (0, y), where _binary_terms tells tables apart."""
    return np.union1d(np.arange(n) * n, np.arange(n))


def test_runs_of_several_prefixes_match_oracle(monkeypatch):
    """A run is as many prefixes as laws.CHUNK allows, each with all its
    last arguments, or one prefix with a slice of them.  On a 3-element
    algebra with a unary, a binary and a ternary operation, at arities 1 to
    3, and on the binary clones of Z6 and of the id-Z3 free affinity (a
    ternary herd, three binary and three unary operations) on the pairs X:
    with the default CHUNK a run holds several prefixes, and smaller ones
    end runs inside a group of prefixes and inside a prefix.  The tables,
    witnesses, order and budget progress are the oracle's."""
    stream = random.Random(20020304)
    mixed = FiniteAlgebra(3, tuple(
        Operation(name, a, tuple(stream.randrange(3) for _ in range(3**a)))
        for name, a in (("u", 1), ("b", 2), ("t", 3))))
    affinity = free_affinity(cyclic_ring(3))
    cases = [(mixed, arity, None, "b", budget) for arity in (1, 2, 3) for budget in (25, 60)]
    cases += [(cyclic_group(6), 2, axes(6), "plus", budget) for budget in (20, 100)]
    cases += [(affinity, 2, axes(9), "sc1", budget) for budget in (5, 100)]
    shapes = set()
    for chunk in (laws.CHUNK, 60, 20):
        monkeypatch.setattr(laws, "CHUNK", chunk)
        for alg, arity, cols, binary, budget in cases:
            oracle = sequence(law_oracle.term_ops(alg, arity, budget))
            if cols is None:
                assert sequence(iter_term_ops(alg, arity, budget)) == oracle
            else:
                assert sequence(_binary_terms(alg, budget)) == oracle
            blocks, progress = engine_blocks(alg, arity, budget, cols)
            assert [(flat(t.values), t.witness) for b in blocks for t in b] + (
                [("budget", *progress)] if progress else []) == oracle
            shapes |= run_shapes(blocks, binary)
    assert shapes == {"several prefixes", "ends inside a prefix", "ends inside a group"}


@pytest.mark.parametrize("alg, arity, cols, budget", [
    (FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),)), 3, None, 40),
    (FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),)), 3, None, 110),
    (cyclic_group(6), 2, axes(6), 20),
    (free_affinity(cyclic_ring(5)), 2, axes(25), 20),
])
def test_budget_runs_out_inside_a_run_of_several_prefixes(alg, arity, cols, budget):
    """The table past the budget and the one before it come from one run,
    which holds tables of several prefixes: the error carries the oracle's
    round and argument tuples tried."""
    blocks, _ = engine_blocks(alg, arity, 10 * budget, cols)
    start = 0
    while start + len(blocks[0]) <= budget:
        start += len(blocks.pop(0))
    assert start < budget and len({t.witness[:-1] for t in blocks[0]}) > 1
    oracle = sequence(law_oracle.term_ops(alg, arity, budget))
    assert oracle[-1][0] == "budget"
    if cols is None:
        assert sequence(iter_term_ops(alg, arity, budget)) == oracle
    else:
        assert sequence(_binary_terms(alg, budget)) == oracle


def test_maltsev_hit_in_a_later_prefix_of_its_run():
    """In Z3, Z4, Z5 and AffQ3 the first Maltsev table comes from a run of
    several prefixes, and not from its first one."""
    corpus = {alg.name: alg for alg, _ in maltsev_corpus()}
    for name in ("Z3", "Z4", "Z5", "AffQ3"):
        alg = corpus[name]
        blocks, _ = engine_blocks(alg, 3, 150)
        block = next(b for b in blocks if any(is_maltsev_table(t.values, alg.size) for t in b))
        hit = next(t for t in block if is_maltsev_table(t.values, alg.size))
        assert hit.witness[:-1] != block[0].witness[:-1], name
        found = find_maltsev_term(alg, 150)
        assert (flat(found.values), found.witness) == first_maltsev(
            law_oracle.term_ops(alg, 3, 150), alg.size)


def test_budget_runs_out_inside_the_block_of_a_maltsev_row():
    """SubQ5's first Maltsev table is table 11 of the ternary clone, and
    tables 10 to 12 come from one run of last arguments.  With budget 12 the
    run overflows after the Maltsev row, which is returned; with budget 10
    or 11 it overflows at or before that row, and the error carries the
    oracle's progress."""
    subq5 = next(alg for alg, _ in maltsev_corpus() if alg.name == "SubQ5")
    oracle = list(itertools.islice(law_oracle.term_ops(subq5, 3, 100), 13))
    assert [is_maltsev_table(t, 5) for t, _ in oracle].index(True) == 11
    assert len({w[:-1] for _, w in oracle[10:13]}) == 1
    found = find_maltsev_term(subq5, 12)
    assert (flat(found.values), found.witness) == oracle[11]
    for budget in (10, 11):
        with pytest.raises(CloneBudgetExceeded) as exc:
            find_maltsev_term(subq5, budget)
        progress = exc.value.count, exc.value.round, exc.value.combos_tried
        assert ("budget", *progress) == sequence(law_oracle.term_ops(subq5, 3, budget))[-1]


@pytest.mark.parametrize("code_bits", [62, 8, 3])
def test_both_lookup_paths_match_oracle(monkeypatch, code_bits):
    """Exact codes hold whole rows (3 elements at arity 3, 2 at arity 5);
    the Z4 and Z5 isotopes at arity 3 use codes on a set of coordinates that
    widens, since all projections agree at (0, 0, 0), and confirm every hit
    on the full row.  Fewer code bits force the second path everywhere and
    leave distinct stored tables with equal codes."""
    monkeypatch.setattr(algebra, "CODE_BITS", code_bits)
    monkeypatch.setattr(laws, "CHUNK", 1000)
    stream = random.Random(20020304)
    groupoid = FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),))
    cases = [(groupoid, 3, 300), (cyclic_group(2), 5, 300),
             (isotope(4, stream), 3, 300), (isotope(5, stream), 3, 300)]
    for alg, arity, budget in cases:
        oracle = sequence(law_oracle.term_ops(alg, arity, budget))
        assert sequence(iter_term_ops(alg, arity, budget)) == oracle
        for w, slots in [(1, 2), (2, algebra.CACHE_SLOTS), (2, 2), (3, algebra.CACHE_SLOTS),
                         (3, 2)]:
            with pytest.MonkeyPatch.context() as mp:
                packed(mp, alg, w, slots)
                assert sequence(iter_term_ops(alg, arity, budget)) == oracle, (w, slots)


def first_maltsev(term_ops, n):
    try:
        return next(((t[0], t[1]) for t in term_ops if is_maltsev_table(t[0], n)), None)
    except CloneBudgetExceeded as exc:
        return "budget", exc.count, exc.round, exc.combos_tried


def test_find_maltsev_term_stops_where_the_oracle_does():
    """Latin squares, random 3-element groupoids, the stalling groupoid of
    the term-search benchmark and the catalog corpus: the first Maltsev
    member or the budget error, in the oracle's order."""
    stream = random.Random(20020304)
    algs = [FiniteAlgebra(3, (Operation("f", 2, tuple(stream.randrange(3) for _ in range(9))),))
            for _ in range(6)]
    algs.append(FiniteAlgebra(3, (Operation("f", 2, (0, 2, 2, 0, 1, 2, 1, 2, 2)),)))
    algs += [isotope(n, stream) for n in (3, 4, 5)]
    algs += [alg for alg, _ in maltsev_corpus()]
    for alg in algs:
        try:
            found = find_maltsev_term(alg, 150)
            found = found and (flat(found.values), found.witness)
        except CloneBudgetExceeded as exc:
            found = "budget", exc.count, exc.round, exc.combos_tried
        assert found == first_maltsev(law_oracle.term_ops(alg, 3, 150), alg.size)


def test_term_clone_closed_under_composition(z4):
    clone2 = term_clone(z4, 2)
    tables = {flat(t.values) for t in clone2}
    # compose a few members through their witnesses: t(u(x,y), v(x,y))
    for t in clone2[:4]:
        for u in clone2[:4]:
            for v in clone2[:4]:
                composed = tuple(
                    eval_term(
                        z4,
                        t.witness,
                        (
                            eval_term(z4, u.witness, (x, y)),
                            eval_term(z4, v.witness, (x, y)),
                        ),
                    )
                    for x, y in itertools.product(range(4), repeat=2)
                )
                assert composed in tables


def test_empty_algebra_clone():
    empty = FiniteAlgebra(0, (Operation("f", 2, ()),))
    clone = term_clone(empty, 2)
    assert len(clone) == 1 and flat(clone[0].values) == ()

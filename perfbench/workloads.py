"""Seeded job lists for the three benchmark workloads.

A job is one `mk` command line plus the checker for its answer.  The
structures of a workload are fixed isomorphism classes: the seed draws a
fresh labelling of every carrier, fresh entity names and the job order, and
the file names of the robustness slice.  The cost of every job is invariant
under relabelling, so runs on different seeds measure the same work on inputs
the program has not seen.  The random groupoids and Latin squares of
`term-search` and the mutations of the robustness slice come from fixed
streams for the same reason; they are drawn once and never filtered by cost.

Inputs are built with maltkit's `catalog` and `algebra.product`, written
out as spec files, and checked by `oracles`, which shares no code with
maltkit.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

import oracles
from maltkit import catalog
from maltkit.algebra import FiniteAlgebra, Operation, product
from maltkit.rings import (
    LeftModule, cyclic_ring, dual_numbers_f2, module_over_self, submodule, zero_module,
)

# Fixed benchmark constants: `mk maltsev-term --budget`, the random
# structures of term-search and the mutations of the robustness slice.
TERM_BUDGET = 10_000
GROUPOID_STREAM = 20020304
FUZZ_STREAM = 20020304
# Mutations in the robustness slice: at the baseline's crash rate (3 in 240
# mutations) about two of them crash the program.
FUZZ_MUTATIONS = 200

# Per-job time limit of each workload, in seconds.  Each sits in a wide gap
# between the slowest job that finishes and the fastest one that does not
# (NOTES.md), so that no job's outcome depends on the machine's speed.
JOB_LIMIT_S = {"commutator-groups": 15.0, "affine-forms": 20.0, "term-search": 10.0}

# The 3-element groupoid on which clone search stalls (ROADMAP baseline).
STALLING_GROUPOID = (0, 2, 2, 0, 1, 2, 1, 2, 2)

WORKLOADS = ("commutator-groups", "affine-forms", "term-search")


@dataclass
class Job:
    id: str
    label: str          # structure and verb, the same on every seed
    argv: list
    check: object       # check(exit_code, stdout) -> None | reason
    domain_error_ok: bool = False
    fuzz: bool = False  # robustness slice: a mutated input with no reference answer


class _Writer:
    """Writes spec files into one directory and names entities from the seed."""

    def __init__(self, directory: Path, rng: random.Random):
        self.dir = directory
        self.rng = rng
        self.files = []

    def name(self, prefix):
        return f"{prefix}{self.rng.randrange(16 ** 6):06x}"

    def write(self, stem, text):
        path = self.dir / f"{stem}.spec"
        path.write_text(text)
        self.files.append(str(path))
        return str(path)


def _fmt(values):
    return "[" + " ".join(str(v) for v in values) + "]"


def _relabel(n, ops, perm):
    """Isomorphic copy: element a becomes perm[a]; ops maps name -> (arity, table)."""
    out = {}
    for name, (arity, table) in ops.items():
        new = [0] * len(table)
        for args in itertools.product(range(n), repeat=arity):
            old = 0
            idx = 0
            for a in args:
                old = old * n + a
                idx = idx * n + perm[a]
            new[idx] = perm[table[old]]
        out[name] = (arity, new)
    return out


def _alg_ops(alg):
    return {op.name: (op.arity, list(op.table)) for op in alg.ops}


def _algebra_text(name, n, ops):
    body = " ".join(f"op {k}/{a} = {_fmt(t)}" for k, (a, t) in ops.items())
    return f"algebra {name} {{ size {n} {body} }}\n"


def _shuffled_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _as_mul_group(alg):
    """Rename (plus, neg, zero) to (mul, inv, e) so that products type-check."""
    names = {"plus": "mul", "neg": "inv", "zero": "e"}
    return FiniteAlgebra(
        alg.size,
        tuple(Operation(names.get(op.name, op.name), op.arity, op.table) for op in alg.ops),
        name=alg.name,
    )


# --- commutator-groups ------------------------------------------------------

def _groups(size):
    if size == "tiny":
        return [("S3", catalog.symmetric_group_3()), ("D4", catalog.dihedral_group(4))]
    s3xz2 = product([catalog.symmetric_group_3(), _as_mul_group(catalog.cyclic_group(2))])
    return [
        ("D4", catalog.dihedral_group(4)),
        ("Q8", catalog.quaternion_group()),
        ("D5", catalog.dihedral_group(5)),
        ("S3xZ2", s3xz2),
        ("D6", catalog.dihedral_group(6)),
        ("D8", catalog.dihedral_group(8)),
    ]


# Which groups each verb runs on.  nilpotence on D8, which needs the center of
# D8, is the top rung: at the baseline it runs past the per-job limit.  center
# on D6 is left out: it took 10 to 17 s, across the limit, so its outcome
# would change from run to run.
_CENTER_ON = {"S3", "D4", "Q8", "D5"}
_NILPOTENCE_ON = {"S3", "D4", "Q8", "D8"}


def commutator_groups(w: _Writer, size):
    jobs = []
    for label, alg in _groups(size):
        n = alg.size
        ops = _relabel(n, _alg_ops(alg), _shuffled_perm(w.rng, n))
        group = oracles.Group(ops["mul"][1])
        subs = {
            "total": group.whole(),
            "center": group.center(),
            "derived": group.commutator(group.whole(), group.whole()),
        }
        name = w.name("G")
        cnames = {k: w.name("C") for k in subs}
        text = _algebra_text(name, n, ops)
        for key, sub in subs.items():
            blocks = " | ".join(" ".join(map(str, sorted(b))) for b in sorted(group.cosets(sub), key=min))
            text += f"cong {cnames[key]} on {name} {{ blocks: {blocks} }}\n"
        path = w.write(name, text)

        for r, s in (("total", "total"), ("total", "derived"), ("derived", "derived"), ("center", "total")):
            jobs.append(Job(
                "", f"commutator {label} [{r},{s}]",
                ["commutator", path, "--R", cnames[r], "--S", cnames[s]],
                functools.partial(oracles.check_commutator, group, subs[r], subs[s]),
            ))
        if label in _CENTER_ON:
            jobs.append(Job("", f"center {label}", ["center", path],
                            functools.partial(oracles.check_center, group)))
        if label in _NILPOTENCE_ON:
            jobs.append(Job("", f"nilpotence {label}", ["nilpotence", path],
                            functools.partial(oracles.check_nilpotence, group)))
        jobs.append(Job("", f"abelianize {label}", ["abelianize", path],
                        oracles.check_not_abelian, domain_error_ok=True))
    return jobs


# --- affine-forms -----------------------------------------------------------

def _forms(size):
    """(label, ring add, ring mul, module add, module act, d) of each form."""
    def flat(module, d):
        r = module.ring
        return (r.add, r.mul, module.add, module.act, d)

    def ident(ring):
        return flat(module_over_self(ring), tuple(range(ring.size)))

    z = {k: cyclic_ring(k) for k in range(2, 9)}
    f2eps = dual_numbers_f2()
    if size == "tiny":
        return [("id-Z2", *ident(z[2])), ("zero-into-Z2", *flat(zero_module(z[2]), (0,)))]
    z2_over_z4 = LeftModule(z[4], 2, (0, 1, 1, 0), tuple((r * x) % 2 for r in range(4) for x in range(2)))
    eps_ideal, _ = submodule(module_over_self(f2eps), [0, 1])
    return [
        *[(f"id-Z{k}", *ident(z[k])) for k in (2, 3, 4, 5, 6)],
        ("zero-into-Z3", *flat(zero_module(z[3]), (0,))),
        ("zero-map-Z4", *flat(module_over_self(z[4]), (0, 0, 0, 0))),
        ("double-Z4", *flat(module_over_self(z[4]), (0, 2, 0, 2))),
        ("Z2-into-Z4", *flat(z2_over_z4, (0, 2))),
        ("id-F2eps", *ident(f2eps)),
        ("eps-ideal", *flat(eps_ideal, (0, 1))),
        # Top rung: past the per-job limit at the baseline.
        ("id-Z8", *ident(z[8])),
    ]


def _form_text(w, r_add, r_mul, m_add, m_act, d):
    """Relabel ring and module, write the spec; return path and oracle facts."""
    rn, mn = int(len(r_add) ** 0.5), len(d)
    rp, mp = _shuffled_perm(w.rng, rn), _shuffled_perm(w.rng, mn)
    radd = _relabel(rn, {"a": (2, r_add)}, rp)["a"][1]
    rmul = _relabel(rn, {"a": (2, r_mul)}, rp)["a"][1]
    madd = _relabel(mn, {"a": (2, m_add)}, mp)["a"][1]
    act = [0] * (rn * mn)
    for r, x in itertools.product(range(rn), range(mn)):
        act[rp[r] * mn + mp[x]] = mp[m_act[r * mn + x]]
    dd = [0] * mn
    for x in range(mn):
        dd[mp[x]] = rp[d[x]]
    ring, mod, form = w.name("R"), w.name("M"), w.name("F")
    text = (
        f"ring {ring} {{ size {rn} add = {_fmt(radd)} mul = {_fmt(rmul)} }}\n"
        f"module {mod} over {ring} {{ size {mn} add = {_fmt(madd)} act = {_fmt(act)} }}\n"
        f"form {form} on {mod} {{ d = {_fmt(dd)} }}\n"
    )
    zero_r = next(a for a in range(rn) if all(radd[a * rn + b] == b for b in range(rn)))
    one_r = next(a for a in range(rn) if all(rmul[a * rn + b] == b for b in range(rn)))
    zero_m = next(a for a in range(mn) if all(madd[a * mn + b] == b for b in range(mn)))
    return w.write(form, text), (rn, zero_r, one_r, mn, zero_m)


def _abelian_groups(size):
    if size == "tiny":
        return [("Z4", catalog.cyclic_group(4))]
    z = catalog.cyclic_group
    return [
        ("Z4", z(4)), ("V4", catalog.klein_four()), ("Z6", z(6)),
        ("Z2xZ4", product([z(2), z(4)])), ("Z8", z(8)),
    ]


def _herds(size):
    """(label, group table, commutative) for the herds x*y^-1*z."""
    def table(alg, op):
        return list(alg.op(op).table)

    cyc = (4,) if size == "tiny" else (4, 8, 12, 16)
    out = [(f"Z{k}", table(catalog.cyclic_group(k), "plus"), True) for k in cyc]
    if size != "tiny":
        out += [(g.name, table(g, "mul"), False)
                for g in (catalog.symmetric_group_3(), catalog.dihedral_group(4), catalog.quaternion_group())]
    return out


def _herd_text(w, mul, perm):
    group = oracles.Group(mul)
    n = group.n
    m = group.mul
    entries = []
    for x, y, z in itertools.product(range(n), repeat=3):
        entries.append((perm[x], perm[y], perm[z], perm[m[m[x][group.inv[y]]][z]]))
    entries.sort()
    name = w.name("T")
    body = " ".join(f"({x} {y} {z} -> {v})" for x, y, z, v in entries)
    return w.write(name, f"tern {name} {{ size {n} table: {body} }}\n")


def _corpus_jobs(data: Path, size):
    golden = (data / "counterexample.golden").read_text()
    forms, monoid = str(data / "forms.lf"), str(data / "monoid.ext")
    jobs = [
        Job("", "derivations F4/CZ4", ["derivations", forms, "--form", "F4", "--bim", "CZ4"],
            oracles.check_derivations),
        Job("", "crext X", ["crext", forms, "--name", "X"],
            functools.partial(oracles.check_verdict, "ok", True)),
        Job("", "lin-ext-check E", ["lin-ext-check", monoid],
            functools.partial(oracles.check_verdict, "ok", True)),
        # The fibres of E have orders 1 and 4, so no untwisting family exists.
        Job("", "untwisted-check E", ["untwisted-check", monoid],
            functools.partial(oracles.check_verdict, "found", False)),
    ]
    if size != "tiny":
        jobs.append(Job("", "counterexample --golden", ["counterexample", "--golden"],
                        functools.partial(oracles.check_golden, golden)))
    return jobs


# Verbs run on mutated copies of each tests/data file.  Algebra files are only
# parsed: a mutated table turns term search into a budget-bound search whose
# outcome would vary with the draw.
_FUZZ_VERBS = {
    "z4.alg": [["parse"]],
    "d4.alg": [["parse"]],
    "semilattice.alg": [["parse"]],
    "forms.lf": [["parse"], ["pseudoconstants", "--form", "F4"], ["roundtrip", "--form", "F2"],
                 ["crext", "--name", "X"], ["derivations", "--form", "F4", "--bim", "CZ4"]],
    "monoid.ext": [["parse"], ["lin-ext-check"], ["untwisted-check"]],
    "z4diff.tern": [["parse"], ["torsor-check"], ["torsor-group"]],
}


def _mutate(text, rng):
    """Replace one integer of the file by a nearby or out-of-range value."""
    spans = [m.span() for m in re.finditer(r"-?\d+", text)]
    a, b = spans[rng.randrange(len(spans))]
    old = int(text[a:b])
    new = rng.choice([old + 1, old - 1, -1, old + rng.randrange(2, 9), 0])
    return text[:a] + str(new) + text[b:]


def _fuzz_jobs(w: _Writer, data: Path, count):
    """Mutations from the fixed FUZZ_STREAM, so that every seed runs the same
    slice and the crashes it finds repeat; the seed only names the files."""
    jobs = []
    files = sorted(_FUZZ_VERBS)
    stream = random.Random(FUZZ_STREAM)
    for _ in range(count):
        fname = files[stream.randrange(len(files))]
        text = _mutate((data / fname).read_text(), stream)
        path = w.write(w.name("fuzz"), text)
        for verb in _FUZZ_VERBS[fname]:
            jobs.append(Job("", f"fuzz {fname} {verb[0]}", [verb[0], path, *verb[1:]],
                            oracles.check_any_answer, domain_error_ok=True, fuzz=True))
    return jobs


def affine_forms(w: _Writer, size, data: Path):
    jobs = []
    for label, *tables in _forms(size):
        path, facts = _form_text(w, *tables)
        jobs.append(Job("", f"roundtrip {label}", ["roundtrip", path],
                        functools.partial(oracles.check_roundtrip, *facts)))
    for label, alg in _abelian_groups(size):
        n = alg.size
        ops = _relabel(n, _alg_ops(alg), _shuffled_perm(w.rng, n))
        name = w.name("A")
        path = w.write(name, _algebra_text(name, n, ops))
        group = oracles.Group(ops["plus"][1])
        jobs.append(Job("", f"abelianize {label}", ["abelianize", path],
                        functools.partial(oracles.check_abelian_form, group)))
    for label, mul, commutative in _herds(size):
        n = int(round(len(mul) ** 0.5))
        path = _herd_text(w, mul, _shuffled_perm(w.rng, n))
        jobs.append(Job("", f"torsor-group {label}", ["torsor-group", path],
                        functools.partial(oracles.check_torsor_group, n, commutative)))
    jobs += _corpus_jobs(data, size)
    jobs += _fuzz_jobs(w, data, 2 if size == "tiny" else FUZZ_MUTATIONS)
    return jobs


# --- term-search ------------------------------------------------------------

def _isotope(n, rng):
    """Latin square x.y = c(a(x) + b(y)) mod n for random permutations a, b, c."""
    a, b, c = (_shuffled_perm(rng, n) for _ in range(3))
    return [c[(a[x] + b[y]) % n] for x in range(n) for y in range(n)]


def _term_search_structures(size):
    stream = random.Random(GROUPOID_STREAM)
    if size == "tiny":
        return [("isotope-Z3", 3, {"f": (2, _isotope(3, stream))}),
                ("semilattice2", 2, _alg_ops(catalog.two_element_semilattice()))]
    out = [(f"isotope-Z{k}#{i}", k, {"f": (2, _isotope(k, stream))})
           for k in (3, 4, 5) for i in range(2)]
    out += [(f"groupoid3#{i}", 3, {"f": (2, [stream.randrange(3) for _ in range(9)])})
            for i in range(12)]
    out.append(("groupoid3-stalling", 3, {"f": (2, list(STALLING_GROUPOID))}))
    out += [(alg.name, alg.size, _alg_ops(alg)) for alg, _ in catalog.maltsev_corpus()]
    out.append(("semilattice2", 2, _alg_ops(catalog.two_element_semilattice())))
    return out


def term_search(w: _Writer, size):
    jobs = []
    for label, n, ops in _term_search_structures(size):
        ops = _relabel(n, ops, _shuffled_perm(w.rng, n))
        name = w.name("S")
        path = w.write(name, _algebra_text(name, n, ops))
        jobs.append(Job("", f"maltsev-term {label}",
                        ["maltsev-term", path, "--budget", str(TERM_BUDGET)],
                        functools.partial(oracles.check_maltsev_term, n, ops)))
    return jobs


def build(workload, seed, size, directory: Path, data: Path):
    """Write the workload's spec files; return (jobs, spec files)."""
    w = _Writer(directory, random.Random(f"{workload}/{seed}"))
    if workload == "commutator-groups":
        jobs = commutator_groups(w, size)
    elif workload == "affine-forms":
        jobs = affine_forms(w, size, data)
    elif workload == "term-search":
        jobs = term_search(w, size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    w.rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.id = f"{i:03d}"
    return jobs, w.files

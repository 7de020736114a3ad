import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maltkit
from maltkit import algebra, cli, extensions
from maltkit.catalog import dihedral_group
from maltkit.cli import main
from maltkit.errors import CloneBudgetExceeded
from maltkit.maltsev import find_maltsev_term
from maltkit.rings import DBimodule, cyclic_ring, module_over_self
from maltkit.specfile import parse_files

DATA = Path(__file__).parent / "data"
# a child interpreter finds maltkit where this one did
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(maltkit.__file__).parents[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_verb(capsys):
    code, out = run_cli(capsys, "parse", str(DATA / "z4.alg"))
    assert code == 0
    payload = json.loads(out)
    assert payload["entities"]["algebras"] == ["Z4"]
    assert payload["entities"]["congruences"] == ["Call", "Ctwo"]


def test_maltsev_term_found(capsys):
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "z4.alg"))
    assert code == 0
    payload = json.loads(out)
    # the search stops at the first Maltsev member, before the fixpoint
    assert payload["found"] and not payload["complete"]
    assert "plus" in payload["term"]


def test_maltsev_term_semilattice_absent(capsys):
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "semilattice.alg"))
    assert code == 0
    assert json.loads(out) == {
        "complete": True,
        "found": False,
        "table": None,
        "term": None,
    }


def test_maltsev_term_budget_exit_code(capsys):
    """The budget error carries the library exception's progress."""
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "z4.alg"), "--budget", "2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "CloneBudgetExceeded"
    with pytest.raises(CloneBudgetExceeded) as exc:
        find_maltsev_term(parse_files([str(DATA / "z4.alg")]).algebras["Z4"], 2)
    assert (error["count"], error["round"], error["combos_tried"]) == (
        exc.value.count, exc.value.round, exc.value.combos_tried) == (2, 0, 0)
    assert error["message"] == str(exc.value)


def test_parser_is_built_once(capsys):
    """Calls in one process share one parser and print what calls with a
    fresh parser print, also after an `append` option was given twice."""
    forms = str(DATA / "forms.lf")
    calls = [
        ["affinity-compose", forms, "--form", "F2", "--outer", "0,1", "--inner", "0,0",
         "--inner", "0,1"],
        ["affinity-compose", forms, "--form", "F2", "--outer", "0,1", "--inner", "0,1"],
        ["maltsev-term", str(DATA / "z4.alg"), "--budget", "2"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cli._parser() is cli._parser()
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert "outer arity 2 but 1 inner operations" in fresh[1][1]
    with pytest.raises(SystemExit) as exc:
        main(["maltsev-term", "--arity"])
    assert exc.value.code == 64


def test_commutator_verb(capsys):
    code, out = run_cli(
        capsys, "commutator", str(DATA / "z4.alg"), "--R", "Call", "--S", "Call"
    )
    assert code == 0
    assert json.loads(out)["commutator"] == [[0], [1], [2], [3]]


def test_nilpotence_d4(capsys):
    code, out = run_cli(capsys, "nilpotence", str(DATA / "d4.alg"))
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == 2
    assert payload["abelian"] is False
    assert len(payload["lower"]) == 3


def test_center_verb(capsys):
    code, out = run_cli(capsys, "center", str(DATA / "z4.alg"))
    assert code == 0
    assert json.loads(out)["center"] == [[0, 1, 2, 3]]


def test_torsor_verbs(capsys):
    code, out = run_cli(capsys, "torsor-check", str(DATA / "z4diff.tern"))
    assert code == 0
    assert json.loads(out) == {"associative": True, "commutative": True, "maltsev": True}
    code, out = run_cli(capsys, "torsor-group", str(DATA / "z4diff.tern"))
    assert code == 0
    group = json.loads(out)["group"]
    assert group["size"] == 4 and group["abelian"] is True


def test_affinity_verbs(capsys):
    code, out = run_cli(
        capsys,
        "affinity-compose",
        str(DATA / "forms.lf"),
        "--form", "F2",
        "--outer", "0,1,1",
        "--inner", "0,0",
        "--inner", "0,0",
        "--inner", "0,1",
    )
    assert code == 0
    assert json.loads(out)["result"] == {"m": 0, "r": [1]}

    code, out = run_cli(capsys, "roundtrip", str(DATA / "forms.lf"), "--form", "F4")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out = run_cli(capsys, "pseudoconstants", str(DATA / "forms.lf"), "--form", "F2")
    assert code == 0
    assert json.loads(out)["pseudoconstants"] == [1]


def test_derivations_verb(capsys):
    code, out = run_cli(
        capsys, "derivations", str(DATA / "forms.lf"), "--form", "F4", "--bim", "CZ4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["der"] == 1 and payload["h0_order"] == 4 and payload["h1_order"] == 1


def test_derivations_budget_error(capsys, monkeypatch):
    monkeypatch.setattr(extensions, "DERIVATION_BUDGET", 1)
    code, out = run_cli(
        capsys, "derivations", str(DATA / "forms.lf"), "--form", "F4", "--bim", "CZ4"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "DerBudgetExceeded"


def test_derivations_bimodule_over_another_form(capsys):
    code, out = run_cli(
        capsys, "derivations", str(DATA / "forms.lf"), "--form", "F2", "--bim", "CZ4"
    )
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "InvariantViolation", "message": "the bimodule is over another linear form"}


def test_derivations_bimodule_over_an_equal_form(capsys, tmp_path):
    """A form built separately from equal tables, on its own ring and
    module, is the bimodule's form: structures compare by their tables."""
    text = (DATA / "forms.lf").read_text()
    copy = "".join(line.replace("R4", "R4b").replace("M4", "M4b").replace("F4", "F4b") + "\n"
                   for line in text.splitlines() if line.startswith(("ring R4", "module M4",
                                                                      "form F4")))
    spec = tmp_path / "forms.lf"
    spec.write_text(text + copy)
    code, out = run_cli(capsys, "derivations", str(spec), "--form", "F4b", "--bim", "CZ4")
    assert code == 0
    assert json.loads(out)["der"] == 1


def test_bimodule_kmodule_over_an_equal_ring():
    """DBimodule takes K over a ring built separately from equal tables."""
    doc = parse_files([str(DATA / "forms.lf")])
    form, bim = doc.forms["F4"], doc.bimodules["CZ4"]
    kmodule = module_over_self(cyclic_ring(4))
    assert kmodule.ring is not form.ring and kmodule.ring == form.ring
    again = DBimodule(form, bim.bgroup, bim.bleft, bim.bright, kmodule, bim.delta, bim.dot)
    assert again.kmodule.ring == form.ring


@pytest.mark.parametrize("argv", [
    ["lift", "--image", "q"], ["lift", "--preimage", "1,x"], ["lift", "--image", ""],
    ["affinity-compose", "--form", "F4", "--outer", "x", "--inner", "0"],
    ["affinity-compose", "--form", "F4", "--outer", "0,1,2", "--inner", "0,"],
])
def test_bad_operation_literal_is_a_usage_error(capsys, argv):
    """An operation literal that is not integers, the empty one included, is
    refused by the argument parser: exit 64 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(DATA / "forms.lf"), *argv[1:]])
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


def test_crext_and_lift_verbs(capsys):
    code, out = run_cli(capsys, "crext", str(DATA / "forms.lf"), "--name", "X")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["bimodule"]["b_size"] == 2

    code, out = run_cli(capsys, "lift", str(DATA / "forms.lf"), "--name", "X",
                        "--preimage", "2,3,1")
    assert code == 0
    assert json.loads(out)["lifted"] == {"m": 0, "r": [3, 1]}


@pytest.mark.parametrize("preimage,law,witness", [
    ("0,9", "affinity-op-r", 9),  # once an IndexError traceback
    ("-1,0,0", "affinity-op-m", -1),  # once wrapped round to the last element
])
def test_lift_preimage_outside_the_total_form(capsys, preimage, law, witness):
    code, out = run_cli(capsys, "lift", str(DATA / "forms.lf"), f"--preimage={preimage}")
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "InvariantViolation", "message": f"invariant '{law}' violated (witness: {witness})"}


def test_monoid_verbs(capsys):
    code, out = run_cli(
        capsys, "trivial-ext", str(DATA / "monoid.ext"),
        "--monoid", "M2", "--system", "D",
    )
    assert code == 0
    assert json.loads(out)["extension"]["total"]["size"] == 5

    code, out = run_cli(capsys, "lin-ext-check", str(DATA / "monoid.ext"))
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out = run_cli(capsys, "untwisted-check", str(DATA / "monoid.ext"))
    assert code == 0
    assert json.loads(out)["found"] is False


def test_untwisted_family_golden(capsys):
    """M2 extended by Z2 in both fibres, with the total monoid MC: the
    family that `untwisted-check` finds, 32 entries on the mixed domain, as
    the search with the five laws written out printed it."""
    code, out = run_cli(capsys, "untwisted-check", str(DATA / "untwisted.ext"))
    assert code == 0
    assert out == (DATA / "untwisted_check.golden").read_text()
    assert json.loads(out)["found"] and len(json.loads(out)["family"]) == 32


def test_counterexample_matches_golden(capsys):
    code, out = run_cli(capsys, "counterexample", "--golden")
    assert code == 0
    golden = (DATA / "counterexample.golden").read_text()
    assert out == golden


@pytest.mark.parametrize("golden, argv", [
    ("roundtrip_f2.golden", ["roundtrip", "forms.lf", "--form", "F2"]),
    ("roundtrip_f4.golden", ["roundtrip", "forms.lf", "--form", "F4"]),
    ("roundtrip_id_z6.golden", ["roundtrip", "id_z6.lf"]),
    ("abelianize_z4.golden", ["abelianize", "z4.alg"]),
])
def test_clone_order_goldens(capsys, golden, argv):
    """The recovered ring and module number their elements in clone order,
    and so do ring_iso, module_iso and the printed form."""
    code, out = run_cli(capsys, argv[0], str(DATA / argv[1]), *argv[2:])
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_stalling_groupoid_golden(capsys):
    """The budget error of the stalling groupoid at budget 10,000, as the
    engine before packed rows and the code cache printed it."""
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "stalling.alg"), "--budget", "10000")
    assert code == 2
    assert out == (DATA / "maltsev_term_stalling.golden").read_text()


@pytest.mark.parametrize("golden, argv, exit_code", [
    ("maltsev_term_deep_budget.golden", ["deep_budget.alg", "--budget", "10000"], 2),
    ("maltsev_term_deep_witness.golden", ["deep_witness.alg"], 0),
])
def test_maltsev_term_goldens(capsys, golden, argv, exit_code):
    """Two random 3-element groupoids, as the engine with one argument
    prefix per run printed them: a budget error in round 4, which pins the
    argument tuples tried, and a Maltsev term of depth 4, found in round 4."""
    code, out = run_cli(capsys, "maltsev-term", str(DATA / argv[0]), *argv[1:])
    assert code == exit_code
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("spec, arity", [
    ("semilattice.alg", 63), ("semilattice.alg", 64), ("deep_witness.alg", 10**9)])
def test_clone_arity_past_int64_is_a_budget_error(capsys, spec, arity):
    """The 2**63 and more argument tuples of the semilattice, or 3**(10**9)
    of a groupoid, cannot be indexed in int64: a budget error that has
    tried nothing, raised before any array is allocated and without
    computing 3**(10**9)."""
    code, out = run_cli(capsys, "clone", str(DATA / spec), "--arity", str(arity))
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["code"], error["count"], error["round"], error["combos_tried"]) == (
        "CloneBudgetExceeded", 0, 0, 0)


def test_memory_error_is_exit_2(capsys, monkeypatch):
    """An allocation that fails is one JSON error line and exit code 2."""
    def exhausted(n, arity):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(algebra, "_projections", exhausted)
    code, out = run_cli(capsys, "clone", str(DATA / "semilattice.alg"), "--arity", "40")
    assert code == 2
    assert out == '{"error": {"code": "MemoryError", "message": "Unable to allocate 8.00 TiB"}}\n'


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A { size 2 op f/2 = [0 1 1] }")
    code, out = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "E_TABLE_LEN"


# Spec files that once ended in a traceback, ran for seconds, ran out of
# memory or left `parse` as a bare DomainError, with the code, line and
# column of their diagnostic.
# The CI workflow runs `mk parse` on the same texts.
HOSTILE = {
    "long-literal": ("monoid M { size " + "1" * 5000 + " unit 0 mul = [] }", "E_RANGE", 1, 17),
    "long-power": ("algebra A { size 2 op f/20000 = [] }", "E_TABLE_LEN", 1, 33),
    "long-ring-size": ("ring R { size " + "1" * 2200 + " add = [] mul = [] }", "E_RANGE", 1, 15),
    "slow-power": ("algebra A { size 3 op f/30000000 = [] }", "E_TABLE_LEN", 1, 36),
    "tern-outside": ("tern T { size 4 table: (3 8 1 -> 0) }", "E_RANGE", 1, 24),
    "tern-huge": ("tern T { size 3000 table: (0 0 0 -> 0) }", "E_INVARIANT", 1, 6),
    "cong-huge": ("algebra A { size 100000000000 }\ncong C on A { blocks: 0 }",
                  "E_INVARIANT", 2, 6),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_spec_gets_one_positioned_diagnostic(capsys, tmp_path, name):
    text, *where = HOSTILE[name]
    path = tmp_path / f"{name}.spec"
    path.write_text(text)
    code, out = run_cli(capsys, "parse", str(path))
    assert code == 1 and out.count("\n") == 1
    error = json.loads(out)["error"]
    assert [error["code"], error["line"], error["col"]] == where


def test_unknown_verb_exit_64():
    proc = subprocess.run(
        [sys.executable, "-m", "maltkit.cli", "definitely-not-a-verb"],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 64


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "maltkit.cli", "counterexample"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["candidates"] == 108


def child_peak_kb(*argv):
    """Exit code and peak RSS (ru_maxrss, kB) of `mk argv` in a child process."""
    measure = (
        "import resource, subprocess, sys\n"
        "cmd = [sys.executable, '-m', 'maltkit.cli', *sys.argv[1:]]\n"
        "code = subprocess.run(cmd, capture_output=True).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", measure, *map(str, argv)],
                          capture_output=True, text=True, env=CHILD_ENV, check=True)
    code, max_rss_kb = map(int, proc.stdout.split())
    return code, max_rss_kb


def write_d8(tmp_path):
    ops = " ".join(f"op {op.name}/{op.arity} = [{' '.join(map(str, op.table))}]"
                   for op in dihedral_group(8).ops)
    spec = tmp_path / "d8.alg"
    spec.write_text(f"algebra D8 {{ size 16 {ops} }}\n")
    return spec


def test_abelianize_d8_peak_memory(tmp_path):
    """`mk abelianize` on D8 checks centralize(total, total) over 4,096 mixed
    triples, 16.7 million pairs for the multiplication; the check runs in
    bounded chunks, so the child's peak RSS stays under 100 MB."""
    code, max_rss_kb = child_peak_kb("abelianize", write_d8(tmp_path))
    assert code == 1  # D8 is not abelian: a domain error
    assert max_rss_kb < 100 * 1024


def test_clone_enumeration_peak_memory(tmp_path):
    """`mk maltsev-term` on D8 (16 elements, 4,096-entry ternary rows) and
    `mk roundtrip` on id-Z6 (binary clone of a 36-element free affinity)
    evaluate at most laws.CHUNK = 2^18 entries at a time: 2 MB of indices
    and under 1 MB of values and comparisons.  Each child peaks about 6 MB
    above `mk parse` of D8; evaluating every last argument of a prefix at
    once adds about 3.5 MB on D8 and breaks the bound."""
    d8 = write_d8(tmp_path)
    ring = cyclic_ring(6)
    z6 = tmp_path / "z6.lf"
    z6.write_text(
        f"ring R {{ size 6 add = {ring.add.tolist()} mul = {ring.mul.tolist()} }}\n"
        f"module M over R {{ size 6 add = {ring.add.tolist()} act = {ring.mul.tolist()} }}\n"
        f"form F on M {{ d = {list(range(6))} }}\n".replace(",", ""))
    code, parse_kb = child_peak_kb("parse", d8)
    assert code == 0
    for argv in (["maltsev-term", d8], ["roundtrip", z6]):
        code, max_rss_kb = child_peak_kb(*argv)
        assert code == 0
        assert max_rss_kb - parse_kb < 7.5 * 1024, argv


@pytest.mark.parametrize("argv", [
    ["maltsev-term", "--budget", "0"], ["maltsev-term", "--budget", "-5"],
    ["abelianize", "--budget", "0"], ["roundtrip", "--budget", "-1"],
    ["clone", "--budget", "0"], ["clone", "--arity", "-1"], ["clone", "--budget", "x"],
    ["nilpotence", "--max", "-3"],
])
def test_bad_budget_and_arity_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(DATA / "z4.alg"), *argv[1:]])
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


def test_clone_arity_zero_is_legal(capsys):
    code, out = run_cli(capsys, "clone", str(DATA / "z4.alg"), "--arity", "0", "--budget", "1")
    assert code == 0
    assert json.loads(out)["clone"] == [{"arity": 0, "table": [0], "witness": "zero()"}]


def test_non_decimal_digit_is_a_syntax_error(capsys, tmp_path):
    """`3` and `³` are both digits to str.isdigit, but int() reads only the
    first: the superscript gets a diagnostic at its line and column."""
    text = (DATA / "z4.alg").read_text()
    line = next(i for i, row in enumerate(text.splitlines()) if "3" in row)
    col = text.splitlines()[line].index("3")
    bad = tmp_path / "z4.alg"
    bad.write_text(text.replace("3", "\u00b3", 1))
    code, out = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "E_SYNTAX", "line": line + 1, "col": col + 1,
        "message": f"E_SYNTAX at {line + 1}:{col + 1}: unexpected character '\u00b3'"}


@pytest.mark.parametrize("flags", [["--threads", "2"], ["--json"]])
def test_removed_flags_are_usage_errors(flags):
    with pytest.raises(SystemExit) as exc:
        main(["parse", str(DATA / "z4.alg"), *flags])
    assert exc.value.code == 64


def test_parse_sweep_of_bad_entries(capsys, tmp_path):
    """Every integer of the form and monoid corpus files set to -1 and to 99:
    `mk parse` answers each with one JSON document and exit code 0 or 1."""
    bad = []
    for name in ("forms.lf", "monoid.ext"):
        text = (DATA / name).read_text()
        for match in re.finditer(r"-?\d+", text):
            for value in ("-1", "99"):
                path = tmp_path / name
                path.write_text(text[: match.start()] + value + text[match.end():])
                try:
                    code = main(["parse", str(path)])
                    out = capsys.readouterr().out
                    json.loads(out)
                except Exception as exc:  # a crash is what the sweep looks for
                    code, out = repr(exc), ""
                if code not in (0, 1) or out.count("\n") != 1:
                    bad.append((name, match.start(), value, code))
    assert bad == []

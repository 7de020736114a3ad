import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maltkit
from maltkit.catalog import dihedral_group
from maltkit.cli import main

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
    assert payload["found"] and payload["complete"]
    assert "plus" in payload["term"]


def test_maltsev_term_semilattice_absent(capsys):
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "semilattice.alg"))
    assert code == 0
    assert json.loads(out) == {
        "complete": True,
        "found": True,
        "table": None,
        "term": None,
    } or json.loads(out) == {
        "complete": True,
        "found": False,
        "table": None,
        "term": None,
    }
    assert json.loads(out)["found"] is False


def test_maltsev_term_budget_exit_code(capsys):
    code, out = run_cli(capsys, "maltsev-term", str(DATA / "z4.alg"), "--budget", "2")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "CloneBudgetExceeded"


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


def test_crext_and_lift_verbs(capsys):
    code, out = run_cli(capsys, "crext", str(DATA / "forms.lf"), "--name", "X")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["bimodule"]["b_size"] == 2

    code, out = run_cli(capsys, "lift", str(DATA / "forms.lf"), "--name", "X",
                        "--preimage", "2,3,1")
    assert code == 0
    assert json.loads(out)["lifted"] == {"m": 0, "r": [3, 1]}


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


def test_counterexample_matches_golden(capsys):
    code, out = run_cli(capsys, "counterexample", "--golden")
    assert code == 0
    golden = (DATA / "counterexample.golden").read_text()
    assert out == golden


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A { size 2 op f/2 = [0 1 1] }")
    code, out = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "E_TABLE_LEN"


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


def test_abelianize_d8_peak_memory(tmp_path):
    """`mk abelianize` on D8 checks centralize(total, total) over 4,096 mixed
    triples, 16.7 million pairs for the multiplication; the check runs in
    bounded chunks, so the child's peak RSS stays under 100 MB."""
    ops = " ".join(f"op {op.name}/{op.arity} = [{' '.join(map(str, op.table))}]"
                   for op in dihedral_group(8).ops)
    spec = tmp_path / "d8.alg"
    spec.write_text(f"algebra D8 {{ size 16 {ops} }}\n")
    measure = (
        "import resource, subprocess, sys\n"
        "cmd = [sys.executable, '-m', 'maltkit.cli', 'abelianize', sys.argv[1]]\n"
        "code = subprocess.run(cmd, capture_output=True).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", measure, str(spec)],
                          capture_output=True, text=True, env=CHILD_ENV, check=True)
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 1  # D8 is not abelian: a domain error
    assert max_rss_kb < 100 * 1024


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

from pathlib import Path

import pytest

from maltkit.specfile import Diagnostic, parse, parse_files, serialize

DATA = Path(__file__).parent / "data"


def test_parse_minimal_algebra():
    doc = parse("algebra Z2 { size 2 op plus/2 = [0 1 1 0] }")
    assert list(doc.algebras) == ["Z2"]
    alg = doc.algebras["Z2"]
    assert alg.size == 2 and alg.op("plus").table.tolist() == [0, 1, 1, 0]


def test_table_length_diagnostic():
    with pytest.raises(Diagnostic) as exc:
        parse("algebra bad { size 2 op f/2 = [0 1 1] }")
    assert exc.value.code == "E_TABLE_LEN"
    assert exc.value.line == 1 and exc.value.col > 0


def test_invariant_diagnostic_names_law_and_witness():
    text = (
        "ring R { size 2 add = [0 1 1 0] mul = [0 0 0 1] }\n"
        "module X over R { size 2 add = [0 1 1 0] act = [0 0 1 1] }"
    )
    with pytest.raises(Diagnostic) as exc:
        parse(text)
    assert exc.value.code == "E_INVARIANT"
    assert "module-" in str(exc.value)
    assert "witness" in str(exc.value)


def test_dangling_reference():
    with pytest.raises(Diagnostic) as exc:
        parse("cong C on Missing { blocks: 0 }")
    assert exc.value.code == "E_DANGLING"


def test_duplicate_name():
    with pytest.raises(Diagnostic) as exc:
        parse("algebra A { size 1 }\nalgebra A { size 1 }")
    assert exc.value.code == "E_DUP_NAME"


def test_incompatible_partition_rejected():
    text = (
        "algebra Z4 { size 4 op plus/2 = [0 1 2 3 1 2 3 0 2 3 0 1 3 0 1 2] }\n"
        "cong C on Z4 { blocks: 0 1 | 2 3 }"
    )
    with pytest.raises(Diagnostic) as exc:
        parse(text)
    assert exc.value.code == "E_INVARIANT"


def test_syntax_diagnostics_have_positions():
    with pytest.raises(Diagnostic) as exc:
        parse("algebra A {\n  size ?\n}")
    assert exc.value.code == "E_SYNTAX"
    assert exc.value.line == 2


def test_parse_serialize_roundtrip_corpus():
    for path in sorted(DATA.glob("*")):
        if path.suffix == ".golden":
            continue
        text = path.read_text()
        doc = parse(text)
        text2 = serialize(doc)
        doc2 = parse(text2)
        assert serialize(doc2) == text2, path
        assert doc2.summary() == doc.summary()


def test_parse_files_merges():
    doc = parse_files([DATA / "z4.alg", DATA / "semilattice.alg"])
    assert set(doc.algebras) == {"Z4", "SL2"}
    assert set(doc.congruences) == {"Ctwo", "Call"}


def test_tern_file_roundtrip():
    doc = parse_files([DATA / "z4diff.tern"])
    tern = doc.terns["T4"]
    assert tern.size == 4 and tern.kind == "full"
    assert tern(1, 1, 2) == 2


def test_mixed_tern_parse():
    text = (
        "tern T { size 2 base [0 1] mixed table: "
        "(0 0 0 -> 0) (0 0 1 -> 1) (1 1 0 -> 0) (1 1 1 -> 1) }"
    )
    doc = parse(text)
    t = doc.terns["T"]
    assert t.kind == "mixed"
    assert t(0, 0, 1) == 1
    assert t.domain().tolist() == [[0, 0, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert t.table[tuple(t.domain().T)].tolist() == [0, 1, 0, 1]
    assert serialize(doc) == text + "\n"


def test_extension_file(tmp_path):
    doc = parse_files([DATA / "monoid.ext"])
    assert set(doc.extensions) == {"E"}
    ext = doc.extensions["E"]
    assert ext.total.size == 5 and ext.base.size == 2


def test_table_length_prints_unless_too_long():
    with pytest.raises(Diagnostic) as exc:
        parse("algebra A { size 2 op f/100 = [] }")
    assert str(exc.value).endswith(f"table has 0 entries, expected {2**100}")
    with pytest.raises(Diagnostic) as exc:
        parse("algebra A { size 3 op f/30000000 = [0] }")
    assert str(exc.value).endswith("table has 1 entries, expected 3**30000000")


@pytest.mark.parametrize("literal, ok", [
    ("9223372036854775807", True), ("-9223372036854775808", True),
    ("9223372036854775808", False), ("-9223372036854775809", False),
    ("000000000000000000000000000001", True), ("9" * 5000, False),
])
def test_integers_are_int64(literal, ok):
    """A literal outside int64 gets E_RANGE at its column, read alone or in a table."""
    for text in (f"monoid M {{ size {literal} unit 0 mul = [] }}",
                 f"algebra A {{ size 1 op f/1 = [{literal}] }}"):
        with pytest.raises(Diagnostic) as exc:
            parse(text)
        if ok:
            assert "64-bit" not in str(exc.value)
        else:
            assert exc.value.code == "E_RANGE" and "64-bit" in str(exc.value)
            assert exc.value.col == text.index(literal) + 1


def test_tern_entry_outside_fibered_domain():
    text = "tern T { size 2 base [0 1] fibered table: (0 0 0 -> 0) (0 1 0 -> 0) (1 1 1 -> 1) }"
    with pytest.raises(Diagnostic) as exc:
        parse(text)
    assert exc.value.code == "E_RANGE"
    assert exc.value.col == text.index("(0 1 0") + 1

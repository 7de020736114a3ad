"""Every layer the traced benchmark run wraps still exists in maltkit."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    # read and run the source, so that nothing is written next to it
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    assert spans["TARGETS"]
    for module, name in spans["TARGETS"]:
        target = importlib.import_module(f"maltkit.{module}")
        for attr in name.split("."):
            target = getattr(target, attr)
        assert callable(target), (module, name)

"""The outputs of a small fixed corpus of runs, bit for bit.

experiments/golden.py defines the corpus and wrote tests/golden_outputs.json
from it. A change that moves any metric of any run by one ulp, flips a
diverged flag or changes a bit of the kept series fails here; a change
meant to move the numbers regenerates the file with that script. The bits
hold for one numpy, OpenBLAS and OpenBLAS kernel: the record names the
kernel that OpenBLAS picked for its CPU at run time, and a failure message
names the recorded and the running one. A failure on another numpy, BLAS or
kernel than the recorded one is a finding about reproducibility, not a
reason to loosen the comparison.
"""

import importlib.util
import json
from pathlib import Path

from eqfcascade.metrics import metric_names

SCRIPT = Path(__file__).resolve().parents[1] / "experiments" / "golden.py"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_difference(want: dict, got: dict) -> str | None:
    """The first field, in record order, whose recomputed value is not the recorded one."""
    for key in ("series_sha256", "runs"):
        if want[key].keys() != got[key].keys():
            return f"{key}: recorded {sorted(want[key])}, recomputed {sorted(got[key])}"
    for key, digest in want["series_sha256"].items():
        if got["series_sha256"][key] != digest:
            return f"series {key}: sha256 recorded {digest}, recomputed {got['series_sha256'][key]}"
    names = metric_names()
    for key, (diverged, values) in want["runs"].items():
        got_diverged, got_values = got["runs"][key]
        if got_diverged != diverged:
            return f"{key} diverged: recorded {diverged}, recomputed {got_diverged}"
        for name, a, b in zip(names, values, got_values, strict=True):
            if a != b:
                return f"{key} {name}: recorded {a} ({float.fromhex(a)!r}), recomputed {b} ({float.fromhex(b)!r})"
    return None


def test_corpus_outputs_equal_the_golden_record():
    golden = _golden()
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.record()
    diff = first_difference(want, got)
    assert diff is None, (
        f"{diff}; recorded with numpy {want['numpy']} and BLAS {want['blas']!r}, recomputed with numpy {got['numpy']} and the running "
        f"BLAS {got['blas']!r}"
    )

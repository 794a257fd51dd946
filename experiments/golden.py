"""Golden outputs: a small fixed corpus of runs, recorded bit for bit.

    python experiments/golden.py   # rewrites tests/golden_outputs.json

The corpus, at seed 2026: 8 runs each of the acceptance variants (default,
biased input, 100 Hz with one correction sub-step, and the default rates
with one sub-step, which diverge), one run with its series kept, a 55-run
batch of 2 s runs (lane groups of 50 + 5) and an 8-run batch of 2 s runs
on 2 workers. The record holds each run's metric vector as float.hex and
its diverged flag, a sha256 of the kept series, and the numpy version and
the running BLAS, kernel included (blas()), that produced them.
tests/test_golden.py recomputes the corpus and compares it with the file
exactly; only this script rewrites the file.
"""

import ctypes
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
SEED, WORKERS = 2026, 2

VARIANTS = {  # name: (ScenarioConfig overrides, runs, workers)
    "default": ({}, 8, 1),
    "biased": ({"input_mode": "biased_passthrough"}, 8, 1),
    "fast_it1": ({"star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1}, 8, 1),
    "it1": ({"update_iterations": 1}, 8, 1),
    "wide_2s": ({"duration_s": 2.0}, 55, 1),
    "pooled_2s": ({"duration_s": 2.0}, 8, WORKERS),
}


def blas() -> str:
    """The BLAS that runs: the configuration string of numpy's bundled OpenBLAS, which names
    the kernel picked for this CPU at run time; the build's BLAS where that call is missing."""
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        get_config = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode()
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info['version']}"


def record() -> dict:
    """The corpus's outputs: {"numpy", "blas", "series_sha256": {key: hex digest},
    "runs": {"<variant>/<i>": [diverged, [float.hex of each metric]]}}."""
    from eqfcascade.config import ScenarioConfig
    from eqfcascade.harness import run_batch, run_single
    from eqfcascade.metrics import _metric_values

    base = ScenarioConfig(seed=SEED)
    runs = {}
    for name, (overrides, n_runs, workers) in VARIANTS.items():
        for m in run_batch(replace(base, **overrides), n_runs, workers=workers).runs:
            runs[f"{name}/{m.run_index}"] = [m.diverged, [float.hex(v) for v in _metric_values(m)]]
    single = run_single(base, 0, keep_series=True)
    runs["single/0"] = [single.diverged, [float.hex(v) for v in _metric_values(single)]]
    series = {"single/0": hashlib.sha256(np.ascontiguousarray(single.series, dtype="<f8").tobytes()).hexdigest()}
    return {"numpy": np.__version__, "blas": blas(), "series_sha256": series, "runs": runs}


def dumps(rec: dict) -> str:
    """JSON with one run a line, so that a regenerated file diffs run by run."""
    head = {key: rec[key] for key in ("numpy", "blas", "series_sha256")}
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
    runs = ",\n".join(f"    {json.dumps(key)}: {json.dumps(value)}" for key, value in rec["runs"].items())
    return "{\n" + ",\n".join(lines) + ',\n  "runs": {\n' + runs + "\n  }\n}\n"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    rec = record()
    GOLDEN.write_text(dumps(rec))
    n_div = sum(diverged for diverged, _ in rec["runs"].values())
    print(f"{len(rec['runs'])} runs ({n_div} diverged) and {len(rec['series_sha256'])} series -> {GOLDEN}")

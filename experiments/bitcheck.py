"""Bit-identity check of run outputs between two source trees.

    python experiments/bitcheck.py dump SRC OUT.npz   # SRC holds the eqfcascade package
    python experiments/bitcheck.py dump REV OUT.npz   # REV is a git revision, e.g. HEAD
    python experiments/bitcheck.py compare A.npz B.npz

A SRC that is not a directory names a git revision of this repository, whose
src/ is extracted with `git archive` into a temporary directory and dumped
from there, so that no second checkout is needed.

`dump` runs a fixed corpus at seed 2026 and saves each run's series, metric
vector and diverged flag: every run of each variant alone by run_single, under
<variant>/<i>/, then each variant as one run_batch, under batch/<variant>/<i>/,
again without its series (no Riccati stacks and no V columns, the path that
the Monte Carlo workloads time), under batch_noseries/<variant>/<i>/ with no
series, and the variants of POOLED on POOL_WORKERS worker processes, under
batch<POOL_WORKERS>/<variant>/<i>/. It also runs the CLI commands of CLI in-process into
OUT's sibling directory OUT_cli/ and saves each output file and the captured
stdout as bytes, under cli/<command>/. `compare` lists series whose length
changed with the shorter a bit-exact prefix, and exits 1 if any other array or
CLI output is not bit-equal.
"""

import contextlib
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

VARIANTS = {  # name: (ScenarioConfig overrides, runs)
    "default": ({}, 8),
    "fast": ({"star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1}, 8),
    "biased": ({"input_mode": "biased_passthrough"}, 8),
    "it1": ({"update_iterations": 1}, 25),
    "it2": ({"update_iterations": 2}, 25),
    "it1_biased": ({"update_iterations": 1, "input_mode": "biased_passthrough"}, 25),
    "it1_sigma100": ({"update_iterations": 1, "sigma0": 100.0}, 25),
    # the sensor streams' branches: a noiseless sensor draws nothing, and
    # uneven star/feature schedules interleave their draws
    "gyro_noise0": ({"gyro_noise_std": 0.0}, 6),
    "dir_noise0": ({"direction_noise_std": 0.0}, 6),
    "star20_feat25": ({"star_rate_hz": 20.0, "feature_rate_hz": 25.0}, 6),
    "star20_feat25_it1": ({"star_rate_hz": 20.0, "feature_rate_hz": 25.0, "update_iterations": 1}, 6),
    # a batch wider than harness.LANES runs as lane groups of 50 + 5
    "wide_2s": ({"duration_s": 2.0}, 55),
    # many failures inside one wide group: 48 of the 50-lane group's runs
    # fail, at 6 distinct ticks, in both stages' updates
    "it1_wide_6s": ({"update_iterations": 1, "duration_s": 6.0}, 55),
    # one lane group of exactly geom._SHORT_STACK lanes, whose kernel calls
    # exp_so3 takes as floats, and one of a lane more, which it takes wide
    "lanes16_2s": ({"duration_s": 2.0}, 16),
    "lanes17_2s": ({"duration_s": 2.0}, 17),
    # shorter than one star period: the star stream is empty
    "short_0p5s": ({"duration_s": 0.5}, 4),
    # reference directions that are not basis rows, so that a feature
    # direction is a sum of products and its rounding depends on their order
    "refdirs_fast": (
        {"ref_dir_1": (2.0, 0.3, -0.5), "ref_dir_2": (0.4, 1.5, 0.7),
         "star_rate_hz": 100.0, "feature_rate_hz": 100.0, "update_iterations": 1},
        8,
    ),
    # bounded initial attitudes: the target's is drawn as a product
    "init30": ({"attitude_init_max_deg": 30.0}, 8),
    # 1 Hz features: runs 44 and 78 fail in their stage-2 update alone, at
    # ticks 1200 and 1100, one in the 50-lane group and one in the 30-lane rest
    "feat1hz": ({"feature_rate_hz": 1.0}, 80),
    # one star fix in 15 s: stage 1 predicts for 1000 ticks before it, the
    # longest stretch of rotation products with no update to re-project them
    "star0p1hz": ({"star_rate_hz": 0.1}, 8),
    # n = 155 ends between measurements: stage 1 predicts alone over ticks
    # 101-155 after its last star fix, stage 2 over ticks 151-155
    "tail_1p55s": ({"duration_s": 1.55}, 8),
}

POOLED, POOL_WORKERS = ("default", "it1"), 2

CLI = {  # name: arguments, each run with --seed 2026 into OUT_cli/<name>
    "run": ["run", "--emit-series"],
    "batch": ["batch", "--runs", "3", "--emit-series"],
    "compare": ["compare", "--runs", "2"],
}


def _cli_outputs(out_dir: Path) -> dict:
    """Each CLI command's exit status and stdout, and its output files, as bytes."""
    from eqfcascade.cli import main

    shutil.rmtree(out_dir, ignore_errors=True)  # files of an earlier dump are not this tree's
    arrays = {}
    for name, argv in CLI.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main([*argv, "--seed", "2026", "--out-dir", str(out_dir / name)])
        arrays[f"cli/{name}/stdout"] = f"exit {status}\n{stdout.getvalue()}".encode()
        for path in sorted((out_dir / name).iterdir()):
            arrays[f"cli/{name}/{path.name}"] = path.read_bytes()
    return {key: np.frombuffer(data, dtype=np.uint8) for key, data in arrays.items()}


def _runs(prefix: str, runs) -> dict:
    """Each run's series, if kept, metric vector and diverged flag under prefix/<i>/."""
    from eqfcascade.metrics import _metric_values

    arrays = {}
    for i, m in enumerate(runs):
        key = f"{prefix}/{i}"
        if m.series is not None:
            arrays[f"{key}/series"] = m.series
        arrays[f"{key}/metrics"] = np.array(_metric_values(m))
        arrays[f"{key}/diverged"] = np.array(m.diverged)
    return arrays


def _revision_src(revision: str, into: str) -> str:
    """The src/ directory of the git revision, extracted under into."""
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", revision, "src"], cwd=repo, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return str(Path(into) / "src")


def dump(src: str, out: str) -> None:
    if not Path(src).is_dir():
        with tempfile.TemporaryDirectory() as tmp:
            return dump(_revision_src(src, tmp), out)
    sys.path.insert(0, src)
    from eqfcascade.config import ScenarioConfig
    from eqfcascade.harness import run_batch, run_single

    arrays = {}
    for name, (overrides, n_runs) in VARIANTS.items():
        cfg = ScenarioConfig(seed=2026, **overrides)
        arrays.update(_runs(name, (run_single(cfg, i, keep_series=True) for i in range(n_runs))))
        arrays.update(_runs(f"batch/{name}", run_batch(cfg, n_runs, keep_series=True).runs))
        arrays.update(_runs(f"batch_noseries/{name}", run_batch(cfg, n_runs).runs))
        if name in POOLED:
            pooled = run_batch(cfg, n_runs, keep_series=True, workers=POOL_WORKERS)
            arrays.update(_runs(f"batch{POOL_WORKERS}/{name}", pooled.runs))
    n_runs, n_run_arrays = sum(key.endswith("/diverged") for key in arrays), len(arrays)
    arrays.update(_cli_outputs(Path(out).with_name(Path(out).stem + "_cli")))
    np.savez(out, **arrays)
    print(f"{n_runs} runs and {len(arrays) - n_run_arrays} CLI outputs from {sys.modules['eqfcascade'].__file__} -> {out}")


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    bad = sorted(set(a.files) ^ set(b.files))
    print("".join(f"{key}: in one file only\n" for key in bad), end="")
    equal = prefix = cli = 0
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        if x.shape == y.shape and x.tobytes() == y.tobytes():
            if key.startswith("cli/"):
                cli += 1
            else:
                equal += 1
        elif key.endswith("/series") and x[: len(y)].tobytes() == y[: len(x)].tobytes():
            prefix += 1
            print(f"{key}: {len(x)} -> {len(y)} rows, shorter is a bit-exact prefix")
        else:
            bad.append(key)
            print(f"{key}: DIFFERS")
    n_div = sum(bool(a[k]) for k in a.files if k.endswith("/diverged"))
    print(
        f"{equal} arrays bit-equal, {cli} CLI outputs byte-equal, {prefix} series length changes, "
        f"{len(bad)} differ; {n_div} runs diverged in A"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    cmd, *paths = sys.argv[1:]
    sys.exit(dump(*paths) if cmd == "dump" else compare(*paths))

"""The calls that the benchmark in perfbench/ makes into the program.

perfbench/run.py builds each workload's gains and sensors at set-up, runs
operations through perfbench/workloads.py, redoes mc_lowrate's first
operation on 2 workers, and counts a trace's runs by its
`harness.run_single` spans (perfbench/tracing.py). A program change that
breaks one of these calls makes the benchmark exit non-zero; this test
catches it first. A benchmark change that alters these calls updates this
test with them.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
MASTER_SEED = 7


def _load(name: str):
    # registered before exec: the module's dataclasses look it up by name
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


def _check(wl, cfg, out, out_dir):
    if wl.via_cli:
        return workloads.check_cli_run(cfg, out, out_dir)
    return workloads.check_batch(wl, cfg, out)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_checks_and_traces(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = wl.scenario(MASTER_SEED, 0)
    cfg.stage1_gains(), cfg.stage2_gains(), cfg.sensors()
    if not wl.via_cli:
        # the mc_* operations at the warm-up's length; the CLI run is 15 s
        cfg = replace(cfg, duration_s=workloads.WARMUP_DURATION_S)
    out = workloads.run_op(wl, cfg, tmp_path / "op")
    assert _check(wl, cfg, out, tmp_path / "op").failed == 0
    if wl.repro_workers:
        pooled = workloads.run_op(wl, cfg, tmp_path / "pooled", workers=wl.repro_workers)
        assert workloads.mismatched_runs(out, pooled) == 0
    with tracing.Tracer(tmp_path / "trace") as tracer:
        traced = workloads.run_op(wl, cfg, tmp_path / "traced")
    assert _check(wl, cfg, traced, tmp_path / "traced").failed == 0
    spans_path, counts_path = tracer.write()
    assert tracing.summarize_trace(spans_path, counts_path).runs == wl.runs_per_op

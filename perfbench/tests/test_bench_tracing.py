"""The tracer: wrappers come off cleanly, self time excludes children, and
the per-run counts of one 15 s run are exact."""

from __future__ import annotations

import csv
import inspect
from dataclasses import replace

import pytest

import layers
import tracing
from eqfcascade import config, harness

LOW_RATE = config.ScenarioConfig(seed=2026)
FAST_RATE = replace(LOW_RATE, star_rate_hz=100.0, feature_rate_hz=100.0, update_iterations=1)


def _function_attrs():
    """Every function-valued attribute of the package's modules."""
    import importlib

    snapshot = {}
    for name in ("", *(f".{m}" for m in tracing.LAYER_MODULES)):
        module = importlib.import_module(tracing.PACKAGE + name)
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                snapshot[(module.__name__, attr)] = obj
    return snapshot


def test_install_patches_importers_and_restore_puts_originals_back(tmp_path):
    from eqfcascade import filter_base, stage1, stage2

    before = _function_attrs()
    tracer = tracing.Tracer(tmp_path)
    with tracer:
        assert filter_base.riccati_correct is not before[("eqfcascade.filter_base", "riccati_correct")]
        # the same wrapper is seen through every module that imported the name
        assert stage1.riccati_correct is filter_base.riccati_correct
        assert stage2.riccati_correct is filter_base.riccati_correct
        assert harness.propagate_truth.__wrapped__ is before[("eqfcascade.models", "propagate_truth")]
    after = _function_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # a second install reuses the same wrappers and names
    names = list(tracer.names)
    with tracer:
        assert stage1.riccati_correct is not before[("eqfcascade.filter_base", "riccati_correct")]
    assert tracer.names == names
    assert all(_function_attrs()[k] is before[k] for k in before)


def test_restore_runs_even_when_the_traced_code_raises(tmp_path):
    before = _function_attrs()
    with pytest.raises(RuntimeError), tracing.Tracer(tmp_path):
        raise RuntimeError("boom")
    after = _function_attrs()
    assert all(after[k] is before[k] for k in before)


def _write_trace(tmp_path, spans, counts=()):
    spans_path, counts_path = tmp_path / "spans.csv", tmp_path / "counts.csv"
    with open(spans_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "name", "start_ns", "end_ns", "parent", "run"))
        w.writerows(spans)
    with open(counts_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("name", "calls"))
        w.writerows(counts)
    return spans_path, counts_path


def test_self_time_is_span_minus_children(tmp_path):
    spans = [
        (1, "harness.run_single", 0, 1000, -1, 1),
        (2, "cascade.step", 100, 400, 1, 1),
        (3, "stage1.update", 150, 250, 2, 1),
        (4, "cascade.step", 500, 700, 1, 1),
    ]
    s = tracing.summarize_trace(*_write_trace(tmp_path, spans, [("geom.exp_so3", 42)]))
    assert s.layers["harness.run_single"].self_ns == 1000 - 300 - 200
    assert s.layers["cascade.step"].calls == 2
    assert s.layers["cascade.step"].total_ns == 300 + 200
    assert s.layers["cascade.step"].self_ns == (300 - 100) + 200
    assert s.layers["stage1.update"].self_ns == 100
    assert s.layers["geom.exp_so3"].calls == 42
    assert s.runs == 1


@pytest.mark.parametrize(
    "cfg, substeps, exp_calls",
    [(LOW_RATE, 3300, 9645), (FAST_RATE, 3000, 16500)],
    ids=["mc_lowrate", "mc_fastrate"],
)
def test_exact_counts_for_one_15s_run(tmp_path, cfg, substeps, exp_calls):
    tracer = tracing.Tracer(tmp_path)
    with tracer:
        harness.run_batch(cfg, 1)
    s = tracing.summarize_trace(*tracer.write())
    values = {k: v["value"] for k, v in layers.per_layer_metrics(s, 0.0, [], 0.0).items()}
    assert s.runs == 1
    assert values["cascade.step.calls"] == 1500
    assert values["models.propagate_truth.calls"] == 1500
    assert values["filter_base.riccati_correct.calls"] == substeps
    assert values["geom.exp_so3.calls"] == exp_calls
    updates = values["stage1.update.calls"] + values["stage2.update.calls"]
    assert values["filter_base.substeps_per_update"] == substeps / updates
    # every span inside the run carries the run's id; batch-level spans carry -1
    with open(tmp_path / "spans.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    (run_id,) = {r["id"] for r in rows if r["name"] == "harness.run_single"}
    inside = [r for r in rows if r["name"].split(".")[0] in ("cascade", "stage1", "stage2", "filter_base", "models")]
    assert len(inside) > 1500
    assert all(r["run"] == run_id for r in inside)

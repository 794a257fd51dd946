"""Per-layer metrics and the per-layer table, computed from a trace summary.

`.calls` metrics are calls per simulated run, `.us` metrics mean self time
per call in microseconds. A layer that a workload never calls reports 0.
"""

from __future__ import annotations

import statistics

from tracing import TraceSummary

TIMED = (
    "stage2.update",
    "stage1.update",
    "filter_base.riccati_correct",
    "filter_base.apply_correction",
    "filter_base.require_spd",
    "stage1.predict",
    "stage2.predict",
    "filter_base.riccati_predict",
    "models.propagate_truth",
    "models.measure_star_tracker",
    "models.measure_features",
    "cascade.step",
    "cascade.group_error",
    "cascade.lyapunov_value",
    "metrics.euler_errors",
    "metrics.write_series_csv",
    "metrics.write_batch_csv",
    "config.write_config",
    "cli.main",
)
COUNTED = (
    "stage2.update",
    "stage1.update",
    "filter_base.riccati_correct",
    "models.propagate_truth",
    "models.measure_star_tracker",
    "models.measure_features",
    "cascade.step",
    "geom.exp_so3",
    "geom.renormalize_rotation",
    "geom.project_so3",
)


def _units() -> dict[str, str]:
    units = {f"{n}.calls": "1/run" for n in COUNTED}
    units.update({f"{n}.us": "us" for n in TIMED})
    units.update(
        {
            "cascade.step.p50_us": "us",
            "cascade.step.p99_us": "us",
            "filter_base.substeps_per_update": "1/update",
            "geom.reproject_ratio": "1/check",
            "harness.run_single.self_us": "us",
            "metrics.write_series_csv.bytes": "B",
            "harness.run_batch.pool_overhead_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


UNITS = _units()


def per_layer_metrics(s: TraceSummary, overhead_pct: float, series_bytes: list[int], pool_overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: {value, unit}}.

    The pool overhead is measured outside the trace (untraced operation 0
    in-process and on the pool) and passed in."""

    def calls(name: str) -> int:
        st = s.layers.get(name)
        return st.calls if st else 0

    def self_us(name: str) -> float:
        st = s.layers.get(name)
        return st.self_ns / st.calls / 1e3 if st and st.calls else 0.0

    values = {f"{n}.calls": calls(n) / s.runs for n in COUNTED}
    values.update({f"{n}.us": self_us(n) for n in TIMED})
    steps = s.layers["cascade.step"].durations_ns if "cascade.step" in s.layers else None
    q = statistics.quantiles(steps, n=100, method="inclusive") if steps else [0.0] * 99
    updates = calls("stage1.update") + calls("stage2.update")
    checks = calls("geom.renormalize_rotation")
    values.update(
        {
            "cascade.step.p50_us": q[49] / 1e3,
            "cascade.step.p99_us": q[98] / 1e3,
            "filter_base.substeps_per_update": calls("filter_base.riccati_correct") / updates if updates else 0.0,
            "geom.reproject_ratio": calls("geom.project_so3") / checks if checks else 0.0,
            "harness.run_single.self_us": self_us("harness.run_single"),
            "metrics.write_series_csv.bytes": statistics.fmean(series_bytes) if series_bytes else 0.0,
            "harness.run_batch.pool_overhead_s": pool_overhead_s,
            "trace.overhead_pct": overhead_pct,
        }
    )
    return {name: {"value": float(values[name]), "unit": UNITS[name]} for name in UNITS}


def table(s: TraceSummary) -> str:
    """Every traced name: calls per run, inclusive and self time per call,
    and its share of all self time; count-only names show calls alone."""
    total_self = sum(st.self_ns for st in s.layers.values()) or 1
    rows = sorted(s.layers.items(), key=lambda kv: (-kv[1].self_ns, -kv[1].calls, kv[0]))
    width = max(len(n) for n in s.layers)
    lines = [
        f"per-layer table over {s.runs} runs",
        f"{'layer':<{width}}  {'calls/run':>10}  {'incl us':>10}  {'self us':>10}  {'self %':>6}",
    ]
    for name, st in rows:
        if st.calls == 0:
            continue
        per_run = st.calls / s.runs if s.runs else float("nan")
        if st.total_ns:
            lines.append(
                f"{name:<{width}}  {per_run:>10.2f}  {st.total_ns / st.calls / 1e3:>10.2f}  "
                f"{st.self_ns / st.calls / 1e3:>10.2f}  {100.0 * st.self_ns / total_self:>6.2f}"
            )
        else:
            lines.append(f"{name:<{width}}  {per_run:>10.2f}  {'-':>10}  {'-':>10}  {'-':>6}")
    return "\n".join(lines)

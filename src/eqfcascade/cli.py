"""Command-line front end.

Subcommands:
    run      one simulation as a batch of one, printing its metrics
    batch    Monte Carlo batch with a per-run + aggregate summary CSV
    compare  low-rate unbiased vs biased input vs 100 Hz variants on the
             same seeds, emitting a combined comparison table

Flags override values loaded from --config. An invalid scenario or an
unreadable --config file is a usage error: one line on stderr naming the
field or the file, exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import INPUT_MODES, ConfigError, ScenarioConfig, apply_overrides, read_config, write_config
from .harness import run_batch
from .metrics import BatchSummary, RunMetrics, metric_names, write_batch_csv, write_series_csv


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{raw}'") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="scenario configuration file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--duration", type=float, dest="duration_s", help="run length, s")
    p.add_argument("--gyro-rate", type=float, dest="gyro_rate_hz", help="Hz")
    p.add_argument("--star-rate", type=float, dest="star_rate_hz", help="Hz")
    p.add_argument("--feature-rate", type=float, dest="feature_rate_hz", help="Hz")
    p.add_argument("--iterations", type=int, dest="update_iterations", help="correction sub-steps per measurement")
    p.add_argument("--mode", dest="input_mode", choices=INPUT_MODES, help="stage-2 input wiring")
    p.add_argument("--gyro-noise", type=float, dest="gyro_noise_std", help="rad/s")
    p.add_argument("--direction-noise", type=float, dest="direction_noise_std", help="rad")
    p.add_argument("--attitude-init-max", type=float, dest="attitude_init_max_deg", help="bound initial attitudes, deg (default: uniform)")
    p.add_argument("--out-dir", type=Path, default=Path("results"), help="output directory")


def _load_config(args) -> ScenarioConfig:
    try:
        cfg = read_config(args.config) if args.config else ScenarioConfig()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"cannot read config file {args.config}: {reason}") from exc
    names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in names}
    return apply_overrides(cfg, **overrides)


def _rpy(values, spec: str) -> str:
    """Per-axis values as roll/pitch/yaw, each formatted with spec."""
    return "/".join(format(v, spec) for v in values)


def _print_metrics(m: RunMetrics) -> None:
    if m.diverged:
        print(f"run {m.run_index}: DIVERGED (filter numerical failure)")
        return
    print(f"run {m.run_index}:")
    print(f"  chaser attitude mean err [10,15]s (deg, r/p/y): {_rpy(m.mean_chaser_deg, '.4f')}")
    print(f"  chaser attitude time-to-1deg (s, r/p/y):        {_rpy(m.t1deg_chaser, '.4f')}")
    print(f"  gyro bias mean err: {m.bias_mean_dps:.4f} deg/s ({m.bias_mean_rel_pct:.2f} %)")
    print(f"  relative attitude mean err (deg, r/p/y):        {_rpy(m.mean_rel_deg, '.4f')}")
    print(f"  relative attitude time-to-1deg (s, r/p/y):      {_rpy(m.t1deg_rel, '.4f')}")
    print(f"  target angular velocity mean err: {m.omega_mean_dps:.4f} deg/s ({m.omega_mean_rel_pct:.2f} %)")


def _print_aggregate(tag: str, s: BatchSummary) -> None:
    a = s.aggregate
    print(f"[{tag}] {len(s.runs)} runs, {s.n_failed} diverged")
    if s.n_failed == len(s.runs):
        return

    def rpy(name: str, spec: str) -> str:
        return _rpy((a[f"{name}_{axis}"] for axis in ("roll", "pitch", "yaw")), spec)

    print(f"  chaser att mean (deg r/p/y): {rpy('mean_chaser_deg', '.4f')}   time-to-1deg: {rpy('t1deg_chaser', '.3f')} s")
    print(
        f"  gyro bias mean: {a['bias_mean_dps']:.4f} deg/s ({a['bias_mean_rel_pct']:.2f} %)"
        f"   min: {a['bias_min_dps']:.4f} deg/s"
    )
    print(f"  rel att mean (deg r/p/y):    {rpy('mean_rel_deg', '.4f')}   time-to-1deg: {rpy('t1deg_rel', '.3f')} s")
    print(
        f"  target ang vel mean: {a['omega_mean_dps']:.4f} deg/s ({a['omega_mean_rel_pct']:.2f} %)"
        f"   min: {a['omega_min_dps']:.4f} deg/s"
    )


def _write_outputs(out_dir: Path, csv_name: str, cfg: ScenarioConfig, summary: BatchSummary) -> None:
    """The summary CSV, each kept series and the scenario that was run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_batch_csv(out_dir / csv_name, summary)
    for m in summary.runs:
        if m.series is not None:
            write_series_csv(out_dir / f"run_{m.run_index:04d}_series.csv", m.series)
    write_config(cfg, out_dir / "scenario_used.cfg")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = run_batch(cfg, 1, keep_series=args.emit_series)
    _print_metrics(summary.runs[0])
    _write_outputs(args.out_dir, "run_metrics.csv", cfg, summary)
    return 0


def cmd_batch(args) -> int:
    cfg = _load_config(args)
    summary = run_batch(cfg, args.runs, keep_series=args.emit_series, workers=args.workers)
    _print_aggregate("batch", summary)
    _write_outputs(args.out_dir, "batch_summary.csv", cfg, summary)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    variants = {
        "unbiased": dataclasses.replace(cfg, input_mode="unbiased_cascade"),
        "biased": dataclasses.replace(cfg, input_mode="biased_passthrough"),
        "fast_rate": dataclasses.replace(
            cfg,
            input_mode="unbiased_cascade",
            star_rate_hz=cfg.gyro_rate_hz,
            feature_rate_hz=cfg.gyro_rate_hz,
            update_iterations=1,
        ),
    }
    summaries = {}
    for tag, vcfg in variants.items():
        summary = run_batch(vcfg, args.runs, workers=args.workers)
        summaries[tag] = summary
        _print_aggregate(tag, summary)
        write_batch_csv(out_dir / f"batch_{tag}.csv", summary)
    _write_compare_csv(out_dir / "compare_table.csv", summaries)
    omega_unbiased = summaries["unbiased"].aggregate["omega_mean_dps"]
    omega_biased = summaries["biased"].aggregate["omega_mean_dps"]
    if math.isfinite(omega_unbiased) and omega_unbiased > 0:
        print(f"bias feedthrough effect: omega err biased/unbiased = {omega_biased / omega_unbiased:.2f}x")
    return 0


def _write_compare_csv(path: Path, summaries: dict[str, BatchSummary]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "runs", "diverged", *metric_names()])
        for tag, s in summaries.items():
            writer.writerow(
                [tag, len(s.runs), s.n_failed, *[f"{s.aggregate[n]:.9g}" for n in metric_names()]]
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eqfcascade",
        description="Two-stage equivariant filter cascade simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_scenario_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="Monte Carlo batch")
    _add_scenario_flags(p_batch)
    p_batch.add_argument("--runs", type=_positive_int, default=100, help="number of runs")
    p_batch.set_defaults(func=cmd_batch)

    p_cmp = sub.add_parser("compare", help="unbiased vs biased vs 100 Hz variants")
    _add_scenario_flags(p_cmp)
    p_cmp.add_argument("--runs", type=_positive_int, default=100, help="runs per variant")
    p_cmp.set_defaults(func=cmd_compare)

    for p in (p_batch, p_cmp):
        p.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")
    for p in (p_run, p_batch):
        p.add_argument("--emit-series", action="store_true", help="write per-tick time-series CSVs")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

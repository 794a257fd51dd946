"""Span tracer that instruments eqfcascade from outside the program.

`Tracer.install()` wraps every public function of the layer modules. Each
wrapper replaces the name in the defining module and in every other module
of the package that imported it (for example both `filter_base.riccati_correct`
and `stage1.riccati_correct`), so calls through either name are seen.
`Tracer.restore()` puts the original functions back.

Functions of the count-only modules (`geom`) get a wrapper that only counts
calls: a timed wrapper would cost more than these primitives themselves.
Every other wrapper records one span per call, kept in memory as
(id, name, start_ns, end_ns, parent, run) until `write()` saves them to
`spans.csv`, with the call counts in `counts.csv`. A span's run is the id
of the enclosing `harness.run_single` span, or -1. Only calls made in this
process are seen: trace no process-pool batches.
"""

from __future__ import annotations

import array
import csv
import importlib
import inspect
import time
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "eqfcascade"
LAYER_MODULES = (
    "models",
    "stage1",
    "stage2",
    "filter_base",
    "geom",
    "cascade",
    "metrics",
    "harness",
    "config",
    "cli",
)
COUNT_ONLY_MODULES = frozenset({"geom"})
RUN_ROOT = "harness.run_single"
KEEP_DURATIONS = frozenset({"cascade.step"})  # names whose span durations are kept for percentiles
SPAN_FIELDS = 6  # id, name index, start_ns, end_ns, parent id, run id


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` whose names do not start with `_`."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self.counts: list[int] = []
        self.spans = array.array("q")
        self.current = -1
        self.run = -1
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []  # (module, name, original, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call and
        reused, so spans of several installs share one set of names."""
        if not self._patches:
            self._patches = self._build_patches()
        for target, fn_name, _fn, wrapper in self._patches:
            setattr(target, fn_name, wrapper)

    def restore(self) -> None:
        for target, fn_name, fn, _wrapper in reversed(self._patches):
            setattr(target, fn_name, fn)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES]
        package_modules = [importlib.import_module(PACKAGE), *modules]
        patches = []
        for mod_name, module in zip(LAYER_MODULES, modules):
            for fn_name, fn in public_functions(module).items():
                qual = f"{mod_name}.{fn_name}"
                if mod_name in COUNT_ONLY_MODULES:
                    wrapper = self._counting_wrapper(fn, self._name_index(qual))
                else:
                    wrapper = self._span_wrapper(fn, self._name_index(qual), qual == RUN_ROOT)
                patches.extend((target, fn_name, fn, wrapper) for target in package_modules if vars(target).get(fn_name) is fn)
        return patches

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _name_index(self, qual: str) -> int:
        self.names.append(qual)
        self.counts.append(0)
        return len(self.names) - 1

    def _counting_wrapper(self, fn, idx: int):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, fn, idx: int, is_run_root: bool):
        tracer = self
        clock = time.perf_counter_ns
        counts = self.counts

        def spanned(*args, **kwargs):
            parent = tracer.current
            sid = tracer._next_id
            tracer._next_id += 1
            tracer.current = sid
            outer_run = tracer.run
            if is_run_root:
                tracer.run = sid
            run = tracer.run
            counts[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                tracer.run = outer_run
                tracer.spans.extend((sid, idx, start, end, parent, run))

        spanned.__wrapped__ = fn
        return spanned

    # -- output -------------------------------------------------------------

    def write(self) -> tuple[Path, Path]:
        """Write the spans and the call counts to out_dir; return both paths."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = self.out_dir / "spans.csv"
        counts_path = self.out_dir / "counts.csv"
        _write_spans(spans_path, self.names, self.spans)
        with open(counts_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "calls"))
            writer.writerows(zip(self.names, self.counts))
        return spans_path, counts_path


def _write_spans(path: Path, names: list[str], spans: array.array) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "run"))
        for i in range(0, len(spans), SPAN_FIELDS):
            sid, idx, start, end, parent, run = spans[i : i + SPAN_FIELDS]
            writer.writerow((sid, names[idx], start, end, parent, run))


# -- analysis -----------------------------------------------------------------


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    durations_ns: list[int] | None = None


@dataclass
class TraceSummary:
    layers: dict[str, LayerStats]
    runs: int  # harness.run_single spans


def _span_rows(spans_path: Path):
    with open(spans_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for sid, name, start, end, parent, _run in reader:
            yield int(sid), name, int(end) - int(start), int(parent)


def summarize_trace(spans_path: Path, counts_path: Path) -> TraceSummary:
    """Per-name calls, inclusive time and self time from the span files.

    Self time is a span's duration minus the durations of its child spans,
    which run one after another inside it. Calls of count-only functions
    come from the counts file. The span file is read twice so that it never
    has to fit in memory.
    """
    child_ns: dict[int, int] = {}
    for _sid, _name, dur, parent in _span_rows(spans_path):
        if parent != -1:
            child_ns[parent] = child_ns.get(parent, 0) + dur
    layers: dict[str, LayerStats] = {}
    for sid, name, dur, _parent in _span_rows(spans_path):
        st = layers.get(name)
        if st is None:
            st = layers[name] = LayerStats(durations_ns=[] if name in KEEP_DURATIONS else None)
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child_ns.get(sid, 0)
        if st.durations_ns is not None:
            st.durations_ns.append(dur)
    with open(counts_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for name, calls in reader:
            # span-recorded names already hold their calls; count-only names do not
            layers.setdefault(name, LayerStats(calls=int(calls)))
    runs = layers[RUN_ROOT].calls if RUN_ROOT in layers else 0
    return TraceSummary(layers, runs)

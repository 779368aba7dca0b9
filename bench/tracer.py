"""Span tracer for the benchmark's traced run.

The tracer replaces each layer's public functions at every module binding that
callers resolve (for example `rate_from_heq` as bound in `harness` and in
`pga`), so the spans come from the benchmark's own files and nothing under
`src/` changes. Spans (name, start, end, parent, trial-cell id) stay in memory
until the run ends. A target that no longer exists after a refactor is listed
as missing, and the metrics that need it are reported as unmeasured.
"""

import importlib
import inspect
import json
import sys
import time

import numpy as np

# Functions traced, as (layer module, function). The module name is the layer
# and the prefix of the span name and of its metrics.
TARGETS = (
    ("harness", "run_scenario"),
    ("harness", "run_trial"),
    ("harness", "draw_trial"),
    ("channel", "synthesize_link"),
    ("channel", "taps_to_subcarriers"),
    ("rng", "substream"),
    ("propagation", "p_los"),
    ("propagation", "direct_gain"),
    ("propagation", "indirect_gain"),
    ("propagation", "sample_blockage"),
    ("pga", "pga_optimize"),
    ("pga", "gradient_phi"),
    ("power", "waterfill_covariances"),
    ("power", "channel_eigvals"),
    ("power", "waterfill"),
    ("rate", "rate_from_heq"),
    ("rate", "equivalent_channel"),
    ("rate", "combine_links"),
)
ROOT = "harness.run_scenario"
CELL = "harness.run_trial"  # one call computes one (trial, sweep point, arm) cell
PGA = "pga.pga_optimize"
# Counters taken from each PgaResult and from the FlopMeter passed to the run.
PGA_METRICS = ("pga.iterations", "pga.iters_per_run", "pga.accept_ratio",
               "pga.first_step_stop_frac", "pga.max_iter_frac",
               "flops.analytic_gflop", "pga.analytic_gflop_per_s")


class Tracer:
    """Wraps the traced functions of one imported package and records spans."""

    def __init__(self, package: str = "rislink"):
        self.package = package
        self.spans: list = []  # (name, start, end, parent index, cell id)
        self.pga_runs: list = []  # (iterations, accepted steps, hit the cap, analytic flops)
        self.missing: set = set()
        self.sites: list = []
        self._stack: list = []
        self._cell = -1
        self._next_cell = 0

    def install(self) -> "Tracer":
        importlib.import_module(self.package)
        originals = {}
        for layer, fname in TARGETS:
            module = sys.modules.get(f"{self.package}.{layer}")
            fn = getattr(module, fname, None)
            if callable(fn):
                originals[id(fn)] = (fn, f"{layer}.{fname}")
            else:
                self.missing.add(f"{layer}.{fname}")
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, self._wrap(entry[1], value))
                    self.sites.append(f"{modname}.{attr}")
        return self

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_cell = name == CELL
        meter_cls, max_iter_default = None, None
        if name == PGA:
            params = inspect.signature(fn).parameters
            if "meter" in params:
                meter_cls = getattr(sys.modules.get(f"{self.package}.flops"), "FlopMeter", None)
            if "max_iter" in params:
                max_iter_default = params["max_iter"].default

        def traced(*args, **kwargs):
            meter = kwargs.get("meter")
            if meter_cls is not None and meter is None:
                meter = kwargs["meter"] = meter_cls()
            outer_cell = self._cell
            if is_cell:
                self._cell = self._next_cell
                self._next_cell += 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self._cell)
                self._cell = outer_cell
            if name == PGA:
                self._record_pga(result, kwargs.get("max_iter", max_iter_default), meter)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_pga(self, result, max_iter, meter) -> None:
        iterations = getattr(result, "iterations", None)
        trace = getattr(result, "trace", None)
        accepted = None if trace is None else int(np.count_nonzero(np.diff(np.asarray(trace)) > 0))
        hit_cap = None if iterations is None or max_iter is None else iterations >= max_iter
        flop_total = getattr(meter, "flop_total", None)
        self.pga_runs.append((iterations, accepted, hit_cap, flop_total))

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "cell": cell}) + "\n")

    def metrics(self, cells: int) -> dict:
        """Per-layer metrics; a value of None marks a metric as unmeasured."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=int)
        dur = end - start
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered

        by_name: dict = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)
        traced_names = {f"{layer}.{fname}" for layer, fname in TARGETS} - self.missing

        def select(*span_names):
            if any(n not in traced_names for n in span_names):
                return None
            return [i for n in span_names for i in by_name.get(n, [])]

        def calls(*span_names):
            idx = select(*span_names)
            return None if idx is None else len(idx)

        def total(source, *span_names):
            idx = select(*span_names)
            return None if idx is None else float(source[idx].sum())

        def pct(q, scale, name):
            idx = select(name)
            return None if not idx else float(np.percentile(dur[idx], q) * scale)

        def ratio(num, den):
            return None if num is None or not den else num / den

        propagation = ("propagation.p_los", "propagation.direct_gain",
                       "propagation.indirect_gain", "propagation.sample_blockage")
        out = {
            "harness.run_scenario.total_s": total(dur, ROOT),
            "harness.run_trial.calls": calls("harness.run_trial"),
            "harness.run_trial.self_s": total(self_time, "harness.run_trial"),
            "harness.draw_trial.calls": calls("harness.draw_trial"),
            "harness.draw_trial.total_s": total(dur, "harness.draw_trial"),
            "harness.draw_trial.self_s": total(self_time, "harness.draw_trial"),
            "harness.draws_per_cell": ratio(calls("harness.draw_trial"), cells),
            "channel.synthesize_link.calls": calls("channel.synthesize_link"),
            "channel.synthesize_link.self_s": total(self_time, "channel.synthesize_link"),
            "channel.taps_to_subcarriers.self_s": total(self_time, "channel.taps_to_subcarriers"),
            "rng.substream.calls": calls("rng.substream"),
            "rng.substream.self_s": total(self_time, "rng.substream"),
            "propagation.calls": calls(*propagation),
            "propagation.self_s": total(self_time, *propagation),
            "power.channel_eigvals.self_s": total(self_time, "power.channel_eigvals"),
            "power.channel_eigvals.call_ms_p50": pct(50, 1e3, "power.channel_eigvals"),
            "power.waterfill.self_s": total(self_time, "power.waterfill"),
            "power.waterfill.call_us_p50": pct(50, 1e6, "power.waterfill"),
            "power.waterfill_covariances.calls": calls("power.waterfill_covariances"),
            "power.waterfill_covariances.self_s": total(self_time, "power.waterfill_covariances"),
            "pga.gradient_phi.calls": calls("pga.gradient_phi"),
            "pga.gradient_phi.self_s": total(self_time, "pga.gradient_phi"),
            "pga.gradient_phi.call_ms_p50": pct(50, 1e3, "pga.gradient_phi"),
            "pga.pga_optimize.calls": calls(PGA),
            "pga.pga_optimize.self_s": total(self_time, PGA),
            "pga.pga_optimize.call_ms_p50": pct(50, 1e3, PGA),
            "pga.pga_optimize.call_ms_p90": pct(90, 1e3, PGA),
            "rate.rate_from_heq.calls": calls("rate.rate_from_heq"),
            "rate.rate_from_heq.self_s": total(self_time, "rate.rate_from_heq"),
            "rate.combine_links.self_s": total(self_time, "rate.combine_links"),
            "rate.equivalent_channel.self_s": total(self_time, "rate.equivalent_channel"),
        }
        out.update(self._pga_metrics(total(dur, PGA)))
        root_total, root_self = total(dur, ROOT), total(self_time, ROOT)
        out["trace.unattributed_frac"] = ratio(root_self, root_total)
        return out

    def _pga_metrics(self, pga_seconds) -> dict:
        out = dict.fromkeys(PGA_METRICS)
        runs = self.pga_runs
        if not runs:
            return out

        def column(i):
            values = [r[i] for r in runs]
            return None if any(v is None for v in values) else values

        iterations, accepted, hit_cap, flop_totals = (column(i) for i in range(4))
        if iterations is not None:
            n_iter = int(sum(iterations))
            out["pga.iterations"] = n_iter
            out["pga.iters_per_run"] = n_iter / len(runs)
            out["pga.first_step_stop_frac"] = sum(i <= 1 for i in iterations) / len(runs)
            if accepted is not None and n_iter:
                out["pga.accept_ratio"] = sum(accepted) / n_iter
        if hit_cap is not None:
            out["pga.max_iter_frac"] = sum(hit_cap) / len(runs)
        if flop_totals is not None:
            gflop = float(sum(flop_totals)) / 1e9
            out["flops.analytic_gflop"] = gflop
            if pga_seconds:
                out["pga.analytic_gflop_per_s"] = gflop / pga_seconds
        return out

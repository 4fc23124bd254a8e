"""Layer tracing from outside the program.

The program is not edited.  Each boundary is a name a caller module imported
from the layer below (say `montecarlo.oqam_modulate`, which montecarlo took
from txrx); the tracer replaces that module attribute with a wrapper that
records a span and, where given, a work count.  A boundary whose module or
name no longer exists is recorded as absent; its time then shows up as self
time of the enclosing span.

A span is [run, name, start, end, parent]: `run` groups the spans of one
workload run, `parent` is the index of the enclosing span or -1.  Spans stay
in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict


def _points(arg_index, key):
    def count(args, kwargs, out):
        value = kwargs[key] if key in kwargs else args[arg_index]
        size = getattr(value, "size", None)   # numpy arrays and scalars
        return int(size) if size is not None else len(value) if hasattr(value, "__len__") else 1
    return count


def _calls(args, kwargs, out):
    return 1


def _samples(args, kwargs, out):
    return len(out.samples)


def _slots(args, kwargs, out):
    return len(out)


def _trials(args, kwargs, out):
    return int(out.trials)


# (caller module, imported name, span name or None for count-only, {counter: fn})
BOUNDARIES = (
    ("cli", "main", "cli.main", {}),
    ("cli", "load_config", "cli.load_config", {}),
    ("cli", "_write_csv", "cli.write_csv", {}),
    ("cli", "build_table", "closedform.build_table", {}),
    ("cli", "psd_interference", "psdmodel.psd_interference", {}),
    ("cli", "estimate_oqam_to_ofdm", "montecarlo.estimate", {"montecarlo.trials": _trials}),
    ("cli", "estimate_ofdm_to_oqam", "montecarlo.estimate", {"montecarlo.trials": _trials}),
    ("cli", "run_all_checks", "checks.run_all_checks", {}),
    ("montecarlo", "oqam_modulate", "txrx.oqam_modulate",
     {"txrx.oqam_modulate.samples": _samples, "montecarlo.bursts": _calls}),
    ("montecarlo", "ofdm_modulate", "txrx.ofdm_modulate",
     {"txrx.ofdm_modulate.samples": _samples, "montecarlo.bursts": _calls}),
    ("montecarlo", "_ofdm_demod_window", "txrx.ofdm_demod", {"txrx.ofdm_demod.windows": _calls}),
    ("montecarlo", "_oqam_demod_slots", "txrx.oqam_demod", {"txrx.oqam_demod.slots": _slots}),
    ("montecarlo", "sample_taps", "filterbank.sample_taps", {}),
    ("txrx", "sample_taps", "filterbank.sample_taps", {}),
    ("checks", "sample_taps", "filterbank.sample_taps", {}),
    ("psdmodel", "frequency_response", "filterbank.frequency_response",
     {"filterbank.frequency_response.points": _points(1, "f_norm")}),
    ("checks", "frequency_response", "filterbank.frequency_response",
     {"filterbank.frequency_response.points": _points(1, "f_norm")}),
    ("oracle", "evaluate_g", "filterbank.evaluate_g",
     {"filterbank.evaluate_g.points": _points(1, "t_norm")}),
    # the PSD integrands are called thousands of times per run: count, no span
    ("psdmodel", "psd_oqam_subcarrier", None, {"psdmodel.integrand_evals": _calls}),
    ("psdmodel", "psd_ofdm_subcarrier", None, {"psdmodel.integrand_evals": _calls}),
    ("closedform", "_oqam_to_ofdm_grid", "closedform.grid",
     {"closedform.l_points": _points(0, "l_grid")}),
    ("closedform", "_ofdm_to_oqam_grid", "closedform.grid",
     {"closedform.l_points": _points(0, "l_grid")}),
    ("checks", "_oqam_to_ofdm_grid", "closedform.grid",
     {"closedform.l_points": _points(0, "l_grid")}),
    ("checks", "_ofdm_to_oqam_grid", "closedform.grid",
     {"closedform.l_points": _points(0, "l_grid")}),
    ("checks", "quadrature_I", "oracle.quadrature_I", {}),
    ("checks", "quadrature_window_energy", "oracle.window_energy", {}),
    ("oracle", "quadrature_window_energy", "oracle.window_energy", {}),
    ("checks", "oracle_parseval_constant", "oracle.parseval_constant", {}),
    *(("checks", check, f"checks.{check}", {}) for check in (
        "check_filter_normalization", "check_filter_unit_energy",
        "check_frequency_response_vs_dft", "check_oracle_equivalence", "check_symmetry",
        "check_reciprocity", "check_parseval", "check_decay_envelope")),
)

# Untraced runs install only these: the correctness gate needs the trial count,
# which no output file carries.  One call per run, so the cost is negligible.
GATE_PROBES = tuple(b for b in BOUNDARIES if b[2] == "montecarlo.estimate")

# per-layer metric names that differ from "<span>.<aggregate>"
ALIASES = {"montecarlo.self_s": "montecarlo.estimate.self_s", "cli.self_s": "cli.main.self_s"}


class Tracer:
    def __init__(self, package: str = "coexsim", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []
        self.counts: list[Counter] = []   # one Counter per run
        self.absent: set[str] = set()
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def begin_run(self) -> None:
        self.counts.append(Counter())

    def wrap(self, fn, span, counters):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([len(self.counts) - 1, span, clock(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][3] = clock()
            run_counts = self.counts[-1]
            if span is not None:
                run_counts[span + ".calls"] += 1
            for name, count in counters.items():
                try:
                    run_counts[name] += count(args, kwargs, out)
                except (IndexError, KeyError, AttributeError, TypeError):
                    self.uncounted.add(name)   # signature changed: report, do not crash
            return out
        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        for module_name, attr, span, counters in boundaries:
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, counters))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def aggregate(spans, counts=None) -> dict[str, float]:
    """Per-name totals for one run: `<name>.s`, `<name>.self_s`, plus the counts.

    `.s` sums the spans of a name not nested in a span of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration minus
    the part of it that its child spans cover.
    """
    children = defaultdict(list)
    for idx, (_, _, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for idx, (_, name, start, end, parent) in enumerate(spans):
        out[name + ".self_s"] += (end - start) - _covered(
            (max(s, start), min(e, end)) for s, e in children.get(idx, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            out[name + ".s"] += end - start
    out.update(counts or {})
    for alias, name in ALIASES.items():
        out[alias] = out.get(name, 0.0)
    return dict(out)


def run_spans(spans, run: int) -> list[list]:
    """Spans of one run, re-indexed so parents point into the returned list."""
    index = {}
    out = []
    for idx, span in enumerate(spans):
        if span[0] == run:
            index[idx] = len(out)
            out.append([span[0], span[1], span[2], span[3], index.get(span[4], -1)])
    return out

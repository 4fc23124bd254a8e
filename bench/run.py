"""coexsim benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload mc_s2i --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20

Runs from any directory; the program is imported from the checkout's src/.
Every workload run calls `coexsim.cli.main` in this process, one call after
the other (a closed loop with one caller, as a batch CLI is used).  After one
untimed warm-up the loop repeats until --seconds have passed and at least
MIN_SAMPLES runs were timed.  Every run goes
through the correctness gate (gate.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and reports the per-layer metrics, the
traced run time and the tracing overhead.  The last line of stdout is the
JSON result; the full record and the spans go to .bench_out/ in the checkout.
`--workload all` runs every workload in both modes, each in a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import provenance
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_SAMPLES = 3   # a median that can reject one outlying run
TAIL_BEYOND = 10  # the reported tail percentile has at least this many samples above it


def _load_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


class Session:
    """One workload at one seed: its config, its CLI calls and the gate verdicts."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.config = work / f"{name}.yaml"
        self.config.write_text(self.workload.config_text(seed), encoding="utf-8")
        self.calls = self.workload.calls(self.config, work)
        self.outputs = [Path(a) for _, argv in self.calls for a, flag in zip(argv[1:], argv)
                        if flag == "--out"]
        self.reference = gate.load_reference()
        self.first: gate.RunOutput | None = None
        self.attempted = 0
        self.problems: list[str] = []   # one entry per failed run

    def run_once(self, cli, tracer: spans.Tracer) -> float:
        """One workload run; returns its wall time (gate checks excluded)."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        tracer.begin_run()
        result = gate.RunOutput()
        t0 = time.perf_counter()
        for label, argv in self.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 2
                except Exception as e:  # a crash is a failed run, not a crashed benchmark
                    code = f"raised {type(e).__name__}: {e}"
            result.exit_codes[label] = code
            result.stdout[label] = out.getvalue()
            result.stderr[label] = err.getvalue()
        elapsed = time.perf_counter() - t0
        result.files = {p.name: p.read_bytes() for p in self.outputs if p.is_file()}
        result.trials = tracer.counts[-1].get("montecarlo.trials")
        problems = gate.check_run(self.workload.name, result, self.reference, self.first)
        self.attempted += 1
        if problems:
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))
        if self.first is None:
            self.first = result
        return elapsed


def _setup_times(config: Path) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after the other."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    rank = len(ordered) - TAIL_BEYOND
    if rank >= 1:
        out[f"p{100 * rank / len(ordered):.0f}"] = ordered[rank - 1]
    return out


def _import_cli():
    sys.path.insert(0, str(SRC))
    from coexsim import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"coexsim imported from {cli.__file__}, not from {SRC}")
    return cli


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics (untraced) and the detail behind them."""
    setup = _setup_times(session.config)
    cli = _import_cli()
    probe = spans.Tracer()
    probe.install(spans.GATE_PROBES)
    session.run_once(cli, probe)                # warm-up
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        samples.append(session.run_once(cli, probe))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.uninstall()
    failed = len(session.problems)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(samples),
        "peak_rss_mb": peak_mb,
        "pass_frac": (session.attempted - failed) / session.attempted,
    }
    detail = {"setup_s": setup, "run_s": _tail(samples), "run_s_samples": samples,
              "fail_frac": failed / session.attempted}
    return metrics, detail


def trace(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced runs alternating with untraced ones."""
    cli = _import_cli()
    probe, tracer = spans.Tracer(), spans.Tracer()
    probe.install(spans.GATE_PROBES)
    session.run_once(cli, probe)                # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(session.run_once(cli, probe))
        probe.uninstall()
        tracer.install()
        traced.append(session.run_once(cli, tracer))
        tracer.uninstall()
        probe.install(spans.GATE_PROBES)
    probe.uninstall()
    per_run = [spans.aggregate(spans.run_spans(tracer.spans, run), tracer.counts[run])
               for run in range(len(traced))]
    names = sorted(set().union(*per_run))
    layers = {name: statistics.median(run.get(name, 0.0) for run in per_run) for name in names}
    layers["trace.run_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_path.write_text(json.dumps({"fields": ["run", "name", "start", "end", "parent"],
                                      "spans": tracer.spans}), encoding="utf-8")
    detail = {"untraced_run_s": _tail(plain), "traced_run_s": _tail(traced),
              "absent_boundaries": sorted(tracer.absent),
              "uncounted": sorted(tracer.uncounted), "layers": layers,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return layers, detail


def run_one(args) -> int:
    end_to_end, per_layer = _load_metrics()
    wanted = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        session = Session(args.workload, args.seed, work)
        if args.trace:
            values, detail = trace(session, args.seconds, OUT / f"spans-{stem}.json")
        else:
            values, detail = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    failed = len(session.problems)
    record = {
        "workload": args.workload, "why": session.workload.why, "seed": args.seed,
        "seed_used": session.workload.seed_used, "seconds": args.seconds, "trace": args.trace,
        "config": session.config.name, "config_text": session.workload.config_text(args.seed),
        "calls": [argv for _, argv in session.calls],
        "provenance": provenance.collect(ROOT),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail, "attempted": session.attempted, "failed": failed,
        "failures": session.problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed}"
          f"{'' if session.workload.seed_used else ' (unused: no random input)'}"
          f" trace {args.trace}: {session.workload.why}")
    print(f"# provenance {json.dumps(record['provenance'])}")
    print("== metrics")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if args.trace:
        total = values["trace.run_s"]
        layers = sorted((k[:-2] for k in values if k.endswith(".s")), key=lambda k: -values[k + ".s"])
        print("== share of the traced run      time incl. children      self time")
        for name in layers[:14]:
            inclusive, own = values[name + ".s"], values[name + ".self_s"]
            print(f"  {name:<40} {inclusive:>9.4f} s {100 * inclusive / total:5.1f} %"
                  f" {own:>9.4f} s {100 * own / total:5.1f} %")
        print(f"  absent boundaries: {detail['absent_boundaries'] or 'none'}")
    else:
        tail = ", ".join(f"{k} {v:.4g}" for k, v in detail["run_s"].items())
        print(f"  run_s samples: {tail}; fail_frac {detail['fail_frac']:.3g}")
    print(f"== gate: {'PASS' if not failed else 'FAIL'} ({failed} of {session.attempted} runs failed)")
    for problem in session.problems:
        print(f"  {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": session.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0   # the verdict is in the result line


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; then one summary."""
    ok = True
    rows = []
    for name in WORKLOADS:
        for mode in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{name} trace {mode}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok &= result["correct"]
            rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
            rows.append((name, "gate", "PASS" if result["correct"] else "FAIL",
                         f"{result['failed']}/{result['attempted']} failed"))
    print("== summary")
    for name, metric, value, unit in rows:
        shown = f"{value:>14.6g}" if isinstance(value, float | int) else f"{value:>14}"
        print(f"  {name:<9} {metric:<44} {shown} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "coexsim" / "cli.py").is_file():
        print(f"error: no coexsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    provenance.limit_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

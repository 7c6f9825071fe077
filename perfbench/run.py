"""hoim benchmark: one workload per process, end-to-end metrics or a per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload nae-desk --seed 1 --seconds 25 --trace 0

The workload's inputs are made from ``--seed``.  With ``--trace 0`` the run
repeats units of work (a few set-ups, then one solve) until about
``--seconds`` have passed, and reports medians of the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced units of work (set-up
plus solve) and reports per-layer calls and self times, the tracing
overhead and how much of the traced solve the layer spans account for.
Every solve's output is checked; a check that fails, a nonzero exit code or
a raised error counts as a failed operation.

Human-readable lines (environment, metric table with sample counts) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run, and for traced runs every span, goes to ``.perfbench_out/``.

``--smoke`` shrinks every workload to seconds of work for the self-test
(``python3 perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed; the count is recorded with every result.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("nae-desk", "cut-desk", "nae-large", "cli-trace")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hoim benchmark (one workload per process)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hoim" / "__init__.py").is_file():
        print(f"error: no hoim sources under {src}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy as np
    import hoim
    if Path(hoim.__file__).resolve().parent != (src / "hoim").resolve():
        print(f"error: imported hoim from {hoim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    ledger = workloads.Ledger()
    env = environment(np, args)
    try:
        if args.trace:
            table, metrics = measure_traced(workload, args, workdir, ledger)
        else:
            table, metrics = measure(workload, args, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace, "env": env,
              "table": table, "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems}
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {ledger.attempted} operations, {ledger.failed} failed")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    for name, row in table.items():
        print(f"  {name:36s} {_fmt(row['value']):>14s} {row['unit']:6s} n={row['n']}  {row.get('note', '')}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _keep_going(unit_started: float, deadline: float) -> bool:
    """Start another unit while it would end no later than half a unit past the deadline."""
    now = time.perf_counter()
    return now + 0.5 * (now - unit_started) < deadline


def measure(workload, args, workdir, ledger):
    """Untraced run: end-to-end metrics."""
    import workloads

    started = time.perf_counter()
    deadline = started + args.seconds
    setup_times: list[float] = []
    outcomes = []
    try:
        prepared = workload.prepare(args.seed, workdir, ledger)
        system = None
        rep = 0
        while True:
            unit_started = time.perf_counter()
            # Set-up samples are spread over the run, not taken in one burst, so
            # their median sees the same machine load as the solves.
            for _ in range(workload.setup_reps):
                system = None  # free the last build first, so peak RSS holds one system
                t0 = time.perf_counter()
                system = workload.setup(prepared)
                setup_times.append(time.perf_counter() - t0)
                ledger.record("setup", [])
            outcomes.append(workload.solve(prepared, system, rep, ledger))
            rep += 1
            if not _keep_going(unit_started, deadline):
                break
    except Exception as exc:  # any raised error is a failed operation; report it, do not die
        traceback.print_exc()
        ledger.record("run", [f"{type(exc).__name__}: {exc}"])

    bests = [b for o in outcomes for b in o.restart_bests]
    refs = [r for o in outcomes for r in o.references]
    solves = [o.solve_s for o in outcomes]
    audits = [o.audit_s for o in outcomes if o.audit_s is not None]
    quality = statistics.fmean(b / r for b, r in zip(bests, refs)) if bests else None
    success = sum(b >= r for b, r in zip(bests, refs)) / len(bests) if bests else None
    solve_s = statistics.median(solves) if solves else None
    # TTS99 is undefined when no restart reaches the reference (p = 0).
    tts = workloads.tts99(solve_s, workload.restarts, success) if workload.tts and success else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = {
        "setup_s": _row(statistics.median(setup_times) if setup_times else None, "s", len(setup_times),
                        _quartiles(setup_times)),
        "solve_s": _row(solve_s, "s", len(solves), _quartiles(solves)),
        "tts99_s": _row(tts, "s", len(solves), f"p={success:.3f}" if workload.tts and bests
                        else "desk workloads only"),
        "success_rate": _row(success, "ratio", len(bests), "restarts reaching the reference"),
        "quality": _row(quality, "ratio", len(bests), "mean best/reference over restarts"),
        "quality_gap": _row(None if quality is None else 1.0 - quality, "ratio", len(bests),
                            "mean (reference-best)/reference"),
        "audit_s": _row(statistics.median(audits) if audits else None, "s", len(audits),
                        _quartiles(audits) if audits else "cli-trace only"),
        "peak_rss_mb": _row(rss_mb, "MB", 1, "ru_maxrss of this process"),
        "error_rate": _row(ledger.failed / max(ledger.attempted, 1), "ratio", ledger.attempted,
                           "failed / attempted operations"),
    }
    metrics = {name: (table[name]["value"], table[name]["unit"])
               for name in ("setup_s", "solve_s", "quality", "peak_rss_mb")}
    return table, metrics


def measure_traced(workload, args, workdir, ledger):
    """Traced run: per-layer metrics.  Units alternate untraced and traced, with
    the same seeds, so their solve times give the tracing overhead."""
    import tracing

    import hoim

    started = time.perf_counter()
    deadline = started + args.seconds
    tracer = tracing.Tracer()
    plain, traced = [], []
    alloc_mb = 0.0
    try:
        prepared = workload.prepare(args.seed, workdir, ledger)
        instance = prepared.instance
        formula = instance.get("nae") if isinstance(instance, dict) else instance
        if isinstance(formula, hoim.CnfInstance):
            tracemalloc.start()
            hoim.NaeSystem.from_instance(formula)
            alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        rep = 0
        while True:
            unit_started = time.perf_counter()
            system = workload.setup(prepared)
            ledger.record("setup", [])
            plain.append(workload.solve(prepared, system, rep, ledger))
            tracer.unit = rep
            with tracer.patched():
                with tracer.span("bench.setup"):
                    system = workload.setup(prepared)
                ledger.record("traced setup", [])
                traced.append(workload.solve(prepared, system, rep, ledger, tracer))
            rep += 1
            if not _keep_going(unit_started, deadline):
                break
    except Exception as exc:  # any raised error is a failed operation; report it, do not die
        traceback.print_exc()
        ledger.record("run", [f"{type(exc).__name__}: {exc}"])

    units = tracer.per_unit()
    metrics = tracing.layer_metrics(units) if units else {}
    coverage = [_solve_layer_self(u) / o.solve_s for u, o in zip(units.values(), traced)]
    metrics.update({
        "naesat.build.alloc_mb": (alloc_mb, "MB"),
        "engine.restart_steps": (_median_low([o.restart_steps for o in traced]), "count"),
        "engine.records": (_median_low([o.records for o in traced]), "count"),
        "trace.overhead_s": (_median([o.solve_s for o in traced]) - _median([o.solve_s for o in plain])
                             if traced and plain else None, "s"),
        "trace.solve_coverage": (_median(coverage), "ratio"),
        "trace.spans": (_median_low([sum(u["calls"].values()) for u in units.values()]), "count"),
    })
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    tracer.write(OUT_DIR / f"{tag}.spans.jsonl")

    solve_s = _median([o.solve_s for o in traced])
    unit_s = _median([sum(u["self"].values()) for u in units.values()])
    table = {}
    for name, (value, unit) in metrics.items():
        note = ""
        if name.endswith(".s") and value and unit_s:
            note = f"{100.0 * value / unit_s:5.1f}% of a traced unit (set-up, solve, audit)"
        table[name] = _row(value, unit, len(traced), note)
    table["solve_s.traced"] = _row(solve_s, "s", len(traced), "")
    table["solve_s.untraced"] = _row(_median([o.solve_s for o in plain]), "s", len(plain), "")
    return table, metrics


def _solve_layer_self(unit) -> float:
    """Self seconds of the layer spans inside ``bench.solve`` spans of one unit."""
    return unit["under"].get("bench.solve", 0.0) - unit["self"].get("bench.solve", 0.0)


def _median(values):
    return statistics.median(values) if values else None


def _median_low(values):
    """Median that stays one of the values, for counts."""
    return statistics.median_low(values) if values else None


def _quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g}"


def _row(value, unit, n, note=""):
    return {"value": value, "unit": unit, "n": n, "note": note}


def environment(np, args) -> dict:
    """Versions, BLAS library and threads, CPU and commit, recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())

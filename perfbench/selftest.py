"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Checks that
* a smoke run of every workload, traced and untraced, ends with a result
  line holding exactly the metrics BENCHMARK.json lists, with their units,
  and prints every metric of the human table with its unit;
* corrupted solver output (a flipped assignment entry, a missing trace row,
  a failing audit) is counted as a failed operation;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
TABLE_METRICS = {"setup_s": "s", "solve_s": "s", "tts99_s": "s", "success_rate": "ratio",
                 "quality": "ratio", "quality_gap": "ratio", "audit_s": "s", "peak_rss_mb": "MB",
                 "error_rate": "ratio"}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            proc = run_bench(ROOT, workload, trace)
            check(proc.returncode == 0, f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{where}: last line is not JSON")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: not correct: {lines[:-1]}")
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
            check(got == expected, f"{where}: metric names/units differ from BENCHMARK.json: "
                                   f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, entry in result["metrics"].items():
                value = entry.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{where}: {name} value {value!r} is not a finite number")
            if not trace:
                for name, unit in TABLE_METRICS.items():
                    check(any(line.split()[:1] == [name] and unit in line.split() for line in lines),
                          f"{where}: table line for {name} [{unit}] missing")


def check_corruption() -> None:
    """Feed each workload's own checks a corrupted output; the ledger must count it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import hoim
    import hoim.cli
    import hoim.engine
    import workloads

    def attempt(workload, patch_owner, attr, replacement, expect: str):
        ledger = workloads.Ledger()
        prepared = workload.prepare(5, WORK, ledger)
        system = workload.setup(prepared)
        original = getattr(patch_owner, attr)
        setattr(patch_owner, attr, replacement(original))
        try:
            workload.solve(prepared, system, 0, ledger)
        finally:
            setattr(patch_owner, attr, original)
        check(ledger.failed >= 1 and any(expect in p for p in ledger.problems),
              f"corruption '{expect}' on {workload.name} not counted: {ledger.problems}")

    def flip_first_entry(run):
        def corrupted(system, config, instance):
            result = run(system, config, instance)
            assignment = result.best_assignment.copy()
            assignment[0] = -assignment[0] if isinstance(system, hoim.NaeSystem) else (assignment[0] + 1) % 3
            return dataclasses.replace(result, best_assignment=assignment)
        return corrupted

    def drop_trace_row(main):
        def corrupted(argv):
            code = main(argv)
            if argv[0] == "solve":
                path = Path(argv[argv.index("--trace") + 1])
                path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
            return code
        return corrupted

    def fail_audit(main):
        return lambda argv: 1 if argv[0] == "audit" else main(argv)

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("nae-desk", "cut-desk"):
            attempt(workloads.SMOKE[name], hoim.engine, "run", flip_first_entry, "rescored assignment")
        cli_workload = workloads.SMOKE["cli-trace"]
        attempt(cli_workload, hoim.cli, "main", drop_trace_row, "rows, expected")
        attempt(cli_workload, hoim.cli, "main", fail_audit, "exit code 1")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def check_bare_directory() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "nae-desk", 0, smoke=False)
        check(proc.returncode != 0, "bare directory: exit code 0")
        check(not proc.stdout.strip(), f"bare directory: printed {proc.stdout[:200]!r}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_smoke_runs(spec)
    check_corruption()
    check_bare_directory()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

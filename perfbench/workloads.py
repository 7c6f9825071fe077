"""The benchmark's workloads: inputs made from a seed, one unit of work, and output checks.

A workload prepares its inputs once per process (instance generation, the
plant check and the exact reference are outside every timed region), then
the runner times ``setup`` (instance to built system) and ``solve`` (the
solver call) repeatedly.  Every solve is checked against scorers written
here from the discrete problem definitions, independent of the solver's
own metric code; each mismatch is a failed operation in the ledger.

The library workloads call ``hoim.engine.run`` and the system builders by
attribute lookup at call time, so the tracer's patches see them.  The CLI
workload drives ``hoim.cli.main`` in process, as a user of ``hoim solve``
and ``hoim audit`` would.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import hoim
import hoim.cli
import hoim.engine
from hoim import oracle


def nae_score(clauses, spins) -> int:
    """Clauses whose literal values are not all equal (literal value = sign * spin)."""
    return sum(len({(1 if lit > 0 else -1) * int(spins[abs(lit) - 1]) for lit in clause}) > 1
               for clause in clauses)


def cut_score(edges, labels) -> int:
    """Hyperedges whose nodes carry at least two distinct labels."""
    return sum(len({int(labels[v - 1]) for v in edge}) > 1 for edge in edges)


def check_assignment(problem: str, instance, k: int, assignment, claimed: int) -> list[str]:
    """Rescore ``assignment`` from scratch; any disagreement with ``claimed`` is a problem."""
    values = [int(v) for v in assignment]
    if problem == "nae":
        n, allowed = instance.num_vars, {-1, 1}
    else:
        n, allowed = instance.num_nodes, set(range(k))
    if len(values) != n:
        return [f"assignment has {len(values)} entries, expected {n}"]
    if not set(values) <= allowed:
        return [f"assignment values {sorted(set(values) - allowed)} outside {sorted(allowed)}"]
    score = (nae_score(instance.clauses, values) if problem == "nae"
             else cut_score(instance.hyperedges, values))
    return [] if score == claimed else [f"rescored assignment gives {score}, solver reported {claimed}"]


def check_restarts(best_metric: int, restart_bests, reference: int, exact_reference: bool) -> list[str]:
    """The best metric is the best over restarts, and no restart beats an exact optimum."""
    problems = []
    if best_metric != max(restart_bests):
        problems.append(f"best metric {best_metric} is not the best restart {max(restart_bests)}")
    if max(restart_bests) > reference:
        kind = "optimum" if exact_reference else "upper bound"
        problems.append(f"restart metric {max(restart_bests)} exceeds the {kind} {reference}")
    return problems


def check_trace_csv(text: str, restarts: int, steps: int) -> list[str]:
    """A ``--record-every 1`` trace without a target holds restarts * (steps + 1) rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["restart", "step", "energy", "metric"]:
        return [f"trace header {rows[:1]} is not restart,step,energy,metric"]
    expected = restarts * (steps + 1)
    if len(rows) - 1 != expected:
        return [f"trace has {len(rows) - 1} rows, expected {expected}"]
    return []


class Ledger:
    """Counts attempted and failed operations; keeps the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


@dataclass
class Outcome:
    """What one unit of work produced, for the metrics."""

    solve_s: float
    audit_s: float | None
    restart_bests: list[int]
    references: list[int]  # the reference each restart is measured against
    restart_steps: int
    records: int


@dataclass
class Prepared:
    seed: int
    instance: object
    reference: int
    files: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LibraryWorkload:
    """Build a system with the library and call ``engine.run`` on it (no target, so
    every restart runs all steps and the step and record counts are exact)."""

    name: str
    problem: str  # "nae" or "cut"
    size: tuple[int, int]  # (variables, clauses) or (nodes, edges)
    dt: float
    steps: int
    restarts: int = 20
    k: int = 4  # clause width for NAE, partition count for cuts
    record_every: int = 100
    setup_reps: int = 5  # set-ups timed per unit of work
    tts: bool = True  # TTS99 is reported where the reference is reachable

    def prepare(self, seed: int, workdir: Path, ledger: Ledger) -> Prepared:
        n, m = self.size
        if self.problem == "nae":
            instance, plant = hoim.generate_planted_nae(n, m, self.k, seed)
            ledger.record("plant check", [] if nae_score(instance.clauses, plant) == m
                          else [f"plant satisfies {nae_score(instance.clauses, plant)} of {m} clauses"])
            return Prepared(seed, instance, reference=m)
        instance = hoim.generate_random_hypergraph(n, m, 2, 4, seed)
        best, labels = oracle.brute_force_maxkcut(instance, self.k)
        ledger.record("oracle reference", check_assignment("cut", instance, self.k, labels, best))
        return Prepared(seed, instance, reference=best)

    def setup(self, prepared: Prepared):
        if self.problem == "nae":
            return hoim.NaeSystem.from_instance(prepared.instance)
        return hoim.CutSystem.from_hypergraph(prepared.instance, self.k)

    def solve(self, prepared: Prepared, system, rep: int, ledger: Ledger, tracer=None) -> Outcome:
        config = hoim.SolverConfig(dt=self.dt, steps=self.steps, restarts=self.restarts,
                                   seed=prepared.seed * 10_000 + rep * self.restarts,
                                   record_every=self.record_every)
        with _span(tracer, "bench.solve"):
            start = time.perf_counter()
            result = hoim.engine.run(system, config, prepared.instance)
            solve_s = time.perf_counter() - start
        bests = [s.best_metric for s in result.restarts]
        restart_steps = sum(s.steps_run for s in result.restarts)
        per_restart = self.steps // self.record_every + 1 + (self.steps % self.record_every != 0)
        problems = check_assignment(self.problem, prepared.instance, self.k,
                                    result.best_assignment, result.best_metric)
        problems += check_restarts(result.best_metric, bests, prepared.reference, True)
        if restart_steps != self.restarts * self.steps:
            problems.append(f"{restart_steps} restart steps, expected {self.restarts * self.steps}")
        if len(result.trace) != self.restarts * per_restart:
            problems.append(f"{len(result.trace)} trace records, expected {self.restarts * per_restart}")
        ledger.record(f"solve {rep}", problems)
        return Outcome(solve_s, None, bests, [prepared.reference] * len(bests), restart_steps,
                       len(result.trace))


@dataclass(frozen=True)
class CliWorkload:
    """``hoim audit`` then ``hoim solve --record-every 1 --out --trace`` through
    ``hoim.cli.main``, on one hypergraph and one planted NAE-SAT file."""

    name: str
    cut_size: tuple[int, int]
    nae_size: tuple[int, int]
    steps: int
    restarts: int
    audit_steps: int
    k_cut: int = 3
    k_nae: int = 4
    setup_reps: int = 3
    tts: bool = False

    def prepare(self, seed: int, workdir: Path, ledger: Ledger) -> Prepared:
        graph = hoim.generate_random_hypergraph(*self.cut_size, 2, 4, seed)
        formula, plant = hoim.generate_planted_nae(*self.nae_size, self.k_nae, seed)
        m = formula.num_clauses
        ledger.record("plant check", [] if nae_score(formula.clauses, plant) == m
                      else [f"plant satisfies {nae_score(formula.clauses, plant)} of {m} clauses"])
        files = {"cut": workdir / "graph.hyp", "nae": workdir / "formula.cnf"}
        files["cut"].write_text(hoim.format_hypergraph(graph), encoding="utf-8")
        files["nae"].write_text(hoim.format_dimacs(formula), encoding="utf-8")
        # References are per file and set in solve: m for NAE, the edge count (an upper
        # bound, not an exact optimum) for the cut.
        return Prepared(seed, {"cut": graph, "nae": formula}, reference=0, files=files)

    def setup(self, prepared: Prepared):
        # What ``hoim solve`` does before integrating: read, parse, build.  The
        # solve calls below repeat this inside the CLI; set-up is timed here.
        graph = hoim.instances.parse_hypergraph(prepared.files["cut"].read_text(encoding="utf-8"))
        formula = hoim.instances.parse_dimacs(prepared.files["nae"].read_text(encoding="utf-8"))
        return (hoim.CutSystem.from_hypergraph(graph, self.k_cut),
                hoim.NaeSystem.from_instance(formula))

    def _flags(self, problem: str, path: Path) -> list[str]:
        if problem == "cut":
            return ["--problem", "hyper-maxcut", "--k", str(self.k_cut), "--input", str(path)]
        return ["--problem", "nae-sat", "--input", str(path)]

    def solve(self, prepared: Prepared, system, rep: int, ledger: Ledger, tracer=None) -> Outcome:
        solve_s = audit_s = 0.0
        bests: list[int] = []
        references: list[int] = []
        restart_steps = records = 0
        for problem in ("cut", "nae"):
            path = prepared.files[problem]
            instance = prepared.instance[problem]
            reference = instance.num_edges if problem == "cut" else instance.num_clauses
            out_json, out_csv = path.with_suffix(".json"), path.with_suffix(".csv")
            audit_args = ["audit", *self._flags(problem, path), "--steps", str(self.audit_steps),
                          "--seed", str(rep)]
            solve_args = ["solve", *self._flags(problem, path), "--steps", str(self.steps),
                          "--restarts", str(self.restarts), "--record-every", "1",
                          "--seed", str(prepared.seed * 10_000 + rep * self.restarts),
                          "--out", str(out_json), "--trace", str(out_csv)]
            with _span(tracer, "bench.audit"):
                code, printed, seconds = _call_cli(audit_args)
            audit_s += seconds
            problems = [] if code == 0 else [f"exit code {code}"]
            if "audit PASS" not in printed.splitlines():
                problems.append("audit did not print 'audit PASS'")
            ledger.record(f"audit {problem} {rep}", problems)

            with _span(tracer, "bench.solve"):
                code, printed, seconds = _call_cli(solve_args)
            solve_s += seconds
            problems = [] if code == 0 else [f"exit code {code}"]
            try:
                document = json.loads(out_json.read_text(encoding="utf-8"))
                trace_text = out_csv.read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:
                ledger.record(f"solve {problem} {rep}", problems + [f"unreadable output: {exc}"])
                continue
            by_index = document["best_assignment"]
            assignment = [by_index[str(i + 1)] for i in range(len(by_index))]
            restart_bests = [r["best_metric"] for r in document["restarts"]]
            k = self.k_cut if problem == "cut" else self.k_nae
            problems += check_assignment(problem, instance, k, assignment, document["best_metric"])
            problems += check_restarts(document["best_metric"], restart_bests, reference, False)
            problems += check_trace_csv(trace_text, self.restarts, self.steps)
            ledger.record(f"solve {problem} {rep}", problems)
            bests += restart_bests
            references += [reference] * len(restart_bests)
            restart_steps += sum(r["steps_run"] for r in document["restarts"])
            records += trace_text.count("\n") - 1
        return Outcome(solve_s, audit_s, bests, references, restart_steps, records)


def _call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``hoim.cli.main`` in process; return (exit code, stdout text, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = hoim.cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue() + err.getvalue(), seconds


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def tts99(solve_s: float, restarts: int, p: float) -> float:
    """Time to solution at 99% confidence, (t_run / R) * max(1, ln 0.01 / ln(1 - p)),
    for a per-restart success rate 0 < p <= 1."""
    repeats = 1.0 if p >= 1.0 else max(1.0, math.log(0.01) / math.log(1.0 - p))
    return solve_s / restarts * repeats


# Why each workload exists is recorded in BENCHMARK.json and perfbench/baseline.json.
WORKLOADS = {
    w.name: w for w in (
        LibraryWorkload("nae-desk", "nae", (20, 50), dt=1e-3, steps=20_000),
        LibraryWorkload("cut-desk", "cut", (10, 20), dt=1e-2, steps=20_000, k=3, setup_reps=20),
        LibraryWorkload("nae-large", "nae", (1000, 2500), dt=5e-3, steps=100, setup_reps=2,
                        tts=False),
        CliWorkload("cli-trace", cut_size=(200, 400), nae_size=(200, 500), steps=200,
                    restarts=10, audit_steps=300),
    )
}

# Tiny versions of each workload for the self-test: same code paths, seconds of work.
SMOKE = {
    "nae-desk": replace(WORKLOADS["nae-desk"], steps=300, restarts=4),
    "cut-desk": replace(WORKLOADS["cut-desk"], steps=300, restarts=4),
    "nae-large": replace(WORKLOADS["nae-large"], size=(100, 250), steps=20, restarts=4),
    "cli-trace": replace(WORKLOADS["cli-trace"], cut_size=(20, 40), nae_size=(20, 50), steps=20,
                         restarts=3, audit_steps=50),
}

"""Command-line front end.

Subcommands: ``solve`` (run the phase-dynamics solver and emit a JSON
result plus a CSV trace), ``generate`` (write instance files),
``oracle`` (exhaustive optimum at desk scale), ``audit`` (noise-free
energy-descent and gradient checks).

Exit codes: 0 success, 1 internal numerical failure or audit tolerance
breach, 2 invalid input or flags (constants out of range or whose energy
bound overflows float included), or an instance too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import hypercut, naesat, oracle
from .engine import SolverConfig, lyapunov_audit, run
from .hypercut import CutSystem
from .instances import (
    InstanceError,
    format_dimacs,
    format_hypergraph,
    generate_planted_nae,
    generate_random_hypergraph,
    parse_dimacs,
    parse_hypergraph,
)
from .naesat import NaeSystem

DESCENT_TOLERANCE = 1e-6
GRADIENT_TOLERANCE = {"nae-sat": 1e-5, "hyper-maxcut": 1e-4}
DEFAULT_DT = {"nae-sat": SolverConfig.dt, "hyper-maxcut": 1e-2}


def _load_instance(args):
    """Parse ``args.input``: DIMACS CNF for nae-sat, a 'p hyp' hypergraph otherwise."""
    with open(args.input, "r", encoding="utf-8-sig") as handle:  # skips a byte-order mark
        text = handle.read()
    return (parse_dimacs if args.problem == "nae-sat" else parse_hypergraph)(text)


def _load_problem(args):
    """Parse the input file and build the matching dynamical system; unset
    constant flags fall back to the system's defaults, which the echo records."""
    instance = _load_instance(args)
    if args.problem == "nae-sat":
        system = NaeSystem.from_instance(instance, coupling=args.coupling, harmonic=args.harmonic)
        sizes = {"num_vars": instance.num_vars, "num_clauses": instance.num_clauses, "k": instance.k}
        k, sigma, tabulated = {}, {}, naesat.default_constants(instance.k)[2]
    else:
        system = CutSystem.from_hypergraph(instance, args.k, coupling=args.coupling,
                                           harmonic=args.harmonic, sigma=args.sigma)
        sizes = {"num_nodes": instance.num_nodes, "num_edges": instance.num_edges,
                 "max_edge_size": instance.max_edge_size}
        k, sigma, tabulated = {"k": args.k}, {"sigma": system.sigma}, hypercut.default_constants(args.k)[2]
    echo = {
        "problem": args.problem,
        "input": args.input,
        "instance": sizes,
        **k,
        "coupling": system.coupling,
        "harmonic": system.harmonic,
        "constants_tabulated": tabulated,
        **sigma,
    }
    return instance, system, echo


def _solver_config(args, problem: str) -> SolverConfig:
    return SolverConfig(
        dt=args.dt if args.dt is not None else DEFAULT_DT[problem],
        steps=args.steps,
        noise_amplitude=args.noise,
        noise_schedule=args.schedule,
        restarts=args.restarts,
        seed=args.seed,
        record_every=args.record_every,
        target=args.target,
    )


def _check_output_paths(source, *paths):
    """Reject an output path that is a directory, or whose directory is missing
    or not writable, the ``source`` file, whose write would replace the
    instance, and a second path to one file, whose write would replace the
    first; all before the solve, without creating or truncating a file."""
    seen = set()
    for path in filter(None, paths):
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise OSError(f"cannot write {path}: not a file in a writable directory")
        real = os.path.realpath(path)
        if real == os.path.realpath(source):
            raise OSError(f"cannot write {path}: it is the input file")
        if real in seen:
            raise OSError(f"cannot write {path}: another output names the same file")
        seen.add(real)


def cmd_solve(args) -> int:
    _check_output_paths(args.input, args.out, args.trace)
    instance, system, echo = _load_problem(args)
    config = _solver_config(args, args.problem)
    result = run(system, config, instance)

    echo.update(asdict(config))
    metric_cap = instance.num_clauses if args.problem == "nae-sat" else instance.num_edges
    document = {
        "config": echo,
        "best_metric": result.best_metric,
        "metric_maximum": metric_cap,
        "best_assignment": {str(i + 1): int(v) for i, v in enumerate(result.best_assignment)},
        "best_restart": result.best_restart,
        "best_step": result.best_step,
        "final_energy": result.final_energy,
        "restarts": [asdict(summary) for summary in result.restarts],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write("restart,step,energy,metric\n")
            for rec in result.trace:
                handle.write(f"{rec.restart},{rec.step},{rec.energy!r},{rec.metric}\n")
    print(f"best metric {result.best_metric}/{metric_cap} "
          f"(restart {result.best_restart}, step {result.best_step}); "
          f"final energy {result.final_energy:.6f}")
    return 0


def cmd_generate(args) -> int:
    if args.kind == "planted-nae":
        instance, plant = generate_planted_nae(args.vars, args.clauses, args.k, args.seed)
        comments = [
            f"generated: planted-nae vars={args.vars} clauses={args.clauses} k={args.k} seed={args.seed}",
            "plant: " + " ".join(str(int(v * s)) for v, s in zip(range(1, args.vars + 1), plant)),
        ]
        text = format_dimacs(instance, comments=comments)
    else:
        graph = generate_random_hypergraph(args.nodes, args.edges, args.min, args.max, args.seed)
        comments = [
            f"generated: random-hypergraph nodes={args.nodes} edges={args.edges} "
            f"min={args.min} max={args.max} seed={args.seed}",
        ]
        text = format_hypergraph(graph, comments=comments)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    instance = _load_instance(args)
    if args.problem == "nae-sat":
        best, assignment = oracle.brute_force_nae(instance)
        cap = instance.num_clauses
    else:
        best, assignment = oracle.brute_force_maxkcut(instance, args.k)
        cap = instance.num_edges
    print(f"optimum {best}/{cap}")
    print("assignment " + " ".join(str(int(v)) for v in assignment))
    return 0


def cmd_audit(args) -> int:
    instance, system, _echo = _load_problem(args)
    config = SolverConfig(dt=args.dt if args.dt is not None else DEFAULT_DT[args.problem],
                          steps=args.steps, noise_amplitude=0.0, seed=args.seed)
    report = lyapunov_audit(system, config)

    rng = np.random.default_rng(args.seed)
    worst_gradient = 0.0
    for _ in range(5):
        state = rng.uniform(0.0, 2.0 * np.pi, system.num_spins)
        grad = oracle.finite_diff_gradient(system.frozen_energy(state), state, 1e-6)
        drift = system.drift(state)
        error = np.max(np.abs(drift + grad)) / max(np.max(np.abs(drift)), 1e-12)
        worst_gradient = max(worst_gradient, float(error))

    print(f"steps {report.steps}; dt {config.dt}")
    print(f"max per-step energy increase {report.max_step_increase:.3e}"
          f" (frozen energy {report.max_step_increase_clear:.3e})")
    print(f"total energy change {report.delta_energy:.3e}")
    print(f"gradient check max relative error {worst_gradient:.3e}")
    # Gate on the frozen energy: the raw cut energy can also rise through the
    # bump slope that the drift drops.
    ok = (report.max_step_increase_clear <= DESCENT_TOLERANCE and report.delta_energy < 0.0
          and worst_gradient <= GRADIENT_TOLERANCE[args.problem])
    print("audit " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoim",
        description="Phase-dynamics solver for NAE-K-SAT and hypergraph Max-K-Cut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p, with_solver=True):
        p.add_argument("--problem", required=True, choices=["nae-sat", "hyper-maxcut"])
        p.add_argument("--input", required=True, help="instance file (DIMACS CNF or 'p hyp')")
        p.add_argument("--k", type=int, help="partition count (required for hyper-maxcut)")
        p.add_argument("--coupling", type=float, help="interaction strength C (NAE) or A (cut)")
        p.add_argument("--harmonic", type=float, help="harmonic pinning strength C_s or A_s")
        p.add_argument("--sigma", type=float, help="penalty bump width (hyper-maxcut)")
        p.add_argument("--dt", type=float, help="time step (default per problem)")
        p.add_argument("--seed", type=int, default=SolverConfig.seed)
        if with_solver:
            p.add_argument("--steps", type=int, default=SolverConfig.steps)
            p.add_argument("--noise", type=float, default=SolverConfig.noise_amplitude, help="noise amplitude (radians)")
            p.add_argument("--schedule", choices=["constant", "decay"], default=SolverConfig.noise_schedule)
            p.add_argument("--restarts", type=int, default=SolverConfig.restarts)
            p.add_argument("--record-every", dest="record_every", type=int, default=SolverConfig.record_every)
            p.add_argument("--target", type=int, help="stop a restart when the metric reaches this")

    p_solve = sub.add_parser("solve", help="run the phase-dynamics solver")
    add_problem_flags(p_solve)
    p_solve.add_argument("--out", help="write the result document (JSON) here")
    p_solve.add_argument("--trace", help="write the CSV trace (restart,step,energy,metric) here")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="generate instance files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_nae = gen_sub.add_parser("planted-nae", help="satisfiable NAE-K-SAT instance")
    g_nae.add_argument("--vars", type=int, required=True)
    g_nae.add_argument("--clauses", type=int, required=True)
    g_nae.add_argument("--k", type=int, required=True)
    g_nae.add_argument("--seed", type=int, default=0)
    g_nae.add_argument("--out", required=True)
    g_hyp = gen_sub.add_parser("hypergraph", help="uniform random hypergraph")
    g_hyp.add_argument("--nodes", type=int, required=True)
    g_hyp.add_argument("--edges", type=int, required=True)
    g_hyp.add_argument("--min", type=int, default=2, help="minimum edge size")
    g_hyp.add_argument("--max", type=int, default=4, help="maximum edge size")
    g_hyp.add_argument("--seed", type=int, default=0)
    g_hyp.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum (desk scale)")
    p_oracle.add_argument("--problem", required=True, choices=["nae-sat", "hyper-maxcut"])
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--k", type=int, help="partition count (required for hyper-maxcut)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_audit = sub.add_parser("audit", help="energy-descent and gradient checks (noise-free)")
    add_problem_flags(p_audit, with_solver=False)
    p_audit.add_argument("--steps", type=int, default=2000)
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "problem", None) == "hyper-maxcut" and getattr(args, "k", None) is None:
        parser.error("--k is required for hyper-maxcut")
    if getattr(args, "k", None) is not None and args.k < 2:
        parser.error("--k must be at least 2")
    if getattr(args, "problem", None) == "nae-sat":
        for flag in ("k", "sigma"):
            if getattr(args, flag, None) is not None:
                parser.error(f"--{flag} applies to hyper-maxcut only")
    try:
        return args.func(args)
    except (InstanceError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size past numpy's integers, before any allocation
        print(f"error: instance too large to allocate ({exc})", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

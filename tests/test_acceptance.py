"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from hoim.cli import main
from hoim.engine import SolverConfig, lyapunov_audit, run
from hoim.hypercut import CutSystem, count_cut
from hoim.instances import generate_planted_nae, generate_random_hypergraph
from hoim.naesat import NaeSystem
from hoim.oracle import brute_force_maxkcut, finite_diff_gradient, truth_table_expand
from hoim.polynomial import build_objective, count_satisfied, expand_clause

NAE_DT = 1e-3
CUT_DT = 1e-2


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def lattice_state(spins):
    return np.pi * (1 - np.asarray(spins, dtype=float)) / 2.0


def test_criterion_1_clause_expansion_exact():
    started = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for k in (2, 3, 4, 5, 6):
        for _ in range(200):
            signs = rng.choice([-1, 1], size=k)
            lits = [int(s * (i + 1)) for i, s in enumerate(signs)]
            a = expand_clause(lits)
            b = truth_table_expand(lits)
            ok = ok and a.terms == b.terms and a.constant == b.constant
    # all-positive special cases: every even-order subset carries 2^-(K-1)
    for k in (2, 3, 4, 5):
        poly = expand_clause(list(range(1, k + 1)))
        unit = Fraction(1, 2 ** (k - 1))
        expected = tuple(
            (subset, unit)
            for r in range(2, k + 1, 2)
            for subset in combinations(range(1, k + 1), r)
        )
        expected = tuple(sorted(expected, key=lambda t: (len(t[0]), t[0])))
        ok = ok and poly.terms == expected and poly.constant == unit
    # width 5 expands to the sixteen-term form: constant, ten pairs, five quadruples
    poly5 = expand_clause([1, 2, 3, 4, 5])
    counts = {2: 0, 4: 0}
    for vs, c in poly5.terms:
        counts[len(vs)] += 1
        ok = ok and c == Fraction(1, 16)
    ok = ok and counts == {2: 10, 4: 5} and poly5.constant == Fraction(1, 16)
    elapsed = time.time() - started
    report(1, "clause expansion equals truth-table transform (K=2..6, exact)",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_alternating_cosine_lattice_equivalence():
    ok = True
    for order in (2, 4, 6):
        pattern = [1, -1] * (order // 2)
        for spins in product([-1, 1], repeat=order):
            phi = lattice_state(spins)
            alternating = sum(p * s for p, s in zip(phi, pattern))
            ok = ok and np.cos(alternating) == float(np.prod(spins))
    report(2, "cos(alternating phase sum) equals spin product on all lattice states", ok)


def test_criterion_3_discrete_objective_identity():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        k = int(rng.choice([2, 3, 4, 5]))
        n = int(rng.integers(max(k, 8), 13))
        m = int(rng.integers(10, 25))
        inst, _ = generate_planted_nae(n, m, k, seed=int(rng.integers(1 << 30)))
        poly = build_objective(inst)
        scale = 2 ** (k - 1)
        # exhaustive over all 2^N assignments, exact integer arithmetic
        bits = np.arange(n)
        idx = np.arange(2**n)
        spins = (1 - 2 * ((idx[:, None] >> bits) & 1)).astype(np.int64)
        interaction = np.zeros(2**n, dtype=np.int64)
        for vs, coeff in poly.terms:
            numerator = coeff * scale
            assert numerator.denominator == 1
            interaction += int(numerator) * spins[:, np.array(vs) - 1].prod(axis=1)
        constant = poly.constant * scale
        assert constant.denominator == 1 and int(constant) == m
        unsat = m - np.asarray(count_satisfied(inst, spins))
        # evaluate(build_objective) = #unsatisfied, written over the common
        # denominator: interaction + M = 2^(K-1) * U
        ok = ok and np.array_equal(interaction + m, scale * unsat)
        # equivalently, the bare interaction sum is 2^(K-1) * U - M
        ok = ok and np.array_equal(interaction, scale * unsat - m)
        # tie the vectorized path to the public evaluate() on a sample
        from hoim.polynomial import evaluate

        for row in rng.choice(2**n, size=8, replace=False):
            ok = ok and evaluate(poly, spins[row]) == int(unsat[row])
    report(3, "objective value equals unsatisfied count on every assignment (50 instances)", ok)


def test_criterion_4_gradient_audits():
    rng = np.random.default_rng(7)
    worst_nae = 0.0
    for k in (2, 3, 4, 5):
        inst, _ = generate_planted_nae(10, 18, k, seed=int(rng.integers(1 << 30)))
        system = NaeSystem.from_instance(inst)
        for _ in range(25):
            state = rng.uniform(0, 2 * np.pi, 10)
            fd = finite_diff_gradient(system.energy, state, 1e-6)
            drift = system.drift(state)
            worst_nae = max(worst_nae, np.max(np.abs(drift + fd)) / np.max(np.abs(drift)))
    worst_cut = 0.0
    for k in (2, 3, 4):
        graph = generate_random_hypergraph(8, 12, 2, 4, seed=int(rng.integers(1 << 30)))
        system = CutSystem.from_hypergraph(graph, k)
        for _ in range(34):
            state = rng.uniform(0, 2 * np.pi, 8)
            frozen = system.pair_penalties(state)
            fd = finite_diff_gradient(lambda x: system.energy(x, penalties=frozen), state, 1e-6)
            drift = system.drift(state)
            worst_cut = max(worst_cut, np.max(np.abs(drift + fd)) / np.max(np.abs(drift)))
    report(4, "drift equals -grad(E) against central differences",
           worst_nae < 1e-5 and worst_cut < 1e-4,
           f"max rel err NAE {worst_nae:.2e}, cut {worst_cut:.2e}")


def test_criterion_5_lyapunov_descent():
    started = time.time()
    worst_increase = 0.0
    worst_delta = -np.inf
    rng = np.random.default_rng(31)
    for i in range(20):
        inst, _ = generate_planted_nae(int(rng.integers(10, 21)), int(rng.integers(20, 41)), 4,
                                       seed=int(rng.integers(1 << 30)))
        system = NaeSystem.from_instance(inst)
        cfg = SolverConfig(dt=NAE_DT, steps=1000, noise_amplitude=0.0,
                           noise_schedule="constant", seed=i)
        rep = lyapunov_audit(system, cfg)
        worst_increase = max(worst_increase, rep.max_step_increase)
        worst_delta = max(worst_delta, rep.delta_energy)
    worst_increase_cut = 0.0
    worst_delta_cut = -np.inf
    for i in range(20):
        graph = generate_random_hypergraph(int(rng.integers(8, 11)), int(rng.integers(12, 21)),
                                           2, 4, seed=int(rng.integers(1 << 30)))
        system = CutSystem.from_hypergraph(graph, 2 + i % 3)
        cfg = SolverConfig(dt=CUT_DT, steps=1000, noise_amplitude=0.0,
                           noise_schedule="constant", seed=i)
        rep = lyapunov_audit(system, cfg)
        # descent bound holds on every step, pair penalties frozen at its start
        worst_increase_cut = max(worst_increase_cut, rep.max_step_increase_clear)
        worst_delta_cut = max(worst_delta_cut, rep.delta_energy)
    elapsed = time.time() - started
    ok = (worst_increase <= 1e-6 and worst_delta < 0.0
          and worst_increase_cut <= 1e-6 and worst_delta_cut < 0.0 and elapsed < 30.0)
    report(5, "noise-free trajectories never gain energy (20 instances per family)",
           ok, f"max step inc NAE {worst_increase:.2e}, cut {worst_increase_cut:.2e}, {elapsed:.1f}s")


def test_criterion_6_lattice_energy_identities():
    rng = np.random.default_rng(17)
    ok = True
    worst_nae = 0.0
    for k in (2, 3, 4, 5):
        inst, _ = generate_planted_nae(8, 14, k, seed=int(rng.integers(1 << 30)))
        system = NaeSystem.from_instance(inst, coupling=10 / 8, harmonic=5.0)
        bits = np.arange(8)
        spins = 1 - 2 * ((np.arange(256)[:, None] >> bits) & 1)
        energies = system.energy(lattice_state(spins))
        unsat = 14 - np.asarray(count_satisfied(inst, spins))
        expected = (10 / 8) * 2 ** (k - 1) * unsat - (5.0 / 2) * 8
        worst_nae = max(worst_nae, np.max(np.abs(energies - expected)))
    ok = ok and worst_nae < 1e-12
    worst_cut = 0.0
    for k, n in ((2, 10), (3, 8), (4, 7)):
        graph = generate_random_hypergraph(n, 12, 2, 4, seed=int(rng.integers(1 << 30)))
        system = CutSystem.from_hypergraph(graph, k)
        powers = k ** np.arange(n)
        labels = (np.arange(k**n)[:, None] // powers) % k
        energies = system.energy(2 * np.pi * labels / k)
        cut = np.asarray(count_cut(graph, labels))
        expected = system.coupling * (12 - cut) - (system.harmonic / k) * n
        worst_cut = max(worst_cut, np.max(np.abs(energies - expected)) / 12)
    ok = ok and worst_cut < 1e-6
    report(6, "lattice energies match the discrete-count identities (exhaustive)",
           ok, f"max dev NAE {worst_nae:.2e}, cut {worst_cut * 12:.2e}")


def test_criterion_7_nae_sat_reproduction():
    started = time.time()
    inst, _ = generate_planted_nae(20, 50, 4, seed=1)
    system = NaeSystem.from_instance(inst)  # C = 10/8, C_s = 5
    cfg = SolverConfig(dt=NAE_DT, steps=20_000, restarts=20, seed=0,
                       record_every=100, target=50)
    result = run(system, cfg, inst)
    successes = sum(1 for s in result.restarts if s.best_metric == 50)
    elapsed = time.time() - started
    report(7, "20-variable/50-clause planted instance: restarts reaching 50/50",
           successes >= 18 and elapsed < 60.0, f"{successes}/20 restarts, {elapsed:.1f}s")


def test_criterion_8_maxkcut_reproduction():
    started = time.time()
    graph = generate_random_hypergraph(10, 20, 2, 4, seed=1)
    details = []
    ok = True
    for k in (2, 3, 4):
        optimum, _ = brute_force_maxkcut(graph, k)
        system = CutSystem.from_hypergraph(graph, k)
        wins = 0
        for run_seed in range(5):
            cfg = SolverConfig(dt=CUT_DT, steps=20_000, restarts=20, seed=run_seed * 1000,
                               record_every=100, target=optimum)
            result = run(system, cfg, graph)
            wins += result.best_metric == optimum
        details.append(f"K={k}: {wins}/5 runs at optimum {optimum}")
        ok = ok and wins >= 4
    elapsed = time.time() - started
    report(8, "10-node/20-edge hypergraph: 20-restart runs reaching the exact optimum",
           ok and elapsed < 120.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_determinism_from_config_echo(tmp_path):
    instance_path = tmp_path / "instance.cnf"
    main(["generate", "planted-nae", "--vars", "16", "--clauses", "35", "--k", "4",
          "--seed", "5", "--out", str(instance_path)])
    first_out, first_trace = tmp_path / "a.json", tmp_path / "a.csv"
    code = main(["solve", "--problem", "nae-sat", "--input", str(instance_path),
                 "--steps", "3000", "--restarts", "4", "--seed", "11",
                 "--out", str(first_out), "--trace", str(first_trace)])
    assert code == 0
    echo = json.loads(first_out.read_text())["config"]
    second_out, second_trace = tmp_path / "b.json", tmp_path / "b.csv"
    code = main(["solve", "--problem", echo["problem"], "--input", echo["input"],
                 "--coupling", repr(echo["coupling"]), "--harmonic", repr(echo["harmonic"]),
                 "--dt", repr(echo["dt"]), "--steps", str(echo["steps"]),
                 "--noise", repr(echo["noise_amplitude"]), "--schedule", echo["noise_schedule"],
                 "--restarts", str(echo["restarts"]), "--seed", str(echo["seed"]),
                 "--record-every", str(echo["record_every"]),
                 "--out", str(second_out), "--trace", str(second_trace)])
    assert code == 0
    ok = (first_out.read_text() == second_out.read_text()
          and first_trace.read_text() == second_trace.read_text())
    report(9, "rerun from the emitted config echo is bit-identical (result and trace)", ok)

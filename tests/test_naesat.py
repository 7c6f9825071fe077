from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoim.instances import CnfInstance, generate_planted_nae
from hoim.naesat import NaeSystem, default_constants, snap_to_spins
from hoim.oracle import finite_diff_gradient
from hoim.polynomial import build_objective, count_satisfied


def lattice_state(spins):
    """Phase 0 for +1, pi for -1."""
    return np.pi * (1 - np.asarray(spins, dtype=float)) / 2.0


def dense_reference(system):
    """The former all-orders form as (energy, drift): one alternating-sum
    column per term of ``build_objective``, pairs included."""
    inst = system.instance
    terms = build_objective(inst).terms
    pattern = np.zeros((inst.num_vars, len(terms)))
    weights = np.zeros(len(terms))
    for col, (variables, coeff) in enumerate(terms):
        weights[col] = float(coeff) * 2 ** (inst.k - 1)
        for pos, v in enumerate(variables):
            pattern[v - 1, col] = 1.0 if pos % 2 == 0 else -1.0

    def energy(phi):
        coupled = np.cos(phi @ pattern) @ weights + inst.num_clauses
        return system.coupling * coupled - 0.5 * system.harmonic * np.cos(2.0 * phi).sum(axis=-1)

    def drift(phi):
        coupled = (np.sin(phi @ pattern) * weights) @ pattern.T
        return system.coupling * coupled - system.harmonic * np.sin(2.0 * phi)

    return energy, drift


def gradient_error(system, state):
    fd = finite_diff_gradient(system.energy, state, 1e-6)
    drift = system.drift(state)
    return np.max(np.abs(drift + fd)) / np.max(np.abs(drift))


@pytest.mark.parametrize("order", [2, 4, 6])
def test_alternating_cosine_equals_spin_product_exhaustive(order):
    # cos of the alternating phase sum vs the plain spin product, all
    # 2^order binary configurations, exact.
    for spins in product([-1, 1], repeat=order):
        phi = lattice_state(spins)
        alternating = sum(p * s for p, s in zip(phi, [1, -1] * (order // 2)))
        assert np.cos(alternating) == float(np.prod(spins))


def test_lattice_energy_identity_small_instances():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4, 5):
        n, m = 8, 12
        inst, _ = generate_planted_nae(n, m, k, seed=int(rng.integers(1 << 30)))
        system = NaeSystem.from_instance(inst, coupling=1.25, harmonic=5.0)
        for _ in range(30):
            spins = rng.choice([-1, 1], size=n)
            unsat = m - count_satisfied(inst, spins)
            expected = 1.25 * 2 ** (k - 1) * unsat - (5.0 / 2) * n
            assert abs(system.energy(lattice_state(spins)) - expected) < 1e-12


def test_fig_scale_energy_at_plant():
    inst, plant = generate_planted_nae(20, 50, 4, seed=1)
    system = NaeSystem.from_instance(inst)  # C = 10/8, C_s = 5
    assert abs(system.energy(lattice_state(plant)) - (-50.0)) < 1e-12


def test_single_all_equal_clause_contribution():
    inst = CnfInstance(4, ((1, 2, 3, 4),))
    system = NaeSystem.from_instance(inst, coupling=1.25, harmonic=5.0)
    energy = system.energy(lattice_state([1, 1, 1, 1]))
    assert abs(energy - (1.25 * 8 - 2.5 * 4)) < 1e-12


def test_global_flip_symmetry():
    inst, _ = generate_planted_nae(10, 20, 4, seed=2)
    system = NaeSystem.from_instance(inst)
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi, 10)
        assert abs(system.energy(phi) - system.energy(phi + np.pi)) < 1e-9


def test_lattice_states_are_stationary():
    inst, _ = generate_planted_nae(10, 20, 4, seed=3)
    system = NaeSystem.from_instance(inst)
    rng = np.random.default_rng(1)
    for _ in range(10):
        spins = rng.choice([-1, 1], size=10)
        assert np.max(np.abs(system.drift(lattice_state(spins)))) < 1e-12


def test_drift_hand_example_two_phases():
    # single width-2 clause (+1, +2), phi = (0, pi/2), C = 1, C_s = 0:
    # drift = (sin(phi1 - phi2), -sin(phi1 - phi2)) = (-1, +1)
    inst = CnfInstance(2, ((1, 2),))
    system = NaeSystem.from_instance(inst, coupling=1.0, harmonic=0.0)
    drift = system.drift(np.array([0.0, np.pi / 2]))
    assert np.allclose(drift, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_drift_is_negative_gradient(k):
    inst, _ = generate_planted_nae(10, 15, k, seed=40 + k)
    system = NaeSystem.from_instance(inst)
    rng = np.random.default_rng(k)
    for _ in range(100):
        state = rng.uniform(0, 2 * np.pi, 10)
        assert gradient_error(system, state) < 1e-5


def test_energy_drift_batched_agree_with_single():
    inst, _ = generate_planted_nae(8, 12, 4, seed=6)
    system = NaeSystem.from_instance(inst)
    rng = np.random.default_rng(2)
    batch = rng.uniform(0, 2 * np.pi, (5, 8))
    energies = system.energy(batch)
    drifts = system.drift(batch)
    for row in range(5):
        assert energies[row] == pytest.approx(system.energy(batch[row]), abs=1e-12)
        assert np.allclose(drifts[row], system.drift(batch[row]), atol=1e-12)


def test_snap_to_spins():
    assert np.array_equal(snap_to_spins([0.05, 3.10]), [1, -1])
    # documented tie-breaks: pi/2 and 3pi/2 snap to +1
    assert np.array_equal(snap_to_spins([np.pi / 2, 3 * np.pi / 2]), [1, 1])
    assert np.array_equal(snap_to_spins([np.pi / 2 + 1e-6]), [-1])


def test_snap_recovers_plant_from_its_lattice():
    inst, plant = generate_planted_nae(15, 30, 4, seed=8)
    assert np.array_equal(snap_to_spins(lattice_state(plant)), plant)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_weights_are_the_exact_scaled_objective(k):
    # J's upper triangle, then the (tuple, weight) columns of orders >= 4, are
    # the objective's terms times 2^(K-1), exactly and in the same order
    inst, _ = generate_planted_nae(k + 4, 12, k, seed=80 + k)
    system = NaeSystem.from_instance(inst)
    pairs = system._pairs
    assert np.array_equal(pairs, pairs.T)
    assert not pairs.diagonal().any()
    assert np.array_equal(pairs, np.round(pairs))
    couplings = [((int(a) + 1, int(b) + 1), Fraction(pairs[a, b]))
                 for a, b in zip(*np.nonzero(np.triu(pairs)))]
    for column, weight in zip(system._pattern.T, system._weights):
        members = np.flatnonzero(column)
        assert np.array_equal(column[members], (-1.0) ** np.arange(len(members)))
        couplings.append((tuple(int(v) + 1 for v in members), Fraction(weight)))
    assert couplings == [(vs, c * 2 ** (k - 1)) for vs, c in build_objective(inst).terms]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("batch", [(), (4,), (2, 4)])
def test_agrees_with_dense_alternating_form(k, batch):
    # K = 2 and 3 have no terms past the pairs: the pattern is empty
    inst, _ = generate_planted_nae(k + 6, 20, k, seed=100 + k)
    system = NaeSystem.from_instance(inst)
    energy, drift = dense_reference(system)
    phi = np.random.default_rng(k).uniform(0, 2 * np.pi, (*batch, inst.num_vars))
    for new, old in ((system.energy(phi), energy(phi)), (system.drift(phi), drift(phi))):
        assert np.shape(new) == np.shape(old)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
    if not batch:
        assert type(system.energy(phi)) is float


@st.composite
def small_nae_problems(draw):
    """A CNF of width K in 2..6 on K..8 variables with 1..10 clauses, and phases."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 8))
    variables = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k)
    clause = st.tuples(variables, signs).map(lambda vs: tuple(v * s for v, s in zip(*vs)))
    clauses = draw(st.lists(clause, min_size=1, max_size=10))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    return NaeSystem.from_instance(CnfInstance(n, tuple(clauses))), np.array(phases)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_nae_problems())
def test_drift_is_negative_gradient_on_random_formulas(problem):
    system, state = problem
    fd = finite_diff_gradient(system.frozen_energy(state), state, 1e-6)
    drift = system.drift(state)
    # relative to the drift, floored at 1 where the drift vanishes (e.g. on
    # the lattice) and the ratio would only measure finite-difference rounding
    assert np.max(np.abs(drift + fd)) / max(np.max(np.abs(drift)), 1.0) < 1e-4


def test_default_constants_flag():
    assert default_constants(4) == (1.25, 5.0, True)
    c, cs, tabulated = default_constants(3)
    assert (c, cs) == (1.25, 5.0) and not tabulated


@pytest.mark.parametrize("k", [6, 7, 8])
def test_wide_clause_extension(k):
    # widths past the hand-checked orders reuse the same parity rule; the
    # lattice identity and the gradient must still hold
    inst, _ = generate_planted_nae(k + 2, 6, k, seed=60 + k)
    system = NaeSystem.from_instance(inst, coupling=1.0, harmonic=2.0)
    rng = np.random.default_rng(k)
    for _ in range(10):
        spins = rng.choice([-1, 1], size=k + 2)
        unsat = 6 - count_satisfied(inst, spins)
        expected = 2 ** (k - 1) * unsat - 1.0 * (k + 2)
        assert abs(system.energy(lattice_state(spins)) - expected) < 1e-9
    for _ in range(10):
        state = rng.uniform(0, 2 * np.pi, k + 2)
        assert gradient_error(system, state) < 1e-5


def test_clause_width_cap():
    wide = CnfInstance(9, (tuple(range(1, 10)),))
    with pytest.raises(ValueError, match="width"):
        build_objective(wide)
    with pytest.raises(ValueError, match="width"):
        NaeSystem.from_instance(wide)

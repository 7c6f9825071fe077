from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

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


def assert_exact_scaled_objective(system):
    """Dense form: J's upper triangle, then the stored order >= 4 weights
    summed per tuple (zero sums dropped, sorted by order and tuple), are the
    objective's terms times 2^(K-1), exactly.  The stored terms are unmerged:
    each order holds every clause's r-subsets of its literals, in clause
    order, M * C(K, r) rows, each weighted by its sign product; the dense
    pattern holds those tuples' columns.  Index form: see
    ``assert_exact_clause_tables``."""
    if system._pattern is None:
        assert_exact_clause_tables(system)
        return
    inst = system.instance
    pairs = system._pairs
    assert np.array_equal(pairs, pairs.T)
    assert not pairs.diagonal().any()
    assert np.array_equal(pairs, np.round(pairs))
    couplings = [((int(a) + 1, int(b) + 1), Fraction(pairs[a, b]))
                 for a, b in zip(*np.nonzero(np.triu(pairs)))]
    orders = range(4, inst.k + 1, 2)
    assert [len(t) for t in system._tuples] == [inst.num_clauses * comb(inst.k, r) for r in orders]
    tuples = [row for t in system._tuples for row in t]
    assert len(tuples) == len(system._weights)
    stored = [(tuple(int(v) for v in members), weight) for members, weight in zip(tuples, system._weights)]
    assert stored == [(tuple(abs(lit) - 1 for lit in subset), prod(1 if lit > 0 else -1 for lit in subset))
                      for r in orders for clause in inst.clauses
                      for subset in combinations(sorted(clause, key=abs), r)]
    summed = {}
    for members, weight in zip(tuples, system._weights):
        assert np.all(np.diff(members) > 0)
        key = tuple(int(v) + 1 for v in members)
        summed[key] = summed.get(key, 0) + Fraction(weight)
    couplings += sorted(((vs, w) for vs, w in summed.items() if w), key=lambda term: (len(term[0]), term[0]))
    assert couplings == [(vs, c * 2 ** (inst.k - 1)) for vs, c in build_objective(inst).terms]
    pattern = np.zeros((inst.num_vars, len(tuples)))
    for column, members in enumerate(tuples):
        pattern[members, column] = (-1.0) ** np.arange(len(members))
    assert np.array_equal(system._pattern, pattern)


def assert_exact_clause_tables(system):
    """The index form holds no N x N matrix: its (K, M) slot and sign tables
    are ``clause_arrays`` transposed, its terms, read as position pairs, are
    every ascending r-subset of the K positions, r = 4, 6, ... in turn, each
    slot lists the terms that read it, by position parity, and the energy at
    lattice states is C * 2^(K-1) * (#unsatisfied) - (C_s/2) * N."""
    inst = system.instance
    variables, signs = inst.clause_arrays
    assert not hasattr(system, "_pairs")
    assert np.array_equal(system._slots, variables.T) and np.array_equal(system._signs, signs.T)
    expected = [t for r in range(4, inst.k + 1, 2) for t in combinations(range(inst.k), r)]
    pairs, orders, members = system._terms
    terms = []
    for span, ids in orders:
        terms += [tuple(pairs[:, row].T.ravel().tolist()) for row in ids]
        assert (span.start, span.stop) == (len(terms) - len(ids), len(terms))
    assert terms == expected
    for slot, entries in enumerate(members):
        assert entries.tolist() == [t + len(expected) * (term.index(slot) % 2)
                                    for t, term in enumerate(expected) if slot in term]
    spins = np.random.default_rng(inst.num_vars).choice([-1, 1], size=(20, inst.num_vars))
    unsat = inst.num_clauses - count_satisfied(inst, spins)
    expected = system.coupling * 2 ** (inst.k - 1) * unsat - 0.5 * system.harmonic * inst.num_vars
    assert np.max(np.abs(system.energy(lattice_state(spins)) - expected)) < 1e-9


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_weights_are_the_exact_scaled_objective(k):
    inst, _ = generate_planted_nae(k + 4, 12, k, seed=80 + k)
    assert_exact_scaled_objective(NaeSystem.from_instance(inst))


# (K, N, M) past the dense cutoff: each takes the index form
INDEX_SIZES = [(2, 300, 600), (3, 300, 750), (4, 300, 750), (5, 300, 200), (6, 300, 100), (7, 300, 60),
               (8, 320, 40)]


@pytest.mark.parametrize("k, n, m", INDEX_SIZES)
def test_index_form_holds_the_exact_scaled_objective(k, n, m):
    system = NaeSystem.from_instance(generate_planted_nae(n, m, k, seed=90 + k)[0])
    assert system._pattern is None
    assert_exact_scaled_objective(system)


def assert_agrees_with_dense_reference(system, phi):
    """Energy and drift within 1e-12 of ``dense_reference``, relative to its largest entry."""
    energy, drift = dense_reference(system)
    for new, old in ((system.energy(phi), energy(phi)), (system.drift(phi), drift(phi))):
        assert np.shape(new) == np.shape(old)
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@pytest.mark.parametrize("k, n, m", [(k, k + 6, 20) for k in range(2, 9)] + INDEX_SIZES,
                         ids=[str(k) for k in range(2, 9)] + ["-".join(map(str, s)) for s in INDEX_SIZES])
@pytest.mark.parametrize("batch", [(), (4,), (2, 4)])
def test_agrees_with_dense_alternating_form(k, n, m, batch):
    # K = 2 and 3 have no terms past the pairs: the pattern is empty
    inst, _ = generate_planted_nae(n, m, k, seed=100 + k)
    system = NaeSystem.from_instance(inst)
    phi = np.random.default_rng(k).uniform(0, 2 * np.pi, (*batch, inst.num_vars))
    assert_agrees_with_dense_reference(system, phi)
    if not batch:
        assert type(system.energy(phi)) is float


@pytest.mark.parametrize("k, n, m, dense", [
    (2, 1000, 2500, False), (3, 1000, 2500, False),  # no orders >= 4: no product step
    (4, 20, 50, True), (4, 200, 500, True), (4, 256, 640, True),
    (4, 257, 640, False), (4, 300, 750, False), (4, 1000, 2500, False), (8, 290, 40, False),
])
def test_dense_cutoff(k, n, m, dense):
    # every width keeps J and the pattern up to N = DENSE_N = 256
    system = NaeSystem.from_instance(generate_planted_nae(n, m, k, seed=3)[0])
    assert (system._pattern is not None) == dense
    assert hasattr(system, "_pairs") == dense  # the index form holds no N x N matrix
    if dense:
        assert system._pattern.shape == (n, len(system._weights))


@pytest.mark.parametrize("k, n, m", INDEX_SIZES)
@pytest.mark.parametrize("batch", [(20,), (2, 4)])
def test_index_form_is_batch_invariant(k, n, m, batch):
    system = NaeSystem.from_instance(generate_planted_nae(n, m, k, seed=110 + k)[0])
    assert_batch_invariant(system, np.random.default_rng(k).uniform(0, 2 * np.pi, (*batch, n)))


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_one_clause_index_form_is_batch_invariant(k):
    # a solo call on one clause holds one value per term row: its sums over the
    # terms must still add row by row, as a batch's do
    system = NaeSystem.from_instance(CnfInstance(300, (tuple(range(1, k + 1)),)))
    assert system._pattern is None
    assert_batch_invariant(system, np.random.default_rng(k).uniform(0, 2 * np.pi, (20, 300)))


def assert_batch_invariant(system, phi):
    """Each batch row of ``drift(phi, energy=True)`` equals its solo evaluation bit for bit."""
    n = system.num_spins
    drifts, energies = system.drift(phi, energy=True)
    for state, drift, energy in zip(phi.reshape(-1, n), drifts.reshape(-1, n), energies.reshape(-1)):
        solo_drift, solo_energy = system.drift(state, energy=True)
        assert np.array_equal(drift, solo_drift) and energy == solo_energy


def with_repeated_and_cancelling_clauses(inst):
    """``inst`` plus a second copy of its first clause and a copy of its second
    clause with one literal's sign flipped, whose order-4 terms cancel that
    clause's own: the stored terms then hold a tuple twice and a tuple whose
    weights sum to 0."""
    first, second = inst.clauses[:2]
    flipped = (-second[0],) + second[1:]
    return CnfInstance(inst.num_vars, inst.clauses + (first, flipped))


# (N, M) of a desk CNF, small enough for every spin state, and of one past the
# dense cutoff; K = 4
REPEATED_SIZES = [(12, 30), (300, 750)]


@pytest.mark.parametrize("n, m", REPEATED_SIZES, ids=["desk", "index"])
@pytest.mark.parametrize("batch", [(), (4,), (2, 4)])
def test_repeated_and_cancelling_clauses_agree_with_dense_form(n, m, batch):
    inst = with_repeated_and_cancelling_clauses(generate_planted_nae(n, m, 4, seed=120)[0])
    system = NaeSystem.from_instance(inst)
    assert (system._pattern is None) == (n > 256)
    assert_exact_scaled_objective(system)
    assert_agrees_with_dense_reference(system, np.random.default_rng(n).uniform(0, 2 * np.pi, (*batch, n)))


def test_repeated_and_cancelling_clauses_lattice_energy_exhaustive():
    inst = with_repeated_and_cancelling_clauses(generate_planted_nae(12, 30, 4, seed=120)[0])
    system = NaeSystem.from_instance(inst, coupling=1.25, harmonic=5.0)
    spins = np.array(list(product([-1, 1], repeat=12)))
    unsat = inst.num_clauses - count_satisfied(inst, spins)
    assert np.max(np.abs(system.energy(lattice_state(spins)) - (1.25 * 8 * unsat - 2.5 * 12))) < 1e-12


@pytest.mark.parametrize("batch", [(20,), (2, 4)])
def test_repeated_and_cancelling_clauses_index_form_is_batch_invariant(batch):
    # K = 6 has orders 4 and 6, each multiplied out on its own
    for k, n, m in [(4, 300, 750), (6, 300, 100)]:
        inst = with_repeated_and_cancelling_clauses(generate_planted_nae(n, m, k, seed=120)[0])
        system = NaeSystem.from_instance(inst)
        assert system._pattern is None and len(system._terms[1]) == k // 2 - 1
        assert_batch_invariant(system, np.random.default_rng(3).uniform(0, 2 * np.pi, (*batch, n)))


def test_index_form_drift_is_negative_gradient_and_lattice_energy_exact():
    inst, plant = generate_planted_nae(300, 750, 4, seed=12)
    system = NaeSystem.from_instance(inst)
    assert system._pattern is None
    state = np.random.default_rng(12).uniform(0, 2 * np.pi, 300)
    assert gradient_error(system, state) < 1e-5
    # the plant satisfies every clause: E = -(C_s/2) N
    assert abs(system.energy(lattice_state(plant)) - (-2.5 * 300)) < 1e-9
    assert np.max(np.abs(system.drift(lattice_state(plant)))) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.floats(-20.0, 20.0), st.integers(-3, 3)), min_size=1, max_size=20))
def test_snap_to_spins_idempotent_on_lattice(draws):
    # 0 and pi, in any period, snap to their own spins
    phases, turns = np.array(draws).T
    spins = snap_to_spins(phases)
    assert set(np.unique(spins)) <= {-1, 1}
    lattice = lattice_state(spins)
    assert np.array_equal(snap_to_spins(lattice), spins)
    assert np.array_equal(snap_to_spins(lattice + 2 * np.pi * turns), spins)


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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_nae_problems())
def test_weights_are_the_exact_scaled_objective_on_random_formulas(problem):
    # literals in any order, repeated clauses and pair terms that cancel to 0
    system, _state = problem
    assert_exact_scaled_objective(system)


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

import operator
import tracemalloc
import warnings
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hoim.hypercut import (
    SIGMA_MIN,
    CutSystem,
    count_cut,
    default_constants,
    phase_penalty,
    snap_to_labels,
    wrap_angle,
)
from hoim.instances import CnfInstance, Hypergraph, generate_random_hypergraph
from hoim.naesat import NaeSystem, _index_scatter, snap_to_spins
from hoim.oracle import finite_diff_gradient
from hoim.polynomial import count_satisfied

SIGMA = 1e-3


def label_state(labels, k):
    return 2.0 * np.pi * np.asarray(labels, dtype=float) / k


def is_uncut(labels, edge):
    values = [labels[n - 1] for n in edge]
    return all(v == values[0] for v in values)


def pair_factor(phi_i, phi_j, system):
    """Scalar pair factor: 1 for phases at the same lattice label, 0 at
    different labels (up to smoothing error of order sigma)."""
    delta = wrap_angle(phi_i - phi_j)
    shift = phase_penalty(delta, system.k_partitions, system.sigma)
    return float(0.5 * (1.0 + np.cos(delta + shift)))


def hyperedge_indicator(system, edge, phases):
    """Product of pair factors inside one hyperedge (1 = uncut)."""
    phi = np.asarray(phases, dtype=float)
    value = 1.0
    for a, b in combinations(edge, 2):
        value *= pair_factor(phi[a - 1], phi[b - 1], system)
    return value


def all_bump_penalty(delta, k, sigma):
    """Reference f: the sum over all 2(K-1) Gaussian bumps at +-2*pi*j/K."""
    d = np.asarray(delta, dtype=float)[..., None]
    j = np.arange(1, k)
    centers = 2.0 * np.pi * j / k
    amplitudes = (2.0 * j - 1.0) * np.pi - centers
    bumps = np.exp(-((d - centers) ** 2) / (2.0 * sigma**2))
    bumps -= np.exp(-((d + centers) ** 2) / (2.0 * sigma**2))
    return (amplitudes * bumps).sum(axis=-1)


def test_wrap_angle_principal_range():
    x = np.array([np.pi, -np.pi, 0.0, 3 * np.pi / 2, -3 * np.pi / 2, 2 * np.pi])
    w = wrap_angle(x)
    assert np.all((w > -np.pi) & (w <= np.pi))
    assert w[0] == np.pi and w[1] == np.pi  # -pi maps onto +pi
    assert np.allclose(w[3:], [-np.pi / 2, np.pi / 2, 0.0])


def test_phase_penalty_k3_shifts_to_minus_one():
    f = phase_penalty(2 * np.pi / 3, 3, SIGMA)
    assert abs(f - np.pi / 3) < 1e-9
    assert abs(np.cos(2 * np.pi / 3 + f) + 1.0) < 1e-9


def test_phase_penalty_zero_at_origin():
    assert abs(phase_penalty(0.0, 3, SIGMA)) < 1e-12
    assert abs(phase_penalty(0.0, 4, SIGMA)) < 1e-12


def test_phase_penalty_k4_negative_bump():
    f = phase_penalty(-np.pi / 2, 4, SIGMA)
    assert abs(f + np.pi / 2) < 1e-9
    assert abs(np.cos(-np.pi / 2 + f) + 1.0) < 1e-9


def test_phase_penalty_vanishes_for_two_partitions():
    # for K = 2 every bump amplitude is pi - pi = 0
    deltas = np.linspace(-np.pi, np.pi, 101)
    assert np.all(phase_penalty(deltas, 2, SIGMA) == 0.0)


def test_phase_penalty_antisymmetric():
    deltas = np.linspace(-3, 3, 41)
    for k in (3, 4, 5):
        f = phase_penalty(deltas, k, SIGMA)
        assert np.allclose(f, -phase_penalty(-deltas, k, SIGMA), atol=1e-12)


@pytest.mark.parametrize("k", range(2, 9))
def test_nearest_bump_matches_all_bump_sum(k):
    rng = np.random.default_rng(20 + k)
    lattice = 2 * np.pi * np.arange(1, k) / k
    lattice = lattice[lattice <= np.pi]
    for sigma in (SIGMA, 0.99 * 2 * np.pi / (8 * k)):
        on_bump = (lattice[:, None] + sigma * np.array([-3.0, -1.0, 0.0, 1.0, 3.0])).ravel()
        on_bump = on_bump[on_bump <= np.pi]
        deltas = np.concatenate([rng.uniform(-np.pi, np.pi, 2000), on_bump, -on_bump])
        diff = np.abs(phase_penalty(deltas, k, sigma) - all_bump_penalty(deltas, k, sigma))
        # every omitted bump is at least pi/K from the nearest one
        bound = 1e-300 if sigma == SIGMA else 2 * np.pi * k * np.exp(-(np.pi / k) ** 2 / (2 * sigma**2))
        assert diff.max() <= bound


def make_system(graph, k, sigma=SIGMA, coupling=None, harmonic=None):
    return CutSystem.from_hypergraph(graph, k, coupling=coupling, harmonic=harmonic, sigma=sigma)


def slot_factors_and_gains(system, phi):
    """Pair factors and drift gains (A/2) sin(d + f) at the edge slots,
    node-major: (W, M, ...) for phases of shape (..., N)."""
    angles = system._pair_angles(np.asarray(phi).T)
    factors = 0.5 * (1.0 + np.cos(angles))
    gains = 0.5 * system.coupling * np.sin(angles)
    return factors[system._slots], gains[system._slots]


def assert_pads_exact(system, num_pairs, num_pads):
    assert system._pair_i.size == num_pairs + 1  # pair 0 is the pad
    pad = system._slots == 0
    assert pad.sum() == num_pads
    phi = np.random.default_rng(21).uniform(0, 2 * np.pi, (4, system.num_spins))
    factors, gains = slot_factors_and_gains(system, phi)
    assert np.all(factors[pad] == 1.0)
    assert np.all(gains[pad] == 0.0)  # the pair's drift gain
    # a pad position, past its edge's size, reads only pad slots, so it adds
    # +-0, and it adds it to its edge's first node; the scatter numbers the
    # node slots position-major, item p*M + m
    nodes, (w, m) = system.instance.edge_nodes, pad.shape
    sizes = np.array([len(e) for e in system.instance.hyperedges])
    counts = np.diff(np.r_[system._segments, len(system._scatter)])
    receiver = np.empty_like(system._scatter)
    receiver[system._scatter] = np.repeat(np.arange(system.num_spins), counts)
    for p, edge in zip(*np.nonzero(np.arange(nodes.shape[1])[:, None] >= sizes)):
        assert pad[system._members[p] % w, edge].all()
        assert receiver[p * m + edge] == nodes[edge, 0]


def test_padding_pairs_are_exact_identities():
    # the 2-node edge is padded to the 4-node edge's 6 slots; no pair repeats
    assert_pads_exact(make_system(Hypergraph(5, ((1, 2), (2, 3, 4, 5))), 3), 7, 5)


def test_padding_pairs_exact_when_node_1_is_in_no_edge():
    # the pad pair (node 1 with itself) reads d = 0 even though node 1 is free
    assert_pads_exact(make_system(Hypergraph(5, ((2, 3), (2, 4, 5))), 3), 4, 2)


@pytest.mark.parametrize("edges", [
    # a 2-, 3- and 4-node edge share pairs (2, 3) and (1, 3); the 3-node edge
    # holds real pairs in slots 0, 1 and 3 of 6, with pads between them
    ((2, 3), (1, 2, 3), (1, 3, 5, 6), (4, 6)),
    # every slot holds a real pair: pair 0 is still the pad, and no slot uses it
    ((1, 2, 3), (2, 3, 4), (3, 4, 5)),
])
def test_pair_table_holds_each_slots_node_pair(edges):
    # slot s of an edge is position pair s, lexicographic over the widest edge;
    # a real slot holds its edge's node pair and a pad slot pair 0 = (0, 0)
    graph = Hypergraph(max(map(max, edges)), edges)
    system = make_system(graph, 3)
    pairs = np.stack([system._pair_i, system._pair_j], axis=-1)
    assert tuple(pairs[0]) == (0, 0)
    for m, edge in enumerate(edges):
        for s, (a, b) in enumerate(combinations(range(graph.max_edge_size), 2)):
            expected = (edge[a] - 1, edge[b] - 1) if b < len(edge) else (0, 0)
            assert tuple(pairs[system._slots[s, m]]) == expected
            assert (system._slots[s, m] == 0) == (b >= len(edge))
    distinct = {(i - 1, j - 1) for e in edges for i, j in combinations(e, 2)}
    assert sorted(map(tuple, pairs[1:].tolist())) == sorted(distinct)


def padded_reference(system, phases, state):
    """The former per-slot evaluation: wrap, penalty, cos and sin for every
    one of the (M, W) edge slots, slot s being position pair s (a, b) of the
    largest edge size S in lexicographic order; a slot past its edge's size
    reads (first node, first node).  Position p of an edge adds +g of its
    slots (p, b), then -g of its slots (a, p), one at a time, and the (S, M)
    node-slot sums go through the shared index scatter, each node's run
    summed in one reduceat segment, as the system does.  Returns the energy
    and drift at ``phases`` and the energy there with f frozen at ``state``."""
    graph, k = system.instance, system.k_partitions
    size = graph.max_edge_size
    slots = list(combinations(range(size), 2))
    padded = np.array([e + e[:1] * (size - len(e)) for e in graph.hyperedges], dtype=np.intp) - 1
    real = np.array([[b < len(e) for _, b in slots] for e in graph.hyperedges])
    pair_i, pair_j = (np.where(real, padded[:, [slot[c] for slot in slots]], padded[:, :1]) for c in (0, 1))
    scatter, segments = _index_scatter(padded.T.ravel(), graph.num_nodes)

    def row_sum(x):
        return np.add.reduceat(x, [0], axis=-1)[..., 0]

    def geometry(phi, penalties=None):
        deltas = wrap_angle(phi[..., pair_i] - phi[..., pair_j])
        if penalties is None:
            penalties = phase_penalty(deltas, k, system.sigma)
        return deltas, penalties, 0.5 * (1.0 + np.cos(deltas + penalties))

    def energy(phi, penalties=None):
        factors = geometry(phi, penalties)[2]
        pinning = (system.harmonic / k) * row_sum(np.cos(k * phi))
        return system.coupling * row_sum(factors.prod(axis=-1)) - pinning

    deltas, penalties, factors = geometry(phases)
    gain = 0.5 * system.coupling * np.sin(deltas + penalties)
    others = np.ones_like(factors)
    np.cumprod(factors[..., :-1], axis=-1, out=others[..., 1:])
    gain *= others
    np.cumprod(factors[..., :0:-1], axis=-1, out=others[..., -2::-1])
    others[..., -1] = 1.0
    gain *= others
    node_slots = [reduce(operator.add, [gain[..., s] for s, (a, _) in enumerate(slots) if a == p]
                         + [-gain[..., s] for s, (_, b) in enumerate(slots) if b == p])
                  for p in range(size)]
    table = np.stack(node_slots, axis=-1).T  # (S, M, ...), node-major as the system reads phases
    table = np.concatenate([table.reshape(-1, *table.shape[2:]), np.zeros((graph.num_nodes, *table.shape[2:]))])
    drift = np.add.reduceat(table[scatter], segments, axis=0).T - system.harmonic * np.sin(k * phases)
    return energy(phases), drift, energy(phases, geometry(state)[1])


@st.composite
def overlapping_cut_batches(draw):
    """Hypergraphs on 3..8 nodes with up to 30 edges of 2..5 nodes (so pairs
    repeat across edges), K in 2..4, and a phase batch of shape (n,), (R, n)
    or (2, R, n) with a second batch of the same shape to freeze f at; each
    phase is uniform in [0, 2*pi], on the label lattice, or any finite value
    in [-1e3, 1e3] (where the pad pair's d must still be exactly 0)."""
    n = draw(st.integers(3, 8))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=min(5, n), unique=True)
    edges = draw(st.lists(edge.map(tuple), min_size=1, max_size=30))
    k = draw(st.integers(2, 4))
    restarts = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(n,), (restarts, n), (2, restarts, n)]))
    phase = (st.floats(0.0, 2 * np.pi) | st.integers(0, k - 1).map(lambda j: 2 * np.pi * j / k)
             | st.floats(-1e3, 1e3))
    phases, state = draw(arrays(float, shape, elements=phase)), draw(arrays(float, shape, elements=phase))
    return make_system(Hypergraph(n, tuple(edges)), k), phases, state


@settings(derandomize=True, deadline=None, max_examples=200)
@given(overlapping_cut_batches())
def test_distinct_pairs_match_padded_reference(problem):
    system, phases, state = problem
    distinct = {pair for e in system.instance.hyperedges for pair in combinations(e, 2)}
    assert system._pair_i.size == len(distinct) + 1
    assert (system._pair_i[0], system._pair_j[0]) == (0, 0)  # the pad pair
    energy, drift, frozen = padded_reference(system, phases, state)
    assert np.array_equal(system.energy(phases), energy)
    assert np.array_equal(system.drift(phases), drift)
    assert np.array_equal(system.frozen_energy(state)(phases), frozen)


def masked_all_bump_energy_drift(system, phases):
    """Reference energy and drift: all-bump f, padding pairs masked out."""
    graph, k = system.instance, system.k_partitions
    width = max(len(e) * (len(e) - 1) // 2 for e in graph.hyperedges)
    pair_i, pair_j = np.zeros((2, graph.num_edges, width), dtype=int)
    mask = np.zeros((graph.num_edges, width), dtype=bool)
    for row, edge in enumerate(graph.hyperedges):
        for col, (a, b) in enumerate(combinations(edge, 2)):
            pair_i[row, col], pair_j[row, col], mask[row, col] = a - 1, b - 1, True
    scatter = np.zeros((pair_i.size, graph.num_nodes))
    rows = np.flatnonzero(mask)
    scatter[rows, pair_i.ravel()[rows]] += 1.0
    scatter[rows, pair_j.ravel()[rows]] -= 1.0
    deltas = wrap_angle(phases[..., pair_i] - phases[..., pair_j])
    penalties = all_bump_penalty(deltas, k, system.sigma)
    factors = np.where(mask, 0.5 * (1.0 + np.cos(deltas + penalties)), 1.0)
    pinning = (system.harmonic / k) * np.cos(k * phases).sum(axis=-1)
    energy = system.coupling * factors.prod(axis=-1).sum(axis=-1) - pinning
    ones = np.ones_like(factors[..., :1])
    prefix = np.concatenate([ones, np.cumprod(factors, axis=-1)[..., :-1]], axis=-1)
    rev = np.cumprod(factors[..., ::-1], axis=-1)[..., ::-1]
    suffix = np.concatenate([rev[..., 1:], ones], axis=-1)
    gain = np.where(mask, 0.5 * system.coupling * np.sin(deltas + penalties) * prefix * suffix, 0.0)
    drift = gain.reshape(*gain.shape[:-2], -1) @ scatter - system.harmonic * np.sin(k * phases)
    return energy, drift


@pytest.mark.parametrize("k", [2, 3, 4])
def test_energy_drift_match_masked_all_bump_form(k):
    graph = generate_random_hypergraph(10, 20, 2, 5, seed=17)
    system = make_system(graph, k)
    rng = np.random.default_rng(30 + k)
    phi = rng.uniform(0, 2 * np.pi, (3, 20, 10))
    energy, drift = masked_all_bump_energy_drift(system, phi)
    assert np.max(np.abs(system.energy(phi) - energy)) <= 1e-12
    assert np.max(np.abs(system.drift(phi) - drift)) <= 1e-12
    # The reference shares wrap_angle because f's slope, of order 1/sigma,
    # turns a last-bit change in a difference into ~1e-11 near a bump; the
    # wrap is checked against the np.mod form on its own.
    x = rng.uniform(-2 * np.pi, 2 * np.pi, 1000)
    assert np.max(np.abs(wrap_angle(x) - (np.pi - np.mod(np.pi - x, 2 * np.pi)))) <= 1e-14


def test_pair_factor_lattice_values():
    graph = Hypergraph(2, ((1, 2),))
    for k in (2, 3, 4):
        system = make_system(graph, k)
        for ki in range(k):
            for kj in range(k):
                value = pair_factor(2 * np.pi * ki / k, 2 * np.pi * kj / k, system)
                want = 1.0 if ki == kj else 0.0
                assert abs(value - want) < 1e-6


def test_pair_factor_k2_is_quadratic_maxcut_factor():
    graph = Hypergraph(2, ((1, 2),))
    system = make_system(graph, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        assert pair_factor(a, b, system) == pytest.approx((1 + np.cos(a - b)) / 2, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_hyperedge_indicator_matches_discrete_predicate(k, size):
    edge = tuple(range(1, size + 1))
    graph = Hypergraph(size, (edge,))
    system = make_system(graph, k)
    for labels in product(range(k), repeat=size):
        phi = label_state(labels, k)
        value = hyperedge_indicator(system, edge, phi)
        want = 1.0 if is_uncut(labels, edge) else 0.0
        assert abs(value - want) < 1e-6


def test_count_cut_basics():
    graph = Hypergraph(3, ((1, 2, 3),))
    assert count_cut(graph, [0, 1, 0]) == 1
    assert count_cut(graph, [1, 1, 1]) == 0


def test_count_cut_matches_indicator_sum_exhaustive():
    graph = generate_random_hypergraph(6, 10, 2, 4, seed=3)
    for k in (2, 3):
        system = make_system(graph, k)
        for labels in product(range(k), repeat=6):
            phi = label_state(labels, k)
            indicator_sum = sum(hyperedge_indicator(system, e, phi) for e in graph.hyperedges)
            assert abs(indicator_sum - (10 - count_cut(graph, labels))) < 1e-6 * 10


def test_count_cut_vectorised_matches_edge_loop():
    graph = generate_random_hypergraph(9, 15, 2, 5, seed=22)
    labels = np.random.default_rng(23).integers(0, 3, (4, 5, 9))
    want = np.zeros((4, 5), dtype=int)
    for idx in np.ndindex(4, 5):
        for edge in graph.hyperedges:
            want[idx] += len({labels[idx][n - 1] for n in edge}) > 1
    assert np.array_equal(count_cut(graph, labels), want)
    assert count_cut(graph, labels[2, 3]) == want[2, 3]


@st.composite
def labelled_hypergraphs(draw, values=None):
    """A hypergraph on 2..8 nodes and labels of batch shape (B1, B2), drawn
    from ``values``, by default 0..K-1 for a K in 2..4."""
    n = draw(st.integers(2, 8))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True)
    graph = Hypergraph(n, tuple(map(tuple, draw(st.lists(edge, min_size=1, max_size=12)))))
    if values is None:
        values = st.integers(0, draw(st.integers(2, 4)) - 1)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), n)
    return graph, draw(arrays(int, shape, elements=values))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(labelled_hypergraphs(values=st.integers(-3, 3)))
def test_count_cut_matches_set_based_scorer_on_any_integers(problem):
    graph, labels = problem
    batched = count_cut(graph, labels)
    assert batched.shape == labels.shape[:-1]
    for idx in np.ndindex(labels.shape[:-1]):
        row = labels[idx]
        assert batched[idx] == sum(len({int(row[v - 1]) for v in edge}) > 1 for edge in graph.hyperedges)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(labelled_hypergraphs())
def test_count_cut_batched_equals_scalar(problem):
    graph, labels = problem
    batched = count_cut(graph, labels)
    for idx in np.ndindex(labels.shape[:-1]):
        single = count_cut(graph, labels[idx])
        assert type(single) is int and single == batched[idx]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(2, 6), st.lists(st.tuples(st.floats(-20.0, 20.0), st.integers(-3, 3)),
                                   min_size=1, max_size=20))
def test_snap_to_labels_idempotent_on_lattice(k, draws):
    # a lattice point, in any period, snaps to its own label
    phases, turns = np.array(draws).T
    labels = snap_to_labels(phases, k)
    assert np.all((labels >= 0) & (labels < k))
    lattice = label_state(labels, k)
    assert np.array_equal(snap_to_labels(lattice, k), labels)
    assert np.array_equal(snap_to_labels(lattice + 2 * np.pi * turns, k), labels)


def test_lattice_energy_identity():
    graph = generate_random_hypergraph(10, 20, 2, 4, seed=1)
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        system = make_system(graph, k)
        for _ in range(30):
            labels = rng.integers(0, k, 10)
            energy = system.energy(label_state(labels, k))
            expected = system.coupling * (20 - count_cut(graph, labels)) \
                - (system.harmonic / k) * 10
            assert abs(energy - expected) < 1e-6 * 20


def test_all_edges_cut_energy_value():
    # two partitions, every edge cut: E = -(A_s/2) * N with A_s = 10, N = 10
    graph = Hypergraph(10, tuple((i, i + 1) for i in range(1, 10)))
    system = make_system(graph, 2)
    labels = np.arange(10) % 2
    assert abs(system.energy(label_state(labels, 2)) - (-50.0)) < 1e-6


def test_global_rotation_symmetry_at_lattice():
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=5)
    rng = np.random.default_rng(6)
    for k in (2, 3, 4):
        system = make_system(graph, k)
        labels = rng.integers(0, k, 8)
        phi = label_state(labels, k)
        rotated = np.mod(phi + 2 * np.pi / k, 2 * np.pi)
        assert system.energy(rotated) == pytest.approx(system.energy(phi), abs=1e-6)


def test_drift_zero_when_all_phases_equal():
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=7)
    for k in (2, 3, 4):
        system = make_system(graph, k)
        drift = system.drift(np.full(8, 2 * np.pi / k))
        assert np.max(np.abs(drift)) < 1e-9


@pytest.mark.parametrize("k", [2, 3, 4])
def test_drift_matches_frozen_penalty_gradient(k):
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=8)
    system = make_system(graph, k)
    rng = np.random.default_rng(k)
    for _ in range(100):
        state = rng.uniform(0, 2 * np.pi, 8)
        frozen = system.pair_penalties(state)
        fd = finite_diff_gradient(lambda x: system.energy(x, penalties=frozen), state, 1e-6)
        drift = system.drift(state)
        assert np.max(np.abs(drift + fd)) / np.max(np.abs(drift)) < 1e-4


@pytest.mark.parametrize("k", [2, 3, 4])
def test_frozen_energy_at_its_own_state_is_the_energy(k):
    # the audit reuses energy(x) as frozen_energy(x)(x); they agree bit for bit
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=20 + k)
    system = make_system(graph, k)
    rng = np.random.default_rng(30 + k)
    states = list(rng.uniform(0, 2 * np.pi, (100, 8)))
    states += list(label_state(rng.integers(0, k, (100, 8)), k))
    for state in states:
        assert system.frozen_energy(state)(state) == system.energy(state)


@st.composite
def small_cut_problems(draw):
    """A hypergraph on 3..8 nodes with edges of 2..4 nodes, K in 2..4, and phases."""
    n = draw(st.integers(3, 8))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=min(4, n), unique=True)
    edges = draw(st.lists(edge.map(tuple), min_size=1, max_size=12))
    k = draw(st.integers(2, 4))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    return make_system(Hypergraph(n, tuple(edges)), k), np.array(phases)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_cut_problems())
def test_drift_is_negative_gradient_of_frozen_energy(problem):
    system, state = problem
    fd = finite_diff_gradient(system.frozen_energy(state), state, 1e-6)
    drift = system.drift(state)
    # relative to the drift, floored at 1 where the drift vanishes (e.g. all
    # phases equal) and the ratio would only measure finite-difference rounding
    assert np.max(np.abs(drift + fd)) / max(np.max(np.abs(drift)), 1.0) < 1e-4


def test_leave_one_out_equals_quotient_form():
    # wherever no pair factor vanishes, drift agrees with the form that
    # divides the edge indicator by the pair's own factor
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=9)
    # slot rows run over the lexicographic position pairs of the widest edge
    slot_row = {pair: s for s, pair in enumerate(combinations(range(graph.max_edge_size), 2))}
    for k in (2, 3, 4):
        system = make_system(graph, k)
        rng = np.random.default_rng(10 + k)
        checked = 0
        while checked < 20:
            phi = rng.uniform(0, 2 * np.pi, 8)
            factors, gains = slot_factors_and_gains(system, phi)
            if np.min(factors) <= 1e-9:  # padding factors are exactly 1
                continue
            checked += 1
            indicators = factors.prod(axis=0)
            drift_quotient = -system.harmonic * np.sin(k * phi)
            for m, edge in enumerate(graph.hyperedges):
                for a, b in combinations(range(len(edge)), 2):
                    s = slot_row[a, b]
                    gain = gains[s, m] * indicators[m] / factors[s, m]
                    drift_quotient[edge[a] - 1] += gain
                    drift_quotient[edge[b] - 1] -= gain
            drift = system.drift(phi)
            rel = np.max(np.abs(drift - drift_quotient)) / np.max(np.abs(drift))
            assert rel < 1e-8


def test_three_node_edge_drift_expanded_form():
    # single 3-node edge: drift_i = (A/2) [ sin(d_ij + f) * pf_ik * pf_jk
    #                                    + sin(d_ik + f) * pf_ij * pf_jk ] - A_s sin(K phi_i)
    graph = Hypergraph(3, ((1, 2, 3),))
    system = make_system(graph, 3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.uniform(0, 2 * np.pi, 3)

        def pf(a, b):
            return pair_factor(phi[a], phi[b], system)

        def term(a, b):
            d = wrap_angle(phi[a] - phi[b])
            return np.sin(d + phase_penalty(d, 3, SIGMA))

        a = system.coupling
        expected = np.array([
            0.5 * a * (term(0, 1) * pf(0, 2) * pf(1, 2) + term(0, 2) * pf(0, 1) * pf(1, 2)),
            0.5 * a * (term(1, 0) * pf(1, 2) * pf(0, 2) + term(1, 2) * pf(0, 1) * pf(0, 2)),
            0.5 * a * (term(2, 0) * pf(0, 1) * pf(1, 2) + term(2, 1) * pf(0, 1) * pf(0, 2)),
        ]) - system.harmonic * np.sin(3 * phi)
        assert np.allclose(system.drift(phi), expected, atol=1e-9)


def test_snap_to_labels():
    assert np.array_equal(snap_to_labels([0.01, 2.10, 4.20], 3), [0, 1, 2])
    # ties go to the lower lattice point
    assert np.array_equal(snap_to_labels([np.pi / 3], 3), [0])
    assert np.array_equal(snap_to_labels([np.pi], 3), [1])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_snap_to_labels_ties_go_to_the_lower_lattice_point(k):
    # the tie between lattice points j and j + 1 sits at (2j + 1) pi / K; the
    # last, between K - 1 and the wrap to 0, goes to K - 1
    ties = (2 * np.arange(k) + 1) * np.pi / k
    assert np.array_equal(snap_to_labels(ties, k), np.arange(k))


def test_snap_to_labels_k2_matches_spin_snap_off_ties():
    rng = np.random.default_rng(12)
    phi = rng.uniform(0, 2 * np.pi, 50)
    labels = snap_to_labels(phi, 2)
    spins = snap_to_spins(phi)
    assert np.array_equal(labels, (1 - spins) // 2)
    # at the ties they part: pi/2 gives label 0 and spin +1, 3pi/2 label 1 and spin +1
    ties = [np.pi / 2, 3 * np.pi / 2]
    assert np.array_equal(snap_to_labels(ties, 2), [0, 1])
    assert np.array_equal(snap_to_spins(ties), [1, 1])


def test_k2_energy_reduces_to_pair_system_at_lattice():
    # a 2-uniform hypergraph is a MaxCut instance; at lattice states the
    # cut energy and the all-positive width-2 clause system agree up to
    # the affine offsets of their respective identities
    graph = generate_random_hypergraph(8, 12, 2, 2, seed=13)
    inst = CnfInstance(8, tuple(tuple(e) for e in graph.hyperedges))
    cut_system = make_system(graph, 2)
    nae_system = NaeSystem.from_instance(inst, coupling=1.0, harmonic=5.0)
    rng = np.random.default_rng(14)
    for _ in range(20):
        labels = rng.integers(0, 2, 8)
        phi = label_state(labels, 2)
        spins = 1 - 2 * labels
        uncut = 12 - count_cut(graph, labels)
        # same discrete count drives both energies
        assert uncut == 12 - count_satisfied(inst, spins)
        e_cut = cut_system.energy(phi)
        e_nae = nae_system.energy(phi)
        assert abs(e_cut - (cut_system.coupling * uncut - (cut_system.harmonic / 2) * 8)) < 1e-6
        assert abs(e_nae - (2.0 * uncut - (5.0 / 2) * 8)) < 1e-12


def test_sigma_invariant_enforced():
    graph = Hypergraph(3, ((1, 2, 3),))
    # the last case is the default sigma, past its bound at K = 1000
    for k, sigma in [(4, 0.2), (3, 0.0), (3, -1.0), (3, np.nan), (3, 0.5), (1000, None)]:
        with pytest.raises(ValueError, match=f"sigma must be positive and below .* for K={k}, got"):
            CutSystem.from_hypergraph(graph, k, sigma=sigma)
    with pytest.raises(ValueError):
        CutSystem(instance=graph, k_partitions=1, coupling=10.0, harmonic=10.0)


@pytest.mark.parametrize("build", [
    lambda **constants: NaeSystem(instance=CnfInstance(3, ((1, -2, 3),)), **constants),
    lambda **constants: CutSystem(instance=Hypergraph(3, ((1, 2, 3),)), k_partitions=3, **constants),
], ids=["nae", "cut"])
@pytest.mark.parametrize("coupling, harmonic, match", [
    (0.0, 5.0, "coupling must be positive and finite"),
    (-1.0, 5.0, "coupling must be positive and finite"),
    (np.nan, 5.0, "coupling must be positive and finite"),
    (np.inf, 5.0, "coupling must be positive and finite"),
    (10.0, -1.0, "harmonic strength must be non-negative and finite"),
    (10.0, np.nan, "harmonic strength must be non-negative and finite"),
    (10.0, np.inf, "harmonic strength must be non-negative and finite"),
])
def test_systems_reject_constants_that_are_out_of_range(build, coupling, harmonic, match):
    with pytest.raises(ValueError, match=match):
        build(coupling=coupling, harmonic=harmonic)


def test_sigma_whose_square_underflows_is_rejected():
    # 2*sigma**2 == 0 at 1e-300 would make the bump exponent 0/0, NaN at every
    # labelled state; at 1e-160 it is subnormal and (size - centre)**2 / (2*sigma**2)
    # overflows, a warning at every evaluation.  The build refuses both.
    graph = Hypergraph(3, ((1, 2, 3),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (1e-300, 1e-160):
            with pytest.raises(ValueError, match=f"sigma {sigma} is too small: below pi/sqrt\\(float max\\)"):
                CutSystem.from_hypergraph(graph, 3, sigma=sigma)
        # a tiny sigma whose square stays normal gives finite values on the lattice
        system = CutSystem.from_hypergraph(graph, 3, sigma=1e-150)
        phi = label_state([0, 1, 2], 3)
        assert np.isfinite(system.energy(phi)) and np.all(np.isfinite(system.drift(phi)))
        # so does the smallest accepted sigma, also at K = 2, whose largest exponent,
        # pi**2 / (2*sigma**2) at d = 0, is the largest of any K
        for k in (2, 3, 4):
            system = CutSystem.from_hypergraph(graph, k, sigma=SIGMA_MIN)
            for phi in (label_state([0, 1, k - 1], k), np.random.default_rng(k).uniform(-4, 4, (5, 3))):
                assert np.isfinite(system.energy(phi)).all() and np.isfinite(system.drift(phi)).all()


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
def test_phase_penalty_rejects_a_sigma_that_is_not_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        phase_penalty(np.array([0.0, 2 * np.pi / 3]), 3, sigma)


def test_phase_penalty_rejects_fewer_than_2_partitions():
    with pytest.raises(ValueError, match="need at least 2 partitions"):
        phase_penalty(np.array([0.0, np.pi]), 1, SIGMA)


def test_frozen_penalties_of_one_state_broadcast_over_a_batch():
    # P + 1 = 5 pairs (pad included) and R = 5 restarts: penalties of shape
    # (P+1,) applied along the restart axis would raise no error, only give
    # wrong numbers, so each row is held to its solo evaluation
    graph = Hypergraph(4, ((1, 2, 3), (2, 4)))
    system = make_system(graph, 3)
    state = label_state([0, 1, 2, 0], 3) + SIGMA * np.array([0.9, -1.1, 1.0, -0.8])
    penalties = system.pair_penalties(state)
    assert penalties.shape == (5,)
    assert np.max(np.abs(penalties)) > 0.5  # the pairs sit on their bumps
    batch = state + SIGMA * np.random.default_rng(22).normal(size=(5, 4))
    energies = system.energy(batch, penalties=penalties)
    assert energies.shape == (5,)
    for row in range(5):
        assert energies[row] == system.energy(batch[row], penalties=penalties)
    batch_penalties = system.pair_penalties(batch)
    assert batch_penalties.shape == batch.shape[:-1] + (5,)
    stacked = np.stack([batch, batch[::-1]])
    assert system.pair_penalties(stacked).shape == stacked.shape[:-1] + (5,)
    # a batch of penalties over one state broadcasts the other way
    energies = system.energy(state, penalties=batch_penalties)
    for row in range(5):
        assert energies[row] == system.energy(state, penalties=batch_penalties[row])


def test_default_constants_flag():
    assert default_constants(2) == (15.0, 10.0, True)
    assert default_constants(3) == (15.0, 10.0, True)
    assert default_constants(4) == (10.0, 10.0, True)
    a, a_s, tabulated = default_constants(5)
    assert (a, a_s) == (10.0, 10.0) and not tabulated


def test_pair_keys_past_numpy_integers_are_refused_before_allocation():
    # N*N = 9.61e18 passes int64; the build must refuse N before np.arange(N)
    # or any other per-node array, which would take 25 GB
    graph = Hypergraph(3_100_000_000, ((1, 2),))
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="pass numpy's integers"):
            make_system(graph, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_storage_is_linear_in_slots_and_nodes():
    # index arrays, not an (M*W, N) matrix: that would be 96 MB here
    system = make_system(generate_random_hypergraph(1000, 2000, 2, 4, seed=1), 3)
    stored = sum(v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))
    assert stored < 1e6


def test_energy_drift_batched_agree_with_single():
    # no sum crosses batch rows, so each row is its solo evaluation bit for bit
    for n, m in [(6, 10), (10, 20), (200, 400), (1000, 2000)]:
        system = make_system(generate_random_hypergraph(n, m, 2, 4, seed=15), 3)
        batch = np.random.default_rng(16).uniform(0, 2 * np.pi, (4, n))
        energies = system.energy(batch)
        drifts = system.drift(batch)
        for row in range(4):
            assert energies[row] == system.energy(batch[row])
            assert np.array_equal(drifts[row], system.drift(batch[row]))

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hoim.instances import CnfInstance, Hypergraph, generate_planted_nae, generate_random_hypergraph
from hoim.oracle import (
    brute_force_maxkcut,
    brute_force_nae,
    finite_diff_gradient,
    truth_table_expand,
)
from hoim.polynomial import build_objective, count_satisfied, evaluate
from hoim.hypercut import count_cut


def test_brute_force_nae_finds_plant_optimum():
    for seed in (1, 2, 3):
        inst, _ = generate_planted_nae(12, 30, 4, seed=seed)
        best, assignment = brute_force_nae(inst)
        assert best == 30
        assert count_satisfied(inst, assignment) == 30


def test_brute_force_nae_single_clause():
    inst = CnfInstance(4, ((1, 2, 3, 4),))
    best, assignment = brute_force_nae(inst)
    assert best == 1
    values = np.asarray(assignment)
    assert not np.all(values == values[0])


def test_brute_force_nae_permutation_invariant():
    inst, _ = generate_planted_nae(10, 20, 3, seed=4)
    perm = np.random.default_rng(0).permutation(10) + 1
    permuted = CnfInstance(10, tuple(
        tuple(int(np.sign(l)) * int(perm[abs(l) - 1]) for l in clause) for clause in inst.clauses
    ))
    assert brute_force_nae(inst)[0] == brute_force_nae(permuted)[0]


def test_brute_force_nae_size_bound():
    inst = CnfInstance(30, ((1, 2),))
    with pytest.raises(ValueError, match="24"):
        brute_force_nae(inst)


def test_brute_force_maxkcut_single_edge():
    graph = Hypergraph(3, ((1, 2, 3),))
    for k in (2, 3, 4):
        best, labels = brute_force_maxkcut(graph, k)
        assert best == 1
        assert count_cut(graph, labels) == 1


def test_brute_force_maxkcut_rejects_k1_and_large():
    graph = Hypergraph(3, ((1, 2, 3),))
    with pytest.raises(ValueError):
        brute_force_maxkcut(graph, 1)
    big = Hypergraph(30, ((1, 2),))
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_maxkcut(big, 4)


def test_brute_force_maxkcut_agrees_with_exhaustive_recount():
    graph = generate_random_hypergraph(6, 10, 2, 4, seed=5)
    for k in (2, 3):
        best, labels = brute_force_maxkcut(graph, k)
        assert count_cut(graph, labels) == best
        ceiling = max(count_cut(graph, list(assign)) for assign in product(range(k), repeat=6))
        assert best == ceiling


def test_truth_table_k4_all_positive():
    poly = truth_table_expand([1, 2, 3, 4])
    assert poly.constant == Fraction(1, 8)
    assert all(c == Fraction(1, 8) for _, c in poly.terms)
    assert len(poly.terms) == 7


def test_truth_table_k5_sixteen_terms():
    poly = truth_table_expand([1, 2, 3, 4, 5])
    assert poly.constant == Fraction(1, 16)
    assert len(poly.terms) == 15  # ten pairs and five quadruples
    assert {len(vs) for vs, _ in poly.terms} == {2, 4}


def test_truth_table_rejects_more_than_8_literals():
    with pytest.raises(ValueError, match="up to 8 literals"):
        truth_table_expand(list(range(1, 10)))


def test_objective_equals_unsat_count_exhaustive_small():
    rng = np.random.default_rng(6)
    for k in (2, 3, 4):
        inst, _ = generate_planted_nae(8, 12, k, seed=int(rng.integers(1 << 30)))
        poly = build_objective(inst)
        for bits in range(2**8):
            spins = [1 - 2 * ((bits >> i) & 1) for i in range(8)]
            assert evaluate(poly, spins) == 12 - count_satisfied(inst, spins)


def test_finite_diff_on_quadratic():
    state = np.array([0.3, -1.2, 2.5])
    grad = finite_diff_gradient(lambda x: float((x**2).sum()), state, 1e-6)
    assert np.allclose(grad, 2 * state, atol=1e-8)


def test_finite_diff_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda x: 0.0, np.zeros(2), 0.0)

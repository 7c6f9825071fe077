from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hoim.instances import CnfInstance, generate_planted_nae
from hoim.polynomial import (
    InteractionPolynomial,
    build_objective,
    count_satisfied,
    evaluate,
    expand_clause,
    make_polynomial,
)
from hoim.oracle import truth_table_expand


def all_equal_indicator(literals, spins):
    """Independent discrete oracle: 1 iff all literal values coincide."""
    values = [s * spins[abs(l) - 1] for l in literals for s in [1 if l > 0 else -1]]
    return 1 if all(v == values[0] for v in values) else 0


def test_k2_positive_pair():
    poly = expand_clause([1, 2])
    assert poly.constant == Fraction(1, 2)
    assert poly.terms == (((1, 2), Fraction(1, 2)),)


def test_k4_all_positive_matches_published_form():
    # (1/8)(1 + six pairwise terms + the quadruple term)
    poly = expand_clause([1, 2, 3, 4])
    assert poly.constant == Fraction(1, 8)
    pairs = {vs for vs, _ in poly.terms if len(vs) == 2}
    assert pairs == set(combinations(range(1, 5), 2))
    assert all(c == Fraction(1, 8) for _, c in poly.terms)
    assert dict(poly.terms)[(1, 2, 3, 4)] == Fraction(1, 8)


def test_k5_all_positive_has_ten_pairs_five_quads():
    poly = expand_clause([1, 2, 3, 4, 5])
    assert poly.constant == Fraction(1, 16)
    orders = {}
    for vs, c in poly.terms:
        orders.setdefault(len(vs), []).append(c)
        assert c == Fraction(1, 16)
    assert len(orders[2]) == 10 and len(orders[4]) == 5
    assert set(orders) == {2, 4}


def test_k4_mixed_signs_fold_into_coefficients():
    poly = expand_clause([1, 2, -3, 4])
    unit = Fraction(1, 8)
    for vs, c in poly.terms:
        # coefficient sign is the product of the tuple's literal signs
        sign = -1 if 3 in vs else 1
        assert c == sign * unit
    assert dict(poly.terms)[(1, 2, 3, 4)] == -unit


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_expansion_matches_truth_table_random_signs(k):
    rng = np.random.default_rng(k)
    for _ in range(50):
        signs = rng.choice([-1, 1], size=k)
        lits = [int(s * (i + 1)) for i, s in enumerate(signs)]
        a = expand_clause(lits)
        b = truth_table_expand(lits)
        assert a.terms == b.terms and a.constant == b.constant


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_indicator_exact_on_all_assignments(k):
    rng = np.random.default_rng(100 + k)
    signs = rng.choice([-1, 1], size=k)
    lits = [int(s * (i + 1)) for i, s in enumerate(signs)]
    poly = expand_clause(lits)
    for spins in product([-1, 1], repeat=k):
        value = evaluate(poly, spins)
        assert value == all_equal_indicator(lits, spins)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_even_orders_only(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(20):
        signs = rng.choice([-1, 1], size=k)
        lits = [int(s * (i + 1)) for i, s in enumerate(signs)]
        poly = expand_clause(lits)
        assert all(len(vs) % 2 == 0 for vs, _ in poly.terms)
        assert all(c in (Fraction(1, 2 ** (k - 1)), -Fraction(1, 2 ** (k - 1)))
                   for _, c in poly.terms)


def test_expand_clause_rejects_duplicates():
    with pytest.raises(ValueError):
        expand_clause([1, -1])
    with pytest.raises(ValueError):
        expand_clause([2])
    with pytest.raises(ValueError, match="bad literal"):
        expand_clause([1, 0])


def test_build_objective_single_pair_clause():
    inst = CnfInstance(2, ((1, 2),))
    poly = build_objective(inst)
    assert poly.terms == (((1, 2), Fraction(1, 2)),)
    assert poly.constant == Fraction(1, 2)


def test_build_objective_merges_identical_clauses():
    inst = CnfInstance(2, ((1, 2), (1, 2)))
    poly = build_objective(inst)
    assert dict(poly.terms)[(1, 2)] == Fraction(1)
    assert poly.constant == Fraction(1)


def test_build_objective_term_budget():
    inst, _ = generate_planted_nae(20, 50, 4, seed=9)
    per_clause = sum(len(expand_clause(c).terms) for c in inst.clauses)
    assert per_clause == 50 * 7  # 6 pairs + 1 quadruple each
    assert len(build_objective(inst).terms) <= 50 * 7


def test_objective_counts_unsatisfied_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m, k = 8, 15, int(rng.choice([2, 3, 4, 5]))
        inst, _ = generate_planted_nae(n, m, k, seed=int(rng.integers(1 << 30)))
        poly = build_objective(inst)
        for _ in range(20):
            spins = rng.choice([-1, 1], size=n)
            unsat = m - count_satisfied(inst, spins)
            assert evaluate(poly, spins) == unsat


def test_count_satisfied_examples():
    inst = CnfInstance(4, ((1, 2, 3, 4),))
    assert count_satisfied(inst, [1, -1, 1, -1]) == 1  # mixed values satisfy
    assert count_satisfied(inst, [1, 1, 1, 1]) == 0    # all-true fails NAE
    assert count_satisfied(inst, [-1, -1, -1, -1]) == 0


def test_count_satisfied_batched():
    inst, _ = generate_planted_nae(6, 10, 3, seed=4)
    rng = np.random.default_rng(0)
    spins = rng.choice([-1, 1], size=(5, 6))
    batched = count_satisfied(inst, spins)
    assert batched.shape == (5,)
    for row, want in zip(spins, batched):
        assert count_satisfied(inst, row) == want


@st.composite
def spin_batches(draw, values=st.sampled_from([-1, 1])):
    """A CNF of width K in 2..5 on K..8 variables with 1..10 clauses, and
    spins of batch shape (B1, B2) drawn from ``values``."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 8))
    variables = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k)
    clause = st.tuples(variables, signs).map(lambda vs: tuple(v * s for v, s in zip(*vs)))
    inst = CnfInstance(n, tuple(draw(st.lists(clause, min_size=1, max_size=10))))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), n)
    return inst, draw(arrays(int, shape, elements=values))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spin_batches())
def test_count_satisfied_batched_equals_scalar(problem):
    inst, spins = problem
    batched = count_satisfied(inst, spins)
    for idx in np.ndindex(spins.shape[:-1]):
        single = count_satisfied(inst, spins[idx])
        assert type(single) is int and single == batched[idx]


def set_based_satisfied(clauses, spins) -> int:
    """Clauses whose literal values sign * spin are not all one value."""
    return sum(len({(1 if lit > 0 else -1) * int(spins[abs(lit) - 1]) for lit in clause}) > 1
               for clause in clauses)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spin_batches(values=st.integers(-3, 3)))
def test_count_satisfied_matches_set_based_scorer_on_any_integers(problem):
    # spins past {-1, +1}: a literal value v and its negation -v must still differ
    inst, spins = problem
    batched = count_satisfied(inst, spins)
    assert batched.shape == spins.shape[:-1]
    for idx in np.ndindex(spins.shape[:-1]):
        assert batched[idx] == set_based_satisfied(inst.clauses, spins[idx])


def test_count_satisfied_batch_matches_all_equal_indicator():
    inst, _ = generate_planted_nae(12, 30, 4, seed=5)
    spins = np.random.default_rng(1).choice([-1, 1], size=(3, 4, 12))
    want = np.array([[[all_equal_indicator(c, s) for c in inst.clauses] for s in row] for row in spins])
    assert np.array_equal(count_satisfied(inst, spins), 30 - want.sum(axis=-1))


def test_evaluate_index_out_of_range():
    poly = expand_clause([1, 2, 3])
    with pytest.raises(IndexError):
        evaluate(poly, [1, 1])


def test_polynomial_canonicalization():
    poly = make_polynomial([((1, 2), Fraction(1, 2)), ((1, 2), Fraction(-1, 2)),
                            ((3, 4), Fraction(1, 4))])
    assert poly.terms == (((3, 4), Fraction(1, 4)),)
    with pytest.raises(ValueError):
        InteractionPolynomial(terms=(((2, 1), Fraction(1)),))
    with pytest.raises(ValueError):
        InteractionPolynomial(terms=(((1, 2), Fraction(1)), ((1, 2), Fraction(2))))
    with pytest.raises(ValueError, match="1-based"):
        InteractionPolynomial(terms=(((0, 1), Fraction(1)),))

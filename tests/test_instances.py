import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoim.instances import (
    CnfInstance,
    Hypergraph,
    InstanceError,
    count_cut,
    count_satisfied,
    format_dimacs,
    format_hypergraph,
    generate_planted_nae,
    generate_random_hypergraph,
    parse_dimacs,
    parse_hypergraph,
)


def test_parse_dimacs_basic():
    inst = parse_dimacs("p cnf 4 1\n1 2 -3 4 0\n")
    assert inst.num_vars == 4
    assert inst.k == 4
    assert inst.clauses == ((1, 2, -3, 4),)


def test_parse_dimacs_comments_and_multiline_clause():
    text = "c a comment\np cnf 4 2\n1 2\n-3 4 0\nc mid comment\n-1 -2 3 -4 0\n"
    inst = parse_dimacs(text)
    assert inst.clauses == ((1, 2, -3, 4), (-1, -2, 3, -4))


def test_parse_dimacs_satlib_trailer():
    inst = parse_dimacs("p cnf 4 2\n1 -2 3 4 0\n-1 2 -3 4 0\n%\n0\n")
    assert inst.clauses == ((1, -2, 3, 4), (-1, 2, -3, 4))


@pytest.mark.parametrize("text,match", [
    ("p cnf 4 2\n1 -2 3 4 0\n%\n-1 2 -3 4 0\n", "promises"),
    ("p cnf 4 2\n1 -2 3 4 0\n-1 2 % -3 4 0\n", "non-integer"),
    ("p cnf 2 1\n1 -1 0\n", "repeated"),
    ("p cnf 2 1\n1 3 0\n", "out of range"),
    ("p cnf 3 2\n1 2 0\n1 2 3 0\n", "uniform"),
    ("p cnf 3 1\n1 2 3 0\n1 2 0\n", "promises"),
    ("p wrong 2 1\n1 2 0\n", "header"),
    ("1 2 0\n", "header"),
    ("p cnf 2 1\n1 2\n", "unterminated"),
    ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "line 2: duplicate header"),
    ("p cnf x 1\n1 2 0\n", "non-integer header fields"),
    ("c only\nc comments\n", "missing 'p cnf' header"),
    ("p cnf 2 1\n1 2 0 0\n", r"empty clause \(stray 0 terminator\)"),
    ("p cnf 3 0\n", "instance has no clauses"),
    ("p cnf 0 1\n1 2 0\n", "num_vars must be positive"),
])
def test_parse_dimacs_errors(text, match):
    with pytest.raises(InstanceError, match=match):
        parse_dimacs(text)


def test_parse_hypergraph_basic():
    g = parse_hypergraph("p hyp 3 1\n1 2 3 0\n")
    assert g.num_nodes == 3
    assert g.hyperedges == ((1, 2, 3),)


@pytest.mark.parametrize("text,match", [
    ("p hyp 2 1\n1 0\n", "fewer than 2"),
    ("p hyp 2 1\n1 2 3 0\n", "out of range"),
    ("p hyp 3 1\n1 1 2 0\n", "repeats"),
    ("p hyp 3 1\n1 -2 3 0\n", "positive"),
    ("p hyp 3 0\n", "hypergraph has no hyperedges"),
    ("p hyp 0 1\n1 2 0\n", "num_nodes must be positive"),
])
def test_parse_hypergraph_errors(text, match):
    with pytest.raises(InstanceError, match=match):
        parse_hypergraph(text)


def test_cnf_round_trip_generated():
    inst, _ = generate_planted_nae(20, 50, 4, seed=11)
    assert parse_dimacs(format_dimacs(inst)) == inst
    # comments do not disturb the round trip
    assert parse_dimacs(format_dimacs(inst, comments=["x", "y"])) == inst


def test_format_dimacs_multiline_comment():
    # each line of a comment is written as its own comment line
    inst = CnfInstance(2, ((1, -2),))
    text = format_dimacs(inst, ["two\np cnf 5 1"])
    assert text.splitlines()[:2] == ["c two", "c p cnf 5 1"]
    assert parse_dimacs(text) == inst


def test_format_hypergraph_multiline_comment():
    graph = Hypergraph(2, ((1, 2),))
    assert parse_hypergraph(format_hypergraph(graph, ["x\n1 2 0"])) == graph


def test_hypergraph_round_trip_generated():
    for seed in range(5):
        g = generate_random_hypergraph(10, 20, 2, 4, seed=seed)
        assert parse_hypergraph(format_hypergraph(g)) == g


comments = st.lists(st.text(), max_size=3)


@st.composite
def cnf_instances(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, n))
    variables = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    clause = st.tuples(variables, st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    clauses = draw(st.lists(clause, min_size=1, max_size=10))
    return CnfInstance(n, tuple(tuple(v * s for v, s in zip(*c)) for c in clauses))


@st.composite
def hypergraphs(draw):
    # edges in any node order: the constructor sorts them
    n = draw(st.integers(2, 8))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True)
    return Hypergraph(n, tuple(map(tuple, draw(st.lists(edge, min_size=1, max_size=10)))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cnf_instances(), comments)
def test_cnf_round_trip_property(inst, notes):
    assert parse_dimacs(format_dimacs(inst, notes)) == inst


@settings(derandomize=True, deadline=None, max_examples=200)
@given(hypergraphs(), comments)
def test_hypergraph_round_trip_property(graph, notes):
    assert parse_hypergraph(format_hypergraph(graph, notes)) == graph


def test_cnf_instance_stores_its_clauses_as_tuples():
    inst = CnfInstance(3, [[1, -2], [2, 3]])
    assert parse_dimacs(format_dimacs(inst)) == inst
    assert hash(inst) == hash(CnfInstance(3, ((1, -2), (2, 3))))


def test_clause_arrays_sort_each_clause_by_variable():
    # file order within a clause is dropped; each sign stays with its variable
    variables, signs = parse_dimacs("p cnf 4 2\n3 -1 2 0\n-4 2 1 0\n").clause_arrays
    assert variables.tolist() == [[0, 1, 2], [0, 1, 3]]
    assert signs.tolist() == [[-1, 1, 1], [1, 1, -1]]


def test_instance_arrays_are_built_once_and_read_only():
    inst = CnfInstance(4, ((3, -1, 2), (-4, 2, 1)))
    graph = Hypergraph(4, ((3, 1), (2, 4, 1)))
    assert inst.clause_arrays[0] is inst.clause_arrays[0]
    assert inst.clause_arrays[1] is inst.clause_arrays[1]
    assert graph.edge_nodes is graph.edge_nodes
    assert graph.edge_nodes.tolist() == [[0, 2, 0], [0, 1, 3]]
    for array in (*inst.clause_arrays, graph.edge_nodes):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    # the cache is not a field: a read instance still equals and hashes like a fresh one
    for read, fresh in ((inst, CnfInstance(4, ((3, -1, 2), (-4, 2, 1)))),
                        (graph, Hypergraph(4, ((1, 3), (1, 2, 4))))):
        assert read == fresh and hash(read) == hash(fresh)


def test_planted_instance_is_satisfied_by_plant():
    for seed in range(10):
        inst, plant = generate_planted_nae(20, 50, 4, seed=seed)
        assert count_satisfied(inst, plant) == 50


def test_planted_single_clause_not_all_equal():
    inst, plant = generate_planted_nae(4, 1, 4, seed=5)
    assert count_satisfied(inst, plant) == 1


def test_positive_cnf_scores_as_its_hypergraph_cut():
    # with every literal positive, a clause is satisfied exactly when its
    # hyperedge is cut under labels (1 - s) / 2: one scorer, two entry points
    graph = generate_random_hypergraph(9, 20, 3, 3, seed=4)
    inst = CnfInstance(graph.num_nodes, graph.hyperedges)
    spins = np.random.default_rng(8).choice([-1, 1], size=(2, 3, graph.num_nodes))
    satisfied = count_satisfied(inst, spins)
    assert satisfied.shape == (2, 3)
    assert np.array_equal(satisfied, count_cut(graph, (1 - spins) // 2))
    assert 0 < satisfied.min() and satisfied.max() < 20  # neither count is trivial here
    for row in spins.reshape(-1, graph.num_nodes):
        single, cut = count_satisfied(inst, row), count_cut(graph, (1 - row) // 2)
        assert type(single) is int and type(cut) is int and single == cut


def test_generators_deterministic():
    a1, p1 = generate_planted_nae(12, 30, 4, seed=42)
    a2, p2 = generate_planted_nae(12, 30, 4, seed=42)
    assert a1 == a2 and np.array_equal(p1, p2)
    g1 = generate_random_hypergraph(8, 15, 2, 4, seed=42)
    g2 = generate_random_hypergraph(8, 15, 2, 4, seed=42)
    assert g1 == g2
    assert a1 != generate_planted_nae(12, 30, 4, seed=43)[0]


def test_generate_hypergraph_forced_edge():
    g = generate_random_hypergraph(3, 1, 3, 3, seed=0)
    assert g.hyperedges == ((1, 2, 3),)


def test_generate_hypergraph_sizes_and_counts():
    g = generate_random_hypergraph(10, 20, 2, 4, seed=1)
    assert g.num_nodes == 10 and g.num_edges == 20
    assert all(2 <= len(e) <= 4 for e in g.hyperedges)


def test_generator_preconditions():
    with pytest.raises(InstanceError):
        generate_planted_nae(3, 5, 4, seed=0)  # n < k
    with pytest.raises(InstanceError):
        generate_random_hypergraph(4, 3, 2, 5, seed=0)  # max_size > n
    with pytest.raises(InstanceError, match="k must be >= 2"):
        generate_planted_nae(3, 5, 1, seed=0)
    with pytest.raises(InstanceError, match="need m >= 1"):
        generate_planted_nae(5, 0, 3, seed=0)
    with pytest.raises(InstanceError, match="need m >= 1"):
        generate_random_hypergraph(5, 0, 2, 3, seed=0)


def test_instance_invariants():
    with pytest.raises(InstanceError):
        CnfInstance(2, ((1, -1),))
    with pytest.raises(InstanceError):
        CnfInstance(2, ((1,),))
    with pytest.raises(InstanceError):
        Hypergraph(3, ((1, 2), (2,)))

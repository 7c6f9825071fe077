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
    # the arrays are not fields: a read instance still equals and hashes like a fresh one
    for read, fresh in ((inst, CnfInstance(4, ((3, -1, 2), (-4, 2, 1)))),
                        (graph, Hypergraph(4, ((1, 3), (1, 2, 4))))):
        assert read == fresh and hash(read) == hash(fresh)


def reference_tokenize(text: str, expect_format: str):
    """Scalar reference for ``_tokenize``, line by line: (header fields, data tokens as ints)."""
    header = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.split()[0] == "%":
            break
        if line.startswith("p"):
            if header is not None:
                raise InstanceError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != expect_format:
                raise InstanceError(f"line {lineno}: malformed header {line!r}, expected 'p {expect_format} N M'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise InstanceError(f"line {lineno}: non-integer header fields in {line!r}") from None
            continue
        if header is None:
            raise InstanceError(f"line {lineno}: data before 'p {expect_format}' header")
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise InstanceError(f"line {lineno}: non-integer token in {line!r}") from None
    if header is None:
        raise InstanceError(f"missing 'p {expect_format}' header")
    return header, tokens


def reference_split_on_zero(tokens: list[int], what: str, promised: int) -> list[tuple[int, ...]]:
    """Scalar reference for ``_split_on_zero``."""
    groups: list[tuple[int, ...]] = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            if not current:
                raise InstanceError(f"empty {what} (stray 0 terminator)")
            groups.append(tuple(current))
            current = []
        else:
            current.append(t)
    if current:
        raise InstanceError(f"unterminated {what} at end of input")
    if len(groups) != promised:
        raise InstanceError(f"header promises {promised} {what}s, found {len(groups)}")
    return groups


def reference_parse(text: str, fmt: str):
    """Scalar reference parser with per-item checks and arrays built from the
    tuples: (count, groups, arrays), or the ``InstanceError`` the parser must raise."""
    (count, promised), tokens = reference_tokenize(text, fmt)
    if fmt == "hyp":
        if any(t < 0 for t in tokens):
            raise InstanceError("hyperedge lines must contain positive node indices")
        edges = tuple(tuple(sorted(e)) for e in reference_split_on_zero(tokens, "hyperedge", promised))
        if count < 1:
            raise InstanceError("num_nodes must be positive")
        if not edges:
            raise InstanceError("hypergraph has no hyperedges")
        for idx, edge in enumerate(edges):
            if len(edge) < 2:
                raise InstanceError(f"hyperedge {idx + 1} has fewer than 2 nodes")
            if len(set(edge)) != len(edge):
                raise InstanceError(f"hyperedge {idx + 1} repeats a node")
            for node in edge:
                if node < 1 or node > count:
                    raise InstanceError(f"hyperedge {idx + 1}: node {node} out of range 1..{count}")
        width = max(map(len, edges))
        return count, edges, np.array([e + (e[0],) * (width - len(e)) for e in edges]) - 1
    clauses = tuple(reference_split_on_zero(tokens, "clause", promised))
    if count < 1:
        raise InstanceError("num_vars must be positive")
    if not clauses:
        raise InstanceError("instance has no clauses")
    k = len(clauses[0])
    for idx, clause in enumerate(clauses):
        if len(clause) != k:
            raise InstanceError(f"clause {idx + 1} has {len(clause)} literals, expected uniform K={k}")
        if len(clause) < 2:
            raise InstanceError(f"clause {idx + 1} has fewer than 2 literals")
        seen = set()
        for lit in clause:
            v = abs(lit)
            if lit == 0 or v > count:
                raise InstanceError(f"clause {idx + 1}: literal {lit} out of range 1..{count}")
            if v in seen:
                raise InstanceError(f"clause {idx + 1}: variable {v} repeated")
            seen.add(v)
    literals = np.array(clauses)
    literals = np.take_along_axis(literals, np.argsort(np.abs(literals), axis=1), axis=1)
    return count, clauses, (np.abs(literals) - 1, np.sign(literals))


def assert_parses_as_reference(text: str, fmt: str):
    parse = parse_dimacs if fmt == "cnf" else parse_hypergraph
    try:
        count, groups, arrays = reference_parse(text, fmt)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as raised:
            parse(text)
        assert str(raised.value) == str(exc)
        return
    parsed = parse(text)
    if fmt == "cnf":
        assert (parsed.num_vars, parsed.clauses) == (count, groups)
        assert all(np.array_equal(a, b) for a, b in zip(parsed.clause_arrays, arrays))
    else:
        assert (parsed.num_nodes, parsed.hyperedges) == (count, groups)
        assert np.array_equal(parsed.edge_nodes, arrays)


# token separators: tabs, runs of spaces, groups split across lines, blank and comment lines
SEPARATORS = [" ", "  ", "\t", " \t ", "\n", " \n\t", "\n\n", "\n  \n", "\nc a comment 1 0\n", "\r\n"]
# tokens seeded among the groups: stray 0, non-integer, out of range, repeats, signs good and bad, past int64
SEEDED = ["0", "x", "1.5", "9", "-9", "1", "-1", "+2", "-0", "-", "1-", "+-2", "99999999999999999999999"]


@st.composite
def instance_texts(draw):
    fmt = draw(st.sampled_from(["cnf", "hyp"]))
    n = draw(st.integers(2, 8))
    widths = st.integers(2, min(n, 4))
    k = draw(widths)
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        size = k if fmt == "cnf" else draw(widths)
        group = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        if fmt == "cnf":
            group = [v * draw(st.sampled_from((1, -1))) for v in group]
        groups.append(group)
    tokens = [str(t) for group in groups for t in [*group, 0]]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at, seeded = draw(st.integers(0, len(tokens) - 1)), draw(st.sampled_from(SEEDED))
        tokens[at:at + draw(st.integers(0, 1))] = [seeded]  # inserted, or in place of a token
    promised = len(groups) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    body = tokens[0]
    for token in tokens[1:]:
        body += draw(st.sampled_from(SEPARATORS)) + token
    head = draw(st.sampled_from(["", "c made by a test\n", "\n  c indented comment\n"]))
    tail = draw(st.sampled_from(["\n", "\n%\n0\n", "  \n\n"]))
    return fmt, f"{head}p {fmt} {n} {promised}\n{body}{tail}"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(instance_texts())
def test_parse_matches_the_reference_parser(case):
    fmt, text = case
    assert_parses_as_reference(text, fmt)


@pytest.mark.parametrize("fmt, text", [
    ("cnf", "p cnf 4 2\n1 -2 3 0\n0 2 3 4 0\n"),                  # stray 0
    ("cnf", "p cnf 4 2\n1 -2 3 0\nc note\n2 3 x 0\n"),           # non-integer token
    ("cnf", "p cnf 4 2\n1 -2 3 0\n2 3 4\n1 2 3 0\n"),            # non-integer stays ahead of a later count mismatch
    ("cnf", "p cnf 4 2\n1 2 x 0\np cnf 4 2\n"),                   # non-integer ahead of a later duplicate header
    ("cnf", "p cnf 4 2\n1 -2 3 0\n2 -5 1 0\n"),                   # out of range
    ("cnf", "p cnf 4 2\n1 -2 -1 0\n2 -5 1 0\n"),                  # repeated before a later out of range
    ("cnf", "p cnf 4 2\n1 -2 -1 5 0\n2 3 0\n"),                   # repeated inside the width check
    ("cnf", "p cnf 4 2\n1 -2 3 0\n2 3 0\n"),                      # mixed width
    ("cnf", "p cnf 4 3\n1 -2 3 0\n2 3 4 0\n"),                    # count mismatch
    ("cnf", "p cnf 4 1\n-9223372036854775808 2 3 0\n"),           # int64's minimum
    ("cnf", "p cnf 4 1\n1 2 3 99999999999999999999999 0\n"),      # past int64
    ("hyp", "p hyp 4 2\n1 2 0\n3 -4 0\n"),                       # negative node
    ("hyp", "p hyp 4 2\n1 2 0\n3 5 4 0\n"),                      # out of range
    ("hyp", "p hyp 4 2\n1 2 0\n3 4 3 9 0\n"),                    # repeats before out of range
    ("hyp", "p hyp 4 2\n1 2 0\n3 0\n"),                          # one node
    ("hyp", "p hyp 4 2\n2 1 0\n3 0 4 0\n"),                      # unsorted, then a stray 0
    ("hyp", "p hyp 4 2\n1 2 0\n4 3 1 0\n"),                      # unsorted edges parse sorted
])
def test_seeded_faults_match_the_reference_parser(fmt, text):
    assert_parses_as_reference(text, fmt)


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

"""Problem instances: CNF formulas for NAE-K-SAT and hypergraphs for Max-K-Cut.

Text formats:

* DIMACS CNF.  Comment lines start with ``c``, the header is
  ``p cnf <num_vars> <num_clauses>``, and each clause is a run of
  space-separated signed variable indices terminated by ``0`` (clauses may
  span lines).  A line starting with the token ``%`` ends the data, so the
  SATLIB trailer (``%`` then ``0``) is accepted.  NAE semantics are an
  interpretation applied by the solver, so any standard SAT tooling can
  produce inputs.

* Hyperedge lists.  Same conventions with header ``p hyp <num_nodes>
  <num_edges>``; each edge is a run of positive node indices terminated by
  ``0``.

Both parsers enforce the invariants the solver relies on: uniform clause
width K >= 2, no repeated variable inside a clause, edges of size >= 2,
indices within range.

It also holds what both systems share: the width cap, the build checks, the
scatter index, and one not-all-equal count behind both scorers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_CLAUSE_WIDTH = 8  # term count per clause grows combinatorially past this


class InstanceError(ValueError):
    """Malformed instance text or violated instance invariant."""


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula with uniform clause width K.

    Clauses are tuples of nonzero signed literals (DIMACS style): literal
    ``v`` is variable v in normal form, ``-v`` negated.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(map(tuple, self.clauses)))
        if self.num_vars < 1:
            raise InstanceError("num_vars must be positive")
        if not self.clauses:
            raise InstanceError("instance has no clauses")
        k = len(self.clauses[0])
        for idx, clause in enumerate(self.clauses):
            if len(clause) != k:
                raise InstanceError(
                    f"clause {idx + 1} has {len(clause)} literals, expected uniform K={k}"
                )
            if len(clause) < 2:
                raise InstanceError(f"clause {idx + 1} has fewer than 2 literals")
            seen = set()
            for lit in clause:
                v = abs(lit)
                if lit == 0 or v > self.num_vars:
                    raise InstanceError(f"clause {idx + 1}: literal {lit} out of range 1..{self.num_vars}")
                if v in seen:
                    raise InstanceError(f"clause {idx + 1}: variable {v} repeated")
                seen.add(v)

    @property
    def k(self) -> int:
        """Literals per clause."""
        return len(self.clauses[0])

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @cached_property
    def clause_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only zero-based variable indices and literal signs of every clause,
        each (M, K); each row is sorted by variable, every sign kept with its variable."""
        literals = np.array(self.clauses)
        literals = np.take_along_axis(literals, np.argsort(np.abs(literals), axis=1), axis=1)
        variables, signs = np.abs(literals) - 1, np.sign(literals)
        variables.flags.writeable = signs.flags.writeable = False
        return variables, signs


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph; edges stored as sorted tuples of 1-based node indices.

    The constructor sorts each edge, so graphs with the same edges in any
    node order compare equal and ``format_hypergraph`` round-trips.
    """

    num_nodes: int
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "hyperedges", tuple(tuple(sorted(e)) for e in self.hyperedges))
        if self.num_nodes < 1:
            raise InstanceError("num_nodes must be positive")
        if not self.hyperedges:
            raise InstanceError("hypergraph has no hyperedges")
        for idx, edge in enumerate(self.hyperedges):
            if len(edge) < 2:
                raise InstanceError(f"hyperedge {idx + 1} has fewer than 2 nodes")
            if len(set(edge)) != len(edge):
                raise InstanceError(f"hyperedge {idx + 1} repeats a node")
            for node in edge:
                if node < 1 or node > self.num_nodes:
                    raise InstanceError(f"hyperedge {idx + 1}: node {node} out of range 1..{self.num_nodes}")

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)

    @property
    def max_edge_size(self) -> int:
        return max(len(e) for e in self.hyperedges)

    @cached_property
    def edge_nodes(self) -> np.ndarray:
        """Read-only zero-based (M, max edge size) node array; each row is padded
        with its first node, which keeps its label set and marks the cut's pad slots."""
        width = self.max_edge_size
        nodes = np.array([e + (e[0],) * (width - len(e)) for e in self.hyperedges], dtype=np.intp) - 1
        nodes.flags.writeable = False
        return nodes


def check_clause_width(k: int) -> None:
    """Reject clause widths past ``MAX_CLAUSE_WIDTH`` (2^(K-1) - 1 terms per clause)."""
    if k > MAX_CLAUSE_WIDTH:
        raise ValueError(f"clause width {k} exceeds supported maximum {MAX_CLAUSE_WIDTH}")


def count_satisfied(instance: CnfInstance, spins) -> int | np.ndarray:
    """Number of clauses whose literal values sign_i * s_i are not all equal
    (x_i = 1 is s_i = +1).  ``spins`` may carry leading batch dimensions; the
    count then has the batch shape."""
    variables, signs = instance.clause_arrays
    spins = np.asarray(spins)
    return _count_mixed(signs[:, p] * spins[..., variables[:, p]] for p in range(instance.k))


def count_cut(graph: Hypergraph, labels) -> int | np.ndarray:
    """Number of hyperedges whose nodes span at least two labels, batched as
    in :func:`count_satisfied`; a pad position repeats its edge's first node."""
    labels = np.asarray(labels)
    return _count_mixed(labels[..., nodes] for nodes in graph.edge_nodes.T)


def _count_mixed(columns) -> int | np.ndarray:
    """Rows not all equal across the (..., M) arrays the iterator ``columns``
    yields, one per position, each compared with the first, then dropped."""
    first = next(columns)
    differs = np.zeros(first.shape, dtype=bool)
    for column in columns:
        differs |= column != first
        del column  # else it lives on while the next is built: 1000/2500 read 20% slower
    mixed = differs.sum(axis=-1)
    return int(mixed) if mixed.ndim == 0 else mixed


def _check_constants(system, terms: int, bound: str) -> None:
    """Refuse a coupling that is not positive and finite, a harmonic strength
    that is negative or not finite, and constants whose energy bound
    ``coupling * terms + harmonic * num_spins`` overflows float: every energy
    and drift magnitude stays below it.  ``bound`` is the formula's text for
    the message."""
    if not (np.isfinite(system.coupling) and system.coupling > 0):
        raise ValueError("coupling must be positive and finite")
    if not (np.isfinite(system.harmonic) and system.harmonic >= 0):
        raise ValueError("harmonic strength must be non-negative and finite")
    if not np.isfinite(float(system.coupling) * terms + float(system.harmonic) * system.num_spins):
        raise ValueError(f"coupling {system.coupling} and harmonic strength {system.harmonic} are too large: "
                         f"the energy bound {bound} overflows float")


def _check_pair_keys(n: int) -> None:
    """Refuse N spins whose pair keys i*N + j, up to N*N, pass numpy's integers."""
    if n * n > np.iinfo(np.intp).max:
        raise OverflowError(f"{n} spins: the pair keys, up to N*N, pass numpy's integers")


def _index_scatter(keys, n: int):
    """Index form of a scatter-add into n variables: item e goes to variable
    ``keys[e]``, then item len(keys) + v, a zero, to variable v, so no run is
    empty.  Returns the items sorted stably by variable and each run's start."""
    keys = np.concatenate([keys, np.arange(n)])
    counts = np.bincount(keys, minlength=n)
    order = np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")  # radix sort to N = 65535
    return order, np.cumsum(counts) - counts


def _tokenize(text: str, expect_format: str):
    """Split instance text into (header fields, data tokens), skipping comments."""
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


def _split_on_zero(tokens: list[int], what: str, promised: int) -> list[tuple[int, ...]]:
    """The ``0``-terminated groups of ``tokens``, exactly the header's ``promised`` many."""
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


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text into a :class:`CnfInstance`.

    Raises :class:`InstanceError` on malformed headers, out-of-range or
    repeated variables, a clause count not matching the header, or
    non-uniform clause widths.
    """
    (num_vars, num_clauses), tokens = _tokenize(text, "cnf")
    return CnfInstance(num_vars=num_vars, clauses=tuple(_split_on_zero(tokens, "clause", num_clauses)))


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse ``p hyp`` text into a :class:`Hypergraph`."""
    (num_nodes, num_edges), tokens = _tokenize(text, "hyp")
    if any(t < 0 for t in tokens):
        raise InstanceError("hyperedge lines must contain positive node indices")
    return Hypergraph(num_nodes=num_nodes, hyperedges=tuple(_split_on_zero(tokens, "hyperedge", num_edges)))


def _format(header: str, groups: tuple[tuple[int, ...], ...], comments: list[str] | None) -> str:
    """Instance text: one ``c`` line per line of each comment, so no comment
    text can leave its comment line (``_tokenize`` splits with the same
    ``str.splitlines``), then the header, then each group ended by ``0``."""
    lines = [f"c {piece}" for c in comments or [] for piece in c.splitlines()]
    lines.append(header)
    lines.extend(" ".join(map(str, group)) + " 0" for group in groups)
    return "\n".join(lines) + "\n"


def format_dimacs(instance: CnfInstance, comments: list[str] | None = None) -> str:
    """Serialize to DIMACS CNF; ``parse_dimacs`` round-trips the result."""
    return _format(f"p cnf {instance.num_vars} {instance.num_clauses}", instance.clauses, comments)


def format_hypergraph(graph: Hypergraph, comments: list[str] | None = None) -> str:
    """Serialize to ``p hyp`` text; ``parse_hypergraph`` round-trips the result."""
    return _format(f"p hyp {graph.num_nodes} {graph.num_edges}", graph.hyperedges, comments)


def generate_planted_nae(n: int, m: int, k: int, seed: int):
    """Generate a satisfiable NAE-k-SAT instance by rejection sampling.

    Draws a hidden assignment, then emits ``m`` clauses of ``k`` distinct
    variables with random polarities, re-drawing any clause whose literal
    values under the hidden assignment are all equal.  Every clause is
    therefore NAE-satisfied by the plant.  Deterministic per seed.

    Returns ``(instance, plant)`` with ``plant`` an int array in {-1,+1}.
    """
    if k < 2:
        raise InstanceError("k must be >= 2")
    if n < k:
        raise InstanceError("need n >= k")
    if m < 1:
        raise InstanceError("need m >= 1")
    if seed < 0:
        raise InstanceError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    plant = rng.choice([-1, 1], size=n)
    clauses = []
    while len(clauses) < m:
        variables = np.sort(rng.choice(n, size=k, replace=False)) + 1
        signs = rng.choice([-1, 1], size=k)
        values = signs * plant[variables - 1]
        if np.all(values == values[0]):
            continue  # all-equal under the plant: clause would be violated
        clauses.append(tuple(int(s * v) for v, s in zip(variables, signs)))
    return CnfInstance(num_vars=n, clauses=tuple(clauses)), plant


def generate_random_hypergraph(n: int, m: int, min_size: int, max_size: int, seed: int) -> Hypergraph:
    """Generate ``m`` random hyperedges with sizes uniform in [min_size, max_size].

    Nodes within an edge are distinct; deterministic per seed.
    """
    if not (2 <= min_size <= max_size <= n):
        raise InstanceError("need 2 <= min_size <= max_size <= n")
    if m < 1:
        raise InstanceError("need m >= 1")
    if seed < 0:
        raise InstanceError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(m):
        size = int(rng.integers(min_size, max_size + 1))
        nodes = np.sort(rng.choice(n, size=size, replace=False)) + 1
        edges.append(tuple(int(v) for v in nodes))
    return Hypergraph(num_nodes=n, hyperedges=tuple(edges))

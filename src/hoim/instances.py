"""Problem instances: CNF formulas for NAE-K-SAT and hypergraphs for Max-K-Cut.

Text formats:

* DIMACS CNF.  Comment lines start with ``c``, the header is
  ``p cnf <num_vars> <num_clauses>``, and each clause is a run of
  whitespace-separated signed variable indices terminated by ``0`` (clauses
  may span lines).  Every data token is an ASCII signed decimal integer,
  ``[+-]?[0-9]+``.  A line starting with the token ``%`` ends the data, so
  the SATLIB trailer (``%`` then ``0``) is accepted.  NAE semantics are an
  interpretation applied by the solver, so any standard SAT tooling can
  produce inputs.

* Hyperedge lists.  Same conventions with header ``p hyp <num_nodes>
  <num_edges>``; each edge is a run of positive node indices terminated by
  ``0``.

A parser reads its text in array passes: the lines are classified one by
one, then every data token is checked and converted at once, and the groups
are cut at the zeros' positions.  The constructors enforce the invariants
the solver relies on (uniform clause width K >= 2, no repeated variable
inside a clause, edges of size >= 2, indices within range) in one array pass
each, and keep the arrays it builds as ``CnfInstance.clause_arrays`` and
``Hypergraph.edge_nodes``; nothing rebuilds them later.

It also holds what both systems share: the width cap, the build checks, the
scatter index, and one not-all-equal count behind both scorers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

MAX_CLAUSE_WIDTH = 8  # term count per clause grows combinatorially past this


class InstanceError(ValueError):
    """Malformed instance text or violated instance invariant."""


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula with uniform clause width K.

    Clauses are tuples of nonzero signed literals (DIMACS style): literal
    ``v`` is variable v in normal form, ``-v`` negated.  The constructor
    checks every clause in one array pass and keeps that pass's arrays as
    :attr:`clause_arrays`.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clauses = tuple(map(tuple, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        if self.num_vars < 1:
            raise InstanceError("num_vars must be positive")
        if not clauses:
            raise InstanceError("instance has no clauses")
        widths = np.fromiter(map(len, clauses), np.intp, len(clauses))
        k = int(widths[0])
        if k < 2:
            raise InstanceError("clause 1 has fewer than 2 literals")
        # the clauses before the first one of another width are checked first
        uneven = np.flatnonzero(widths != k)
        m = int(uneven[0]) if uneven.size else len(clauses)
        literals = _flat(clauses[:m], m * k).reshape(m, k)
        variables = np.abs(literals)
        # a stable sort by variable puts each repeat after its first occurrence
        order = np.argsort(variables, axis=1, kind="stable")
        ascending = np.take_along_axis(variables, order, axis=1)
        repeated = np.zeros(literals.shape, bool)
        np.put_along_axis(repeated, order[:, 1:], ascending[:, 1:] == ascending[:, :-1], axis=1)
        outside = (literals == 0) | (literals > self.num_vars) | (literals < -self.num_vars)  # abs wraps at int64's min
        faults = outside | repeated
        if faults.any():
            idx = int(faults.any(axis=1).argmax())
            pos = int(faults[idx].argmax())
            lit = clauses[idx][pos]
            if outside[idx, pos]:
                raise InstanceError(f"clause {idx + 1}: literal {lit} out of range 1..{self.num_vars}")
            raise InstanceError(f"clause {idx + 1}: variable {abs(lit)} repeated")
        if uneven.size:
            raise InstanceError(f"clause {m + 1} has {widths[m]} literals, expected uniform K={k}")
        # one block for both: two separate (M, K) arrays made here, before any solve, left
        # nae-large's step loop (1000/2500, 20 restarts) faulting 4.4k-5.9k fresh pages per
        # solve, against 1.5k-2k
        arrays = np.stack([ascending - 1, np.sign(np.take_along_axis(literals, order, axis=1))])
        arrays.flags.writeable = False
        object.__setattr__(self, "_clause_arrays", tuple(arrays))

    @property
    def k(self) -> int:
        """Literals per clause."""
        return len(self.clauses[0])

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def clause_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only zero-based variable indices and literal signs of every clause,
        each (M, K); each row is sorted by variable, every sign kept with its variable."""
        return self._clause_arrays


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph; edges stored as sorted tuples of 1-based node indices.

    The constructor sorts each edge, so graphs with the same edges in any
    node order compare equal and ``format_hypergraph`` round-trips.  It
    checks every edge in one array pass and keeps that pass's sorted rows as
    :attr:`edge_nodes`.
    """

    num_nodes: int
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        edges = tuple(map(tuple, self.hyperedges))
        if self.num_nodes < 1:
            raise InstanceError("num_nodes must be positive")
        if not edges:
            raise InstanceError("hypergraph has no hyperedges")
        sizes = np.fromiter(map(len, edges), np.intp, len(edges))
        flat = _flat(edges, int(sizes.sum()))
        # one row per edge, padded with the largest node so that sorting puts the pads last
        rows = np.repeat(np.arange(len(edges)), sizes)
        cols = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        nodes = np.full((len(edges), sizes.max()), flat.max(initial=0), flat.dtype)
        nodes[rows, cols] = flat
        nodes.sort(axis=1)
        real = np.arange(nodes.shape[1]) < sizes[:, None]
        repeats = (nodes[:, 1:] == nodes[:, :-1]) & real[:, 1:]
        outside = real & ((nodes < 1) | (nodes > self.num_nodes))
        faults = (sizes < 2) | repeats.any(axis=1) | outside.any(axis=1)
        if faults.any():
            idx = int(faults.argmax())
            if sizes[idx] < 2:
                raise InstanceError(f"hyperedge {idx + 1} has fewer than 2 nodes")
            if repeats[idx].any():
                raise InstanceError(f"hyperedge {idx + 1} repeats a node")
            node = nodes[idx, outside[idx].argmax()]
            raise InstanceError(f"hyperedge {idx + 1}: node {node} out of range 1..{self.num_nodes}")
        if not np.array_equal(nodes[rows, cols], flat):  # some edge is out of order
            edges = tuple(tuple(row[:size]) for row, size in zip(nodes.tolist(), sizes.tolist()))
        object.__setattr__(self, "hyperedges", edges)
        # a pad position repeats its edge's first node, which keeps the edge's label set
        nodes = np.where(real, nodes, nodes[:, :1]) - 1
        nodes.flags.writeable = False
        object.__setattr__(self, "_edge_nodes", nodes)

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)

    @property
    def max_edge_size(self) -> int:
        return self.edge_nodes.shape[1]

    @property
    def edge_nodes(self) -> np.ndarray:
        """Read-only zero-based (M, max edge size) node array; each row is padded
        with its first node, which keeps its label set and marks the cut's pad slots."""
        return self._edge_nodes


def _flat(groups, count: int) -> np.ndarray:
    """The ``count`` items of ``groups`` in one int64 array, or in an object
    array when one does not fit int64, so that its range check and message
    keep its exact value."""
    try:
        return np.fromiter(chain.from_iterable(groups), np.int64, count)
    except OverflowError:
        return np.fromiter(chain.from_iterable(groups), object, count)


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


# each latin-1 byte of the data as the integer reader sees it: a digit or sign
# as itself, an ASCII separator (one that str.split splits on) as a space,
# anything else 0
_DATA_BYTES = np.array([c if chr(c) in "+-0123456789" else 32 if c < 128 and chr(c).isspace() else 0
                        for c in range(256)], np.uint8)
_INT64_MAX = np.iinfo(np.int64).max


def _tokenize(text: str, expect_format: str):
    """Split instance text into (header fields, data tokens as one integer
    array), skipping comments.  Lines are split with ``str.splitlines``, as
    ``_format`` writes them, and stripped; comment and header lines are then
    blanked, so line i of the data is line i + 1 of the file."""
    header, late = None, None  # late: an error after data lines, raised once they are read
    lines = [raw.strip() for raw in text.splitlines()]
    for index, line in enumerate(lines):
        head = line[:1]
        if head == "%" and line.split()[0] == "%":  # the token '%' ends the data
            del lines[index:]
            break
        if head == "p":
            if header is not None:
                late = f"line {index + 1}: duplicate header"
                del lines[index:]
                break
            parts = line.split()
            if len(parts) != 4 or parts[1] != expect_format:
                raise InstanceError(f"line {index + 1}: malformed header {line!r}, expected 'p {expect_format} N M'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise InstanceError(f"line {index + 1}: non-integer header fields in {line!r}") from None
            lines[index] = ""
        elif head == "c":
            lines[index] = ""
        elif head and header is None:
            raise InstanceError(f"line {index + 1}: data before 'p {expect_format}' header")
    if header is None:
        raise InstanceError(f"missing 'p {expect_format}' header")
    tokens = _integers(lines)
    if late:
        raise InstanceError(late)
    return header, tokens


def _integers(lines: list[str]) -> np.ndarray:
    """Every token of ``lines`` as one integer array, after one check over
    their joined text that each token is an ASCII signed decimal integer,
    ``[+-]?[0-9]+``.  A token past int64 keeps its exact value in an object
    array."""
    text = "\n".join(lines)
    if not text.isascii():  # str.split's other separators, such as a no-break space, read as spaces
        text = "\n".join(" ".join(line.split()) for line in lines)
    chars = _DATA_BYTES[np.frombuffer(text.encode("latin-1", "replace"), np.uint8)]
    space, sign = chars == 32, (chars == 43) | (chars == 45)
    # a sign opens its token and is followed by a digit
    opens, before_digit = np.ones_like(sign), np.zeros_like(sign)
    opens[1:], before_digit[:-1] = space[:-1], chars[1:] > 47
    faults = (chars == 0) | sign & ~(opens & before_digit)
    if faults.any():
        index = text.count("\n", 0, int(faults.argmax()))
        raise InstanceError(f"line {index + 1}: non-integer token in {lines[index]!r}")
    tokens = np.fromstring(chars.tobytes(), dtype=np.int64, sep=" ")
    past = np.flatnonzero((tokens == _INT64_MAX) | (tokens == -_INT64_MAX - 1))  # where the reader saturates
    if past.size:
        words = text.split()
        tokens = tokens.astype(object)
        tokens[past] = [int(words[i]) for i in past]
    return tokens


def _split_on_zero(tokens: np.ndarray, what: str, promised: int) -> tuple[tuple[int, ...], ...]:
    """The ``0``-terminated groups of ``tokens``, exactly the header's ``promised`` many."""
    ends = np.flatnonzero(tokens == 0)
    if (np.diff(ends, prepend=-1) == 1).any():
        raise InstanceError(f"empty {what} (stray 0 terminator)")
    if tokens.size and tokens[-1] != 0:
        raise InstanceError(f"unterminated {what} at end of input")
    if ends.size != promised:
        raise InstanceError(f"header promises {promised} {what}s, found {ends.size}")
    values, bounds = tuple(tokens.tolist()), [-1, *ends.tolist()]
    return tuple([values[start + 1:end] for start, end in zip(bounds, bounds[1:])])


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text into a :class:`CnfInstance`.

    Raises :class:`InstanceError` on malformed headers, out-of-range or
    repeated variables, a clause count not matching the header, or
    non-uniform clause widths.
    """
    (num_vars, num_clauses), tokens = _tokenize(text, "cnf")
    return CnfInstance(num_vars=num_vars, clauses=_split_on_zero(tokens, "clause", num_clauses))


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse ``p hyp`` text into a :class:`Hypergraph`."""
    (num_nodes, num_edges), tokens = _tokenize(text, "hyp")
    if (tokens < 0).any():
        raise InstanceError("hyperedge lines must contain positive node indices")
    return Hypergraph(num_nodes=num_nodes, hyperedges=_split_on_zero(tokens, "hyperedge", num_edges))


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

"""Phase dynamics for hypergraph Max-K-Cut with K-th-harmonic pinning.

Each node carries a phase; the K partition labels live at the lattice
points 2*pi*k/K.  A pair of phases is compared through

    pair_factor = 1 - (1 - cos(d + f(d))) / 2,      d = wrap(phi_i - phi_j)

where f is the Gaussian bump nearest to d (odd in d): at lattice separation
2*pi*j/K (j != 0) it turns the cosine argument into an odd multiple of pi so
the factor reads 0; equal labels give 1.  For sigma < pi/(37.5*K) (default
1e-3, K <= 83) f equals the sum of all 2(K-1) bumps to below e^-700.  An
edge's indicator, the product of its pair factors, is 1 iff uncut.  The energy

    E = A * sum_m indicator_m - (A_s/K) * sum_i cos(K * phi_i)

is minimized by maximizing the cut; the harmonic term confines phases to
the label lattice.  The drift treats f as locally constant (its slope is
dropped when differentiating), giving the leave-one-out form

    dphi_i/dt = (A/2) * sum_{edges m owning i} sum_{j in m, j != i}
                sin(d_ij + f(d_ij)) * prod of m's other pair factors
                - A_s * sin(K * phi_i)

which avoids the 0/0 of dividing the indicator by a vanishing factor.

Edges share pairs, so the wrap, the penalty, the cosine and the sine run
once per distinct pair: one ``np.unique`` numbers the keys i*N + j (N*N
must fit int64) of the W = C(S, 2) position-pair slots per ``edge_nodes``
row, S the largest edge size.  A slot past its edge's size keys 0, pair 0,
node 1 with itself: d = 0 and f(0) = 0 give factor 1 and gain 0 exactly.
Evaluation is node-major (phases read as phi.T): each pair row and slot row
holds a contiguous block over the batch, and the leave-one-out product is
an exclusive prefix pass over the W slot rows, then a suffix pass.  Slot
(a, b) adds +g to edge position a and -g to b in an (S, M) node-slot table,
summed by node as NAE's index form sums its (K, M) slot gains: one
``reduceat`` over ``naesat._index_scatter``'s segments, O(M*W + N) storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import Hypergraph
from .naesat import _check_constants, _check_pair_keys, _index_scatter

DEFAULT_SIGMA = 1e-3
TWO_PI = 2.0 * np.pi
_EXP_FLOOR = -700.0  # e^-700 ~ 1e-304 is negligible; exp underflows slowly below it
SIGMA_MIN = np.pi / np.sqrt(np.finfo(float).max)  # keeps the bump exponent below float max / 2


def default_constants(k: int) -> tuple[float, float, bool]:
    """(coupling A, harmonic strength A_s, whether tuned for this K)."""
    return (15.0 if k <= 3 else 10.0), 10.0, k <= 4


def wrap_angle(x):
    """Reduce an angle difference to the principal range (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return x - TWO_PI * np.ceil(x / TWO_PI - 0.5)


def phase_penalty(delta, k: int, sigma: float):
    """Gaussian-bump phase shift f(delta) for K partitions: the bump nearest
    to |delta|, centred at c_j = 2*pi*j/K with amplitude (2j-1)*pi - c_j and
    width ``sigma``, signed like ``delta`` (so f(0) = 0 and f is odd).
    ``delta`` is expected in (-pi, pi]; for K = 2 the amplitude is 0."""
    if k < 2:
        raise ValueError("need at least 2 partitions")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    d = np.asarray(delta, dtype=float)
    size = np.abs(d)
    j = np.minimum(np.maximum(np.rint(size * (k / TWO_PI)), 1), k - 1)
    centre = TWO_PI * j / k
    bump = np.exp(np.maximum((size - centre) ** 2 / (-2.0 * sigma**2), _EXP_FLOOR))
    return np.sign(d) * ((2.0 * j - 1.0) * np.pi - centre) * bump


@dataclass(frozen=True)
class CutSystem:
    """Energy/drift evaluator for Max-K-Cut on one hypergraph.

    The build numbers the pad pair 0 and the P distinct node pairs 1..P in
    key order (``_pair_i``, ``_pair_j``, shape (P+1,)) and gives each of the
    W x M edge slots its pair id (``_slots``, one row per slot position);
    pad slots take id 0.  Evaluation reads phases node-major, as phi.T.
    ``_members`` (S, S - 1) holds each position's rows of [g, -g], and
    ``_scatter`` and ``_segments`` add the (S, M) node-slot table up by node
    as ``edge_nodes.T``; a pad position adds +-0 to its edge's first node."""

    instance: Hypergraph
    k_partitions: int
    coupling: float
    harmonic: float
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.k_partitions < 2:
            raise ValueError("need at least 2 partitions")
        bound = 2.0 * np.pi / (8.0 * self.k_partitions)
        if not 0 < self.sigma < bound:
            raise ValueError(f"sigma must be positive and below 2*pi/(8K) = {bound:.6g} "
                             f"for K={self.k_partitions}, got {self.sigma}")
        if self.sigma < SIGMA_MIN:
            raise ValueError(f"sigma {self.sigma} is too small: below pi/sqrt(float max) = {SIGMA_MIN:.3g}, "
                             f"the penalty bump's exponent (size - centre)**2 / (2*sigma**2) can overflow")
        _check_pair_keys(self.instance.num_nodes)
        # slot (a, b), a < b in lexicographic order, keys its node pair i*N + j; past
        # the edge's size, position b repeats the first node and the slot keys 0, the pad
        nodes, n = self.instance.edge_nodes, self.instance.num_nodes
        positions = np.arange(nodes.shape[1])
        a, b = np.nonzero(positions[:, None] < positions)
        second = nodes[:, b]
        pair_keys = np.where(second == nodes[:, :1], 0, nodes[:, a] * n + second)
        _check_constants(self, pair_keys.size, "A*M*W + A_s*N")  # pair_keys holds the M*W slots
        pairs, slots = np.unique(np.concatenate([[0], pair_keys.ravel()]), return_inverse=True)
        pair_i, pair_j = np.divmod(pairs, n)
        scatter, segments = _index_scatter(nodes.T.ravel(), n)
        object.__setattr__(self, "_pair_i", pair_i)
        object.__setattr__(self, "_pair_j", pair_j)
        # stored (W, M): one contiguous row per slot position for the node-major gathers
        object.__setattr__(self, "_slots", slots[1:].reshape(pair_keys.shape).T.copy())
        # position p's rows of [g, -g]: +g of each slot (p, b), then -g of each slot (a, p)
        members = np.argsort(np.concatenate([a, b]), kind="stable").reshape(len(positions), -1)
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_scatter", scatter)
        object.__setattr__(self, "_segments", segments)

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph, k: int, coupling: float | None = None,
                        harmonic: float | None = None, sigma: float | None = None) -> "CutSystem":
        a_default, as_default, _ = default_constants(k)
        return cls(
            instance=graph,
            k_partitions=k,
            coupling=coupling if coupling is not None else a_default,
            harmonic=harmonic if harmonic is not None else as_default,
            sigma=sigma if sigma is not None else DEFAULT_SIGMA,
        )

    @property
    def num_spins(self) -> int:
        return self.instance.num_nodes

    def _pair_deltas(self, phi):
        """Wrapped differences d = wrap(phi_i - phi_j) per pair, node-major:
        ``phi`` is (N, ...), as phases.T, and the result (P+1, ...)."""
        return wrap_angle(np.take(phi, self._pair_i, axis=0) - np.take(phi, self._pair_j, axis=0))

    def _pair_angles(self, phi, penalties=None):
        """d + f(d) per pair, node-major: ``phi`` (N, ...), ``penalties`` and
        the result (P+1, ...); take rows ``_slots`` to reach the edge slots."""
        deltas = self._pair_deltas(phi)
        if penalties is None:
            penalties = phase_penalty(deltas, self.k_partitions, self.sigma)
        return deltas + penalties

    def pair_penalties(self, phases) -> np.ndarray:
        """Penalty values f(d_ij) per pair, pad included, shape (..., P+1),
        at the current state (frozen-f helper)."""
        deltas = self._pair_deltas(np.asarray(phases, dtype=float).T)
        return phase_penalty(deltas, self.k_partitions, self.sigma).T

    def frozen_energy(self, state):
        """Energy with f frozen at ``state``; ``drift`` is its exact negative
        gradient at ``state``."""
        penalties = self.pair_penalties(state)
        return lambda phases: self.energy(phases, penalties=penalties)

    def energy(self, phases, penalties=None) -> float | np.ndarray:
        """Edge indicators summed, plus the K-th-harmonic pinning term.

        Pass ``penalties`` (from :meth:`pair_penalties` at a reference
        state) to evaluate the energy with f frozen.
        """
        return self._evaluate(phases, drift=False, energy=True, penalties=penalties)[1]

    def drift(self, phases, energy: bool = False):
        """dphi/dt with f treated as locally constant (leave-one-out form);
        with ``energy``, the pair (drift, energy) from one pass over the
        shared pair angles and slot factors."""
        out = self._evaluate(phases, drift=True, energy=energy)
        return out if energy else out[0]

    def _evaluate(self, phases, drift: bool, energy: bool, penalties=None):
        """(drift or None, energy or None) at ``phases``; ``penalties`` freeze
        f for the energy and are not given with ``drift``."""
        phi = np.asarray(phases, dtype=float)
        if penalties is not None:
            # batch axes broadcast from the right of the (..., N) and (..., P+1) shapes
            penalties = np.asarray(penalties, dtype=float)
            lead = penalties.ndim - phi.ndim
            phi = phi.reshape((1,) * lead + phi.shape)
            penalties = penalties.reshape((1,) * -lead + penalties.shape).T
        angles = self._pair_angles(phi.T, penalties)
        factors = np.take(0.5 * (1.0 + np.cos(angles)), self._slots, axis=0)  # (W, M, ...)
        out_drift = out_energy = None
        if energy:
            indicators = np.add.reduceat(factors.prod(axis=0), [0], axis=0)[0].T
            pinning = np.add.reduceat(np.cos(self.k_partitions * phi), [0], axis=-1)[..., 0]
            out_energy = self.coupling * indicators - (self.harmonic / self.k_partitions) * pinning
            if out_energy.ndim == 0:
                out_energy = float(out_energy)
        if drift:
            (w, m), batch, size = self._slots.shape, angles.shape[1:], len(self._members)
            signed = np.empty((2 * w, m, *batch))  # [g, -g]; take writes out= unbuffered in mode "clip"
            gain = np.take(0.5 * self.coupling * np.sin(angles), self._slots, axis=0, out=signed[:w], mode="clip")
            # times the product of the edge's other pair factors: an exclusive prefix
            # pass over the W slot rows, then a suffix pass, multiplying as cumprod does
            for rows in (range(w), range(w - 1, -1, -1)):
                run = factors[rows[0]]
                for s in rows[1:]:
                    gain[s] *= run
                    if s != rows[-1]:
                        run = run * factors[s]
            np.negative(gain, out=signed[w:])
            # the (S, M, ...) node-slot table, one members column at a time (one gather of them
            # all read about 2x slower at 200/400), then N zero rows: no node's segment is empty
            buffer = np.zeros((size * m + self.num_spins, *batch))
            table = buffer[:size * m].reshape(size, m, *batch)
            for column in self._members.T:
                table += np.take(signed, column, axis=0)
            coupled = np.add.reduceat(np.take(buffer, self._scatter, axis=0), self._segments, axis=0)
            out_drift = coupled.T - self.harmonic * np.sin(self.k_partitions * phi)
        return out_drift, out_energy


def count_cut(graph: Hypergraph, labels) -> int | np.ndarray:
    """Number of hyperedges whose nodes span at least two labels.

    ``labels`` may carry leading batch dimensions; the graph holds its edges as
    an array, built once: ``graph.edge_nodes``."""
    labels = np.asarray(labels)
    # each position's labels against position 0's, one (..., M) array at a time;
    # a pad position repeats position 0's node, so it never differs
    first, *rest = graph.edge_nodes.T
    head = labels[..., first]
    differs = np.zeros(head.shape, dtype=bool)
    for nodes in rest:
        differs |= labels[..., nodes] != head
    cut = differs.sum(axis=-1)
    return int(cut) if cut.ndim == 0 else cut


def snap_to_labels(phases, k: int) -> np.ndarray:
    """Round each phase to the nearest lattice point 2*pi*j/K and return
    labels in 0..K-1.  An exact tie goes to the lower of its two lattice
    points, so the tie at (2K - 1)*pi/K, between K - 1 and the wrap to 0,
    goes to K - 1.  For K = 2 that sends 3pi/2 to label 1, where
    ``snap_to_spins`` gives +1 (label 0): the two snaps differ at that one point."""
    phi = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    labels = np.ceil(k * phi / (2.0 * np.pi) - 0.5).astype(int)
    return np.mod(labels, k)

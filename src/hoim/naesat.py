"""Phase dynamics for NAE-K-SAT with second-harmonic pinning.

Spin s = +1 maps to phase 0 and s = -1 to phase pi.  Each even-order spin
product s_a s_b s_c s_d ... becomes the cosine of the alternating phase
sum phi_a - phi_b + phi_c - phi_d + ... (indices ascending); at binary
phases the two sides agree exactly, for every even order.  A clause of
width K contributes its indicator terms scaled by 2^(K-1) (integer
couplings) plus a constant 1, so the energy

    E = C * (sum_t w_t cos(psi_t) + M) - (C_s/2) * sum_i cos(2 phi_i)

equals C * 2^(K-1) * (#unsatisfied) - (C_s/2) * N at binary phases.

The couplings come from one pass over the clause arrays: each even-size
subset of a clause's positions is a term weighted by the product of its
literal signs, kept per clause, unmerged (a repeated tuple counts once per
copy, which gives the same sum).  Each pair term adds its weight into a
symmetric, zero-diagonal, integer-valued N x N matrix J at both
orientations; as cos(phi_a - phi_b) = c_a c_b + s_a s_b with c = cos(phi)
and s = sin(phi), the pairs give (c^T J c + s^T J s) / 2 for one cos and
one sin per phase.  Each order >= 4 is M * C(K, r) ascending tuples.
While at least 1/64 of an alternating-sign (N, T) pattern would be nonzero
(``DENSE_FILL``), the terms are its columns and psi = phi @ pattern.
Sparser instances (for K = 4, N > 256) gather psi node-major, from the
rows of [phi.T, -phi.T], and ``_scatter_add`` sums the drift back by variable
as it does the cut's; every step of that form is elementwise, a gather or a
per-column reduction, so each batch row is evaluated exactly as it would be alone.
The drift is the exact negative gradient: the pairs give
s * (J c) - c * (J s), a higher-order term w cos(psi) gives +/- w sin(psi)
to each member phase, the sign given by the member's position parity in
the ascending tuple, and the pinning term gives -C_s sin(2 phi_i).  Energy
is then a Lyapunov function of the flow.

A :class:`NaeSystem` holds the CNF instance it was built from and builds
its couplings once, on construction; ``engine.run`` scores against that
instance only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .instances import CnfInstance
# re-exported: the benchmark tracer (perfbench/tracing.py) wraps naesat.build_objective
from .polynomial import build_objective  # noqa: F401
from .polynomial import check_clause_width


# The order >= 4 terms keep the dense (N, T) pattern while at least 1/64 of
# it is nonzero, N*T <= DENSE_FILL * nnz with nnz = sum_r r*T_r; sparser
# instances gather and scatter through index arrays.  For K = 4 the index
# form starts past N = 256.  Order >= 4 part of one drift, planted NAE-4,
# 20 restarts, in us, the better of two runs (2 vCPU, numpy 2.4.6, OpenBLAS
# on 1 thread); the two forms are close near 200/500:
#
#     N/M       20/50  100/250  200/500  300/750  400/1000  1000/2500
#     dense        15      137      636     1060      1672       7927
#     index        52      254      565      768      1077       2868
DENSE_FILL = 64


def default_constants(k: int) -> tuple[float, float, bool]:
    """(coupling C, harmonic strength C_s, whether tuned for this K).  Only
    K=4 is tuned; other widths reuse its constants, flagged as untuned."""
    return 10.0 / 8.0, 5.0, k == 4


@dataclass(frozen=True)
class NaeSystem:
    """Energy/drift evaluator for one NAE-K-SAT instance.

    The couplings are the indicator polynomial of ``instance`` scaled by
    2^(K-1), so they are integers, built per clause in one pass over the even
    orders: the order-2 terms summed into the matrix ``_pairs`` (J), the
    orders >= 4 kept unmerged as ``_tuples`` (one ascending (T_r, r) array
    per order, in clause order) and ``_weights`` (+-1 each).  Those terms
    are evaluated through the dense ``_pattern`` when
    N * T <= DENSE_FILL * nnz, nnz = sum_r r * T_r, and otherwise through
    index arrays (``_pattern`` is None): ``_gather`` reads psi from the rows of
    [phi.T, -phi.T], ``_scatter`` and ``_segments`` add +-w sin(psi) back up by
    variable.  The clause count supplies the +1-per-clause energy offset.
    """

    instance: CnfInstance
    coupling: float
    harmonic: float

    def __post_init__(self):
        check_clause_width(self.instance.k)
        n, k = self.instance.num_vars, self.instance.k
        _check_constants(self, self.instance.num_clauses * 2 ** (k - 1), "C*M*2^(K-1) + C_s*N")
        variables, signs = self.instance.clause_arrays
        # every even-size subset of clause positions is a term weighted by the
        # product of its signs, kept per clause in clause order; clause_arrays
        # rows ascend by variable, so every tuple does
        tuples, weights = [], []
        for r in range(2, k + 1, 2):
            positions = np.array(list(combinations(range(k), r)))
            tuples.append(variables[:, positions].reshape(-1, r))
            weights.append(signs[:, positions].prod(axis=-1).ravel())
        # each pair term adds its weight to J at both orientations
        (i, j), w = tuples.pop(0).T, weights.pop(0)
        pairs = np.bincount(np.r_[i * n + j, j * n + i], np.r_[w, w], minlength=n * n).reshape(n, n)
        n_terms = sum(map(len, weights))
        dense = n * n_terms <= DENSE_FILL * sum(t.size for t in tuples)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_tuples", tuple(tuples))
        object.__setattr__(self, "_weights", np.concatenate([np.zeros(0)] + weights))
        object.__setattr__(self, "_pattern", _pattern(n, tuples) if dense else None)
        if not dense:
            # psi adds up the signed phase rows [phi.T, -phi.T] one tuple position
            # at a time; the odd positions read -phi
            parity = [np.arange(t.shape[1]) % 2 for t in tuples]
            object.__setattr__(self, "_gather", tuple((t + n * p).T.copy() for t, p in zip(tuples, parity)))
            # each variable's drift sums the entries of [g, -g, 0...], g = w sin(psi),
            # that its tuple positions read, plus a 0, so no segment is empty
            starts = np.cumsum([0] + [len(t) for t in tuples])
            entries = np.concatenate([start + np.arange(len(t))[:, None] + n_terms * p
                                      for start, t, p in zip(starts, tuples, parity)]
                                     + [np.full(n, 2 * n_terms)], axis=None)
            order, segments = _index_scatter(np.concatenate([t.ravel() for t in tuples]), n)
            object.__setattr__(self, "_scatter", entries[order])
            object.__setattr__(self, "_segments", segments)

    @classmethod
    def from_instance(cls, instance: CnfInstance, coupling: float | None = None,
                      harmonic: float | None = None) -> "NaeSystem":
        """Build the system with the default constants for the clause width
        wherever ``coupling`` or ``harmonic`` is left unset."""
        c_default, cs_default, _ = default_constants(instance.k)
        return cls(
            instance=instance,
            coupling=coupling if coupling is not None else c_default,
            harmonic=harmonic if harmonic is not None else cs_default,
        )

    @property
    def num_spins(self) -> int:
        return self.instance.num_vars

    def frozen_energy(self, state):
        """The energy itself: ``drift`` is its exact negative gradient everywhere."""
        return self.energy

    def energy(self, phases: np.ndarray) -> float | np.ndarray:
        """Lyapunov energy; supports leading batch dimensions."""
        return self._evaluate(phases, drift=False, energy=True)[1]

    def drift(self, phases: np.ndarray, energy: bool = False):
        """dphi/dt = -dE/dphi, evaluated analytically; with ``energy``, the
        pair (drift, energy) from one pass over the shared cos, sin, J
        products and psi."""
        out = self._evaluate(phases, drift=True, energy=energy)
        return out if energy else out[0]

    def _evaluate(self, phases, drift: bool, energy: bool):
        """(drift or None, energy or None) at ``phases``."""
        phi = np.asarray(phases, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        cj, sj, psi = c @ self._pairs, s @ self._pairs, self._psi(phi)
        out_drift = out_energy = None
        if drift:
            coupled = s * cj - c * sj + self._higher_drift(psi)
            out_drift = self.coupling * coupled - 2.0 * self.harmonic * s * c  # sin 2phi = 2 s c
        if energy:
            pairs = 0.5 * (c * cj + s * sj).sum(axis=-1)
            pinning = 0.5 * self.harmonic * (c * c - s * s).sum(axis=-1)  # cos 2phi
            out_energy = self.coupling * (pairs + self._higher_energy(psi) + self.instance.num_clauses) - pinning
            if out_energy.ndim == 0:
                out_energy = float(out_energy)
        return out_drift, out_energy

    def _psi(self, phi):
        """The alternating phase sum of every order >= 4 term: phi @ pattern,
        (..., T), in the dense form; in the index form added up position by
        position, node-major: (T, ...) from ``phi`` (..., N)."""
        if self._pattern is not None:
            return phi @ self._pattern
        signed = np.concatenate([phi.T, -phi.T])
        parts = []
        for positions in self._gather:
            psi = np.take(signed, positions[0], axis=0)
            for p in positions[1:]:
                psi += np.take(signed, p, axis=0)
            parts.append(psi)
        return np.concatenate(parts)

    def _higher_energy(self, psi):
        """sum_t w_t cos(psi_t) over the orders >= 4, from ``_psi``."""
        if self._pattern is not None:
            return np.cos(psi) @ self._weights
        # one reduceat segment sums each column on its own: .sum(0) would sum the
        # batch columns of the gather's layout in another order than a solo one
        return np.add.reduceat((np.cos(psi).T * self._weights).T, [0], axis=0)[0].T

    def _higher_drift(self, psi):
        """The orders >= 4 part of the drift, from ``_psi``: +-w_t sin(psi_t)
        to each member of term t."""
        if self._pattern is not None:
            return (np.sin(psi) * self._weights) @ self._pattern.T
        return _scatter_add((np.sin(psi).T * self._weights).T, self._scatter, self._segments).T


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


def _index_scatter(keys, n: int):
    """Index form of a scatter-add into n variables: item e goes to variable
    ``keys[e]``, then item len(keys) + v, a zero, to variable v, so no run is
    empty.  Returns the items sorted stably by variable and each run's start."""
    keys = np.concatenate([keys, np.arange(n)])
    counts = np.bincount(keys, minlength=n)
    order = np.argsort(keys.astype(np.min_scalar_type(n)), kind="stable")  # radix sort to N = 65535
    return order, np.cumsum(counts) - counts


def _scatter_add(g, scatter, segments):
    """Add up the rows [g, -g, 0...] by variable, node-major: ``g`` is
    (items, ...), the result (N, ...); no sum crosses batch columns."""
    gains = np.zeros((2 * len(g) + len(segments), *g.shape[1:]))  # one buffer, not three: fewer fresh pages
    gains[:len(g)] = g
    np.negative(g, out=gains[len(g):2 * len(g)])
    return np.add.reduceat(np.take(gains, scatter, axis=0), segments, axis=0)


def _pattern(n: int, tuples) -> np.ndarray:
    """The dense (N, T) form: one column per term, +1 at the even positions of
    its ascending tuple and -1 at the odd ones."""
    pattern = np.zeros((n, sum(map(len, tuples))))  # filled in place: the build's largest array
    start = 0
    for t in tuples:
        pattern[t, start + np.arange(len(t))[:, None]] = (-1.0) ** np.arange(t.shape[1])
        start += len(t)
    return pattern


def snap_to_spins(phases: np.ndarray) -> np.ndarray:
    """Round each phase to the nearer of {0, pi} and return spins in {-1,+1}.

    Exact ties at pi/2 or 3pi/2 resolve to +1.  ``snap_to_labels(phases, 2)``
    sends 3pi/2 to label 1 (spin -1), so the two snaps differ at that one point.
    """
    phi = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    plus = (phi <= np.pi / 2) | (phi >= 3 * np.pi / 2)
    return np.where(plus, 1, -1)

"""Phase dynamics for NAE-K-SAT with second-harmonic pinning.

Spin s = +1 maps to phase 0 and s = -1 to phase pi.  Each even-order spin
product s_a s_b s_c s_d ... becomes the cosine of the alternating phase
sum phi_a - phi_b + phi_c - phi_d + ... (indices ascending); at binary
phases the two sides agree exactly, for every even order.  A clause of
width K contributes its indicator terms scaled by 2^(K-1) (integer
couplings) plus a constant 1, so the energy

    E = C * (sum_t w_t cos(psi_t) + M) - (C_s/2) * sum_i cos(2 phi_i)

equals C * 2^(K-1) * (#unsatisfied) - (C_s/2) * N at binary phases.

The couplings come straight from the clause arrays: a term's weight is the
product of its literal signs, and equal tuples are merged.  Order-2 terms
form a symmetric, zero-diagonal, integer-valued N x N matrix J; with
c = cos(phi) and s = sin(phi), cos(phi_a - phi_b) = c_a c_b + s_a s_b, so
their part of the sum is (c^T J c + s^T J s) / 2 and costs one cos and one
sin per phase.  Orders >= 4 keep an alternating-sign (N, T) pattern with
psi = phi @ pattern.  The drift is the exact negative gradient: the pairs
give s * (J c) - c * (J s), a higher-order term w cos(psi) gives
+/- w sin(psi) to each member phase, the sign given by the member's
position parity in the ascending tuple, and the pinning term gives
-C_s sin(2 phi_i).  Energy is then a Lyapunov function of the flow.

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
from .polynomial import check_clause_width, clause_arrays

# Phase-coupling constants that work well per clause width; only K=4 is
# tuned, other widths reuse it and are flagged as untuned defaults.
_TUNED_CONSTANTS = {4: (10.0 / 8.0, 5.0)}
_FALLBACK_CONSTANTS = (10.0 / 8.0, 5.0)


def default_constants(k: int) -> tuple[float, float, bool]:
    """(coupling C, harmonic strength C_s, whether tuned for this K)."""
    if k in _TUNED_CONSTANTS:
        return (*_TUNED_CONSTANTS[k], True)
    return (*_FALLBACK_CONSTANTS, False)


@dataclass(frozen=True)
class NaeSystem:
    """Energy/drift evaluator for one NAE-K-SAT instance.

    The couplings are the indicator polynomial of ``instance`` scaled by
    2^(K-1), so they are integers: the order-2 terms in the matrix
    ``_pairs`` (J), the orders >= 4 in ``_pattern`` and ``_weights``.  The
    clause count supplies the +1-per-clause energy offset.
    """

    instance: CnfInstance
    coupling: float
    harmonic: float

    def __post_init__(self):
        if not (np.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError("coupling must be positive and finite")
        if not (np.isfinite(self.harmonic) and self.harmonic >= 0):
            raise ValueError("harmonic strength must be non-negative and finite")
        check_clause_width(self.instance.k)
        n, k = self.instance.num_vars, self.instance.k
        variables, signs = clause_arrays(self.instance)
        order = np.argsort(variables, axis=1)
        variables = np.take_along_axis(variables, order, axis=1)
        signs = np.take_along_axis(signs, order, axis=1)
        pairs = np.zeros((n, n))
        # seeded empty: widths 2 and 3 have no terms past the pairs
        blocks, weights = [np.zeros((n, 0))], [np.zeros(0)]
        for r in range(2, k + 1, 2):
            # every r-subset of clause positions, merged across clauses
            positions = np.array(list(combinations(range(k), r)))
            tuples, inverse = np.unique(variables[:, positions].reshape(-1, r), axis=0,
                                        return_inverse=True)
            w = np.bincount(inverse.ravel(), weights=signs[:, positions].prod(axis=-1).ravel())
            tuples, w = tuples[w != 0], w[w != 0]
            if r == 2:
                pairs[tuples[:, 0], tuples[:, 1]] = w
                pairs[tuples[:, 1], tuples[:, 0]] = w
                continue
            # +1 at even positions of the ascending tuple, -1 at odd
            block = np.zeros((n, len(w)))
            block[tuples, np.arange(len(w))[:, None]] = (-1.0) ** np.arange(r)
            blocks.append(block)
            weights.append(w)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_pattern", np.hstack(blocks))
        object.__setattr__(self, "_weights", np.concatenate(weights))

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
        phi = np.asarray(phases, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        pairs = 0.5 * (c * (c @ self._pairs) + s * (s @ self._pairs)).sum(axis=-1)
        higher = np.cos(phi @ self._pattern) @ self._weights
        pinning = 0.5 * self.harmonic * (c * c - s * s).sum(axis=-1)  # cos 2phi
        out = self.coupling * (pairs + higher + self.instance.num_clauses) - pinning
        return float(out) if out.ndim == 0 else out

    def drift(self, phases: np.ndarray) -> np.ndarray:
        """dphi/dt = -dE/dphi, evaluated analytically."""
        phi = np.asarray(phases, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        higher = (np.sin(phi @ self._pattern) * self._weights) @ self._pattern.T
        coupled = s * (c @ self._pairs) - c * (s @ self._pairs) + higher
        return self.coupling * coupled - 2.0 * self.harmonic * s * c  # sin 2phi = 2 s c


def snap_to_spins(phases: np.ndarray) -> np.ndarray:
    """Round each phase to the nearer of {0, pi} and return spins in {-1,+1}.

    Exact ties at pi/2 or 3pi/2 resolve to +1.
    """
    phi = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    plus = (phi <= np.pi / 2) | (phi >= 3 * np.pi / 2)
    return np.where(plus, 1, -1)

"""Phase dynamics for NAE-K-SAT with second-harmonic pinning.

Spin s = +1 maps to phase 0 and s = -1 to phase pi.  Each even-order spin
product s_a s_b s_c s_d ... becomes the cosine of the alternating phase
sum phi_a - phi_b + phi_c - phi_d + ... (indices ascending); at binary
phases the two sides agree exactly, for every even order.  A clause of
width K contributes its indicator terms scaled by 2^(K-1) (integer
couplings) plus a constant 1, so the energy

    E = C * (sum_t w_t cos(psi_t) + M) - (C_s/2) * sum_i cos(2 phi_i)

equals C * 2^(K-1) * (#unsatisfied) - (C_s/2) * N at binary phases.  The
drift is the exact negative gradient: a term w cos(psi) contributes
+/- C w sin(psi) to each member phase, the sign given by the member's
position parity in the ascending tuple, and the pinning term contributes
-C_s sin(2 phi_i).  Energy is then a Lyapunov function of the flow.

A :class:`NaeSystem` holds the CNF instance it was built from and expands
it once, on construction; ``engine.run`` scores against that instance only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import CnfInstance
from .polynomial import build_objective

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
    2^(K-1), so they are integers; the clause count supplies the
    +1-per-clause energy offset.
    """

    instance: CnfInstance
    coupling: float
    harmonic: float

    def __post_init__(self):
        if not (np.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError("coupling must be positive and finite")
        if not (np.isfinite(self.harmonic) and self.harmonic >= 0):
            raise ValueError("harmonic strength must be non-negative and finite")
        # Alternating-sign membership matrix (N, T): +1 at even positions of
        # the ascending tuple, -1 at odd.  psi = phi @ P, drift = sin @ P.T.
        objective = build_objective(self.instance)
        scale = 2 ** (self.instance.k - 1)  # dyadic coefficients: the product is exact
        pattern = np.zeros((self.instance.num_vars, len(objective.terms)))
        weights = np.zeros(len(objective.terms))
        for col, (variables, coeff) in enumerate(objective.terms):
            weights[col] = float(coeff) * scale
            for pos, v in enumerate(variables):
                pattern[v - 1, col] = 1.0 if pos % 2 == 0 else -1.0
        object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_weights", weights)

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

    def alternating_sums(self, phases: np.ndarray) -> np.ndarray:
        """psi_t = phi_a - phi_b + phi_c - ... for each term tuple."""
        return np.asarray(phases, dtype=float) @ self._pattern

    def energy(self, phases: np.ndarray) -> float | np.ndarray:
        """Lyapunov energy; supports leading batch dimensions."""
        phi = np.asarray(phases, dtype=float)
        coupled = np.cos(self.alternating_sums(phi)) @ self._weights + self.instance.num_clauses
        pinning = 0.5 * self.harmonic * np.cos(2.0 * phi).sum(axis=-1)
        out = self.coupling * coupled - pinning
        return float(out) if out.ndim == 0 else out

    def drift(self, phases: np.ndarray) -> np.ndarray:
        """dphi/dt = -dE/dphi, evaluated analytically."""
        phi = np.asarray(phases, dtype=float)
        sines = np.sin(self.alternating_sums(phi)) * self._weights
        return self.coupling * (sines @ self._pattern.T) - self.harmonic * np.sin(2.0 * phi)


def snap_to_spins(phases: np.ndarray) -> np.ndarray:
    """Round each phase to the nearer of {0, pi} and return spins in {-1,+1}.

    Exact ties at pi/2 or 3pi/2 resolve to +1.
    """
    phi = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    plus = (phi <= np.pi / 2) | (phi >= 3 * np.pi / 2)
    return np.where(plus, 1, -1)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import CnfInstance
from .polynomial import InteractionPolynomial, build_objective

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

    ``objective`` must contain even-order terms only; coefficients are the
    integer couplings (indicator coefficients scaled by 2^(K-1)) and
    ``num_clauses`` supplies the +1-per-clause energy offset.
    """

    objective: InteractionPolynomial
    coupling: float
    harmonic: float
    num_vars: int
    num_clauses: int

    def __post_init__(self):
        if any(order % 2 for order in self.objective.orders()):
            raise ValueError("phase construction requires even-order terms only")
        if not (np.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError("coupling must be positive and finite")
        if not (np.isfinite(self.harmonic) and self.harmonic >= 0):
            raise ValueError("harmonic strength must be non-negative and finite")
        if self.objective.terms and max(vs[-1] for vs, _ in self.objective.terms) > self.num_vars:
            raise ValueError("term index exceeds num_vars")
        # Alternating-sign membership matrix (N, T): +1 at even positions of
        # the ascending tuple, -1 at odd.  psi = phi @ P, drift = sin @ P.T.
        n = self.num_vars
        t = len(self.objective.terms)
        pattern = np.zeros((n, t))
        weights = np.zeros(t)
        for col, (variables, coeff) in enumerate(self.objective.terms):
            weights[col] = float(coeff)
            for pos, v in enumerate(variables):
                pattern[v - 1, col] = 1.0 if pos % 2 == 0 else -1.0
        object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_weights", weights)

    @classmethod
    def from_instance(cls, instance: CnfInstance, coupling: float | None = None,
                      harmonic: float | None = None) -> "NaeSystem":
        """Build the system from a CNF instance, scaling the indicator
        polynomial by 2^(K-1) so couplings are integers."""
        c_default, cs_default, _ = default_constants(instance.k)
        poly = build_objective(instance)
        scale = 2 ** (instance.k - 1)
        scaled = InteractionPolynomial(
            terms=tuple((vs, coeff * scale) for vs, coeff in poly.terms),
            constant=poly.constant * scale,
        )
        return cls(
            objective=scaled,
            coupling=coupling if coupling is not None else c_default,
            harmonic=harmonic if harmonic is not None else cs_default,
            num_vars=instance.num_vars,
            num_clauses=instance.num_clauses,
        )

    @property
    def num_spins(self) -> int:
        return self.num_vars

    def frozen_energy(self, state):
        """The energy itself: ``drift`` is its exact negative gradient everywhere."""
        return self.energy

    def alternating_sums(self, phases: np.ndarray) -> np.ndarray:
        """psi_t = phi_a - phi_b + phi_c - ... for each term tuple."""
        return np.asarray(phases, dtype=float) @ self._pattern

    def energy(self, phases: np.ndarray) -> float | np.ndarray:
        """Lyapunov energy; supports leading batch dimensions."""
        phi = np.asarray(phases, dtype=float)
        coupled = np.cos(self.alternating_sums(phi)) @ self._weights + self.num_clauses
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

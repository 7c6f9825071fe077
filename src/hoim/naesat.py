"""Phase dynamics for NAE-K-SAT with second-harmonic pinning.

Spin s = +1 maps to phase 0 and s = -1 to phase pi.  Each even-order spin
product s_a s_b s_c s_d ... becomes the cosine of the alternating phase
sum phi_a - phi_b + phi_c - phi_d + ... (indices ascending); at binary
phases the two sides agree exactly, for every even order.  A clause of
width K contributes its indicator terms scaled by 2^(K-1) (integer
couplings) plus a constant 1, so the energy

    E = C * (sum_t w_t cos(psi_t) + M) - (C_s/2) * sum_i cos(2 phi_i)

equals C * 2^(K-1) * (#unsatisfied) - (C_s/2) * N at binary phases.

The terms are every even-size subset of a clause's positions, weighted by
the product of its literal signs and kept per clause, unmerged (a repeated
tuple counts once per copy, which gives the same sum).  Two forms evaluate
them.  Up to N = ``DENSE_N`` variables, at K <= 4 only, each pair term adds
its weight into a symmetric, zero-diagonal, integer N x N matrix J at both
orientations; as cos(phi_a - phi_b) = c_a c_b + s_a s_b with c = cos(phi)
and s = sin(phi), the pairs give (c^T J c + s^T J s) / 2 and the drift
s * (J c) - c * (J s).  At K = 4 a clause's one order-4 term is the clause
itself, a column of an (N, M) pattern: +1 at its first and third variables
and -1 at its second and fourth.  Then psi = phi @ pattern, and a term
w cos(psi) gives +/- w sin(psi) to each member phase, by its column's sign.
K <= 3 has no such term.

Past that cutoff, and at K >= 5 at every N (see ``DENSE_N``), one pass per
clause reads its K slot phasors
w_a = sigma_a e^(i phi_a) node-major, from cos and sin of phi.T, as the cut
reads its phases.  With S = sum_a w_a, the clause's pairs are
(|S|^2 - K)/2 with drift Im(w_a conj S) to slot a, and each order >= 4
tuple is Re z of its alternating product z = w_p1 conj(w_p2) w_p3 ...,
with drift +/- Im z to its members by position parity (K <= 3 has no such
tuple).  One ``reduceat`` over the segments of ``_index_scatter`` sums the
(K, M) slot gains by variable, as the cut sums its (S, M) node-slot gains.
That form stores O(K * M + N) numbers, takes no trig past cos and sin of
phi, and every step of it is elementwise, a gather or a sum along a leading
axis, so each batch row is evaluated exactly as it would be alone.

In both forms the pinning term gives -C_s sin(2 phi_i); the drift is the
exact negative gradient, so the energy is a Lyapunov function of the flow.

A :class:`NaeSystem` holds the CNF instance it was built from and builds
its couplings once, on construction; ``engine.run`` scores against that
instance only.  Helpers shared with the cut come from :mod:`instances`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .instances import CnfInstance, _check_constants, _check_pair_keys, _index_scatter, check_clause_width
from .polynomial import build_objective  # noqa: F401  (perfbench/tracing.py wraps naesat.build_objective)


# The dense form (J, plus the (N, M) pattern at K = 4) is kept up to N = DENSE_N
# variables at K <= 4 only.  One drift in a noisy Euler loop, planted NAE-K, 20
# restarts, in us, median of 5 interleaved runs (2 vCPU, numpy 2.4.6, OpenBLAS on 1
# thread); K = 4 crosses over near 256, while K = 3 still loses to J at 1000/2500:
#
#     K  form        20/50  100/250  200/500  300/750  1000/2500
#     4  dense          50      383     1060     2022      15899
#        per-clause    153      498     1054     1499       5866
#     3  dense          26      109      262      689       4784
#        per-clause     53      342      668     1521       5802
# Past K = 4 a dense pattern needs all C(K, 4) + C(K, 6) + ... higher-order terms as
# columns.  One drift in engine.run, 20 restarts, best of 5, that pattern / per-clause:
#     K   20/50        100/250        256/640
#     5   130 / 246     840 / 1820    3209 / 3637
#     6   340 / 223    2438 / 2017   10156 / 3860
#     8  2244 / 2448  15868 / 7567   96030 / 15775
# At K = 5 the per-clause pass is slower, but it replays each restart solo and needs
# no code past order 4.
DENSE_N = 256

# The per-clause pass takes its clauses in blocks whose (K, ...) and (T, ...)
# arrays hold about _BLOCK values: the larger of K and a clause's order >= 4
# term count T, times clauses, times restarts.  The pair-factor and member
# gathers hold more per clause at wide K (sum_r r*T_r: 66 values at K = 6,
# 456 at K = 8, against T = 16 and 99); sizing blocks by those measured
# slower, as they then hold few clauses for their numpy calls (step-loop
# drift, 20 restarts: K = 8 320/40 3.2 against 5.0 ms, 1000/1000 50 against
# 90 ms).  _BLOCK is tuned at K = 4 only: NAE-4 1000/2500, 20 restarts, with
# 2^13, 2^14, 2^15 and 2^16: 7.9, 7.0, 6.8 and 7.2 ms (medians of 7; 2 vCPU,
# numpy 2.4.6).
_BLOCK = 2 ** 15


def default_constants(k: int) -> tuple[float, float, bool]:
    """(coupling C, harmonic strength C_s, whether tuned for this K).  Only
    K=4 is tuned; other widths reuse its constants, flagged as untuned."""
    return 10.0 / 8.0, 5.0, k == 4


@dataclass(frozen=True)
class NaeSystem:
    """Energy/drift evaluator for one NAE-K-SAT instance.

    The couplings are the indicator polynomial of ``instance`` scaled by
    2^(K-1), so they are integers: each clause's even-size position subsets,
    weighted by their sign products.  The dense form (N <= DENSE_N and
    K <= 4) stores the order-2 terms summed into the matrix ``_pairs`` (J).
    At K = 4 it stores each clause's order-4 term, in clause order, as a
    column of the (N, M) ``_pattern``, with its sign product in ``_weights``;
    at K <= 3 those are (N, 0) and empty.  The index form (``_pattern`` is
    None: N > DENSE_N or K >= 5) stores the (K, M) clause-slot table ``_rows``,
    each slot's row of the signed phasor table: its variable, plus N where the
    literal is negated.  It stores one clause's order >= 4 terms as index tables
    (``_terms``, see :func:`_term_tables`), and ``_scatter`` and
    ``_segments``, which add the slot gains up by variable.  The clause
    count supplies the +1-per-clause energy offset.
    """

    instance: CnfInstance
    coupling: float
    harmonic: float

    def __post_init__(self):
        check_clause_width(self.instance.k)
        n, k, m = self.instance.num_vars, self.instance.k, self.instance.num_clauses
        _check_pair_keys(n)
        _check_constants(self, m * 2 ** (k - 1), "C*M*2^(K-1) + C_s*N")
        variables, signs = self.instance.clause_arrays
        if n > DENSE_N or k > 4:
            object.__setattr__(self, "_pattern", None)
            # each (K, M) clause slot's row of the phasor table [w, -w]: a negated literal reads -w
            object.__setattr__(self, "_rows", (variables + n * (signs < 0)).T.copy())
            # the order >= 4 terms: every even-size subset of a clause's positions
            positions = [np.array(list(combinations(range(k), r))) for r in range(4, k + 1, 2)]
            object.__setattr__(self, "_terms", _term_tables(positions, k))
            scatter, segments = _index_scatter(variables.T.ravel(), n)
            object.__setattr__(self, "_scatter", scatter)
            object.__setattr__(self, "_segments", segments)
            return
        # each pair of a clause's positions adds the product of its two signs to J at
        # both orientations
        a, b = np.array(list(combinations(range(k), 2))).T
        i, j, w = variables[:, a].ravel(), variables[:, b].ravel(), (signs[:, a] * signs[:, b]).ravel()
        pairs = np.bincount(np.r_[i * n + j, j * n + i], np.r_[w, w], minlength=n * n).reshape(n, n)
        # K = 4's one order-4 term per clause, the clause itself: its pattern column
        # alternates +1, -1 over its ascending variables, weighted by its sign product
        quads = m if k == 4 else 0
        pattern = np.zeros((n, quads))
        pattern[variables[:quads], np.arange(quads)[:, None]] = (-1.0) ** np.arange(k)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_weights", signs[:quads].prod(axis=1).astype(float))
        object.__setattr__(self, "_pattern", pattern)

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
        pair (drift, energy) from one pass over the shared cos and sin and,
        per form, the J products and psi or the clause phasors."""
        out = self._evaluate(phases, drift=True, energy=energy)
        return out if energy else out[0]

    def _evaluate(self, phases, drift: bool, energy: bool):
        """(drift or None, energy or None) at ``phases``."""
        phi = np.asarray(phases, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        if self._pattern is None:
            coupled, clauses = self._clause_pass(c.T, s.T, drift, energy)
        else:
            coupled, clauses = self._dense_pass(phi, c, s, drift, energy)
        out_drift = out_energy = None
        if drift:
            out_drift = self.coupling * coupled - 2.0 * self.harmonic * s * c  # sin 2phi = 2 s c
        if energy:
            pinning = 0.5 * self.harmonic * (c * c - s * s).sum(axis=-1)  # cos 2phi
            out_energy = self.coupling * (clauses + self.instance.num_clauses) - pinning
            if out_energy.ndim == 0:
                out_energy = float(out_energy)
        return out_drift, out_energy

    def _dense_pass(self, phi, c, s, drift: bool, energy: bool):
        """The clause terms' (drift, energy) in the dense form: the pairs from
        J's products with c and s, K = 4's order-4 terms from psi = phi @ pattern."""
        cj, sj, psi = c @ self._pairs, s @ self._pairs, phi @ self._pattern
        coupled = clauses = None
        if drift:
            coupled = s * cj - c * sj + (np.sin(psi) * self._weights) @ self._pattern.T
        if energy:
            clauses = 0.5 * (c * cj + s * sj).sum(axis=-1) + np.cos(psi) @ self._weights
        return coupled, clauses

    def _clause_pass(self, c, s, drift: bool, energy: bool):
        """The clause terms' (drift, energy) in the index form, from node-major
        c = cos(phi).T and s, (N, ...).  Per clause, w_a = sigma_a e^(i phi_a)
        per slot and S = sum_a w_a give the pairs: energy (|S|^2 - K)/2 and
        drift Im(w_a conj S) to slot a.  Each order >= 4 term's alternating
        product z = w_p1 conj(w_p2) w_p3 ... gives Re z to the energy and
        +-Im z to its members by position parity.  The arithmetic is real, on
        (real, imaginary) pairs: numpy's complex products can round otherwise
        at one array shape than at another.  The clauses go in blocks (see
        ``_BLOCK``); the slot gains then add up by variable."""
        n, (k, m), batch = len(c), self._rows.shape, c.shape[1:]
        table = np.empty((2, 2 * n, *batch))  # (real, imaginary) parts of [w, -w]
        table[0, :n], table[1, :n] = c, s
        np.negative(table[:, :n], out=table[:, n:])
        if drift:
            # the slot gains, (K, M, ...), then the zero row each variable's segment ends on
            buffer = np.empty((k * m + n, *batch))
            buffer[k * m:] = 0.0
            gains = buffer[:k * m].reshape(k, m, *batch)
        if energy:
            clauses = np.empty((m, *batch))
        pairs, orders, members = self._terms
        terms = orders[-1][0].stop if orders else 0  # K <= 3 has no order >= 4 terms
        width = max(1, _BLOCK // (max(k, terms) * prod(batch)))
        for block in (slice(lo, lo + width) for lo in range(0, m, width)):
            w = np.take(table, self._rows[:, block], axis=1)  # (2, K, width, ...)
            x, y = _add_rows(w, axis=1)  # S, (real, imaginary), one slot position at a time
            if drift:
                g = np.multiply(w[1], x, out=gains[:, block])
                g -= w[0] * y
            if energy:
                e = np.multiply(x, x, out=clauses[block])
                e += y * y
                e -= k
                e *= 0.5
            if not terms:
                continue
            z = np.empty((3, terms, *w.shape[2:]))  # Re z, Im z, -Im z
            _alternating_products(w, pairs, orders, out=z[:2])
            if energy:
                e += _add_rows(z[0])
            if drift:
                # Im z at the members' even positions, -Im z at the odd ones, by slot
                np.negative(z[1], out=z[2])
                g += _add_rows(np.take(z[1:].reshape(2 * terms, *z.shape[2:]), members, axis=0), axis=1)
        coupled = np.add.reduceat(np.take(buffer, self._scatter, axis=0), self._segments, axis=0).T if drift else None
        return coupled, np.add.reduceat(clauses, [0], axis=0)[0].T if energy else None


def _term_tables(positions, k: int):
    """A clause's order >= 4 terms as index tables, from each order's
    ascending position tuples (T_r, r), orders ascending.  A term's
    alternating product w_p1 conj(w_p2) w_p3 ... is the product of the
    factors w_a conj(w_b) of its position pairs (a, b) = (p1, p2), (p3, p4),
    ...: ``pairs`` holds the a slots and the b slots of each such pair, once,
    and ``orders`` each order's span of the T terms and its (T_r, r/2) table
    of pair ids.  ``members`` holds each slot's entries of [Im z, -Im z],
    (K, C): term t at t, or at T + t where the slot sits at an odd position
    of it; every slot is in C = sum_r C(K-1, r-1) terms."""
    ids = {}
    tables = [np.array([[ids.setdefault(pair, len(ids)) for pair in zip(t[0::2], t[1::2])] for t in p.tolist()])
              for p in positions]
    ends = np.cumsum([len(p) for p in positions]).tolist()
    orders = tuple((slice(end - len(t), end), t) for end, t in zip(ends, tables))
    terms = [t for p in positions for t in p.tolist()]
    entries = sorted((slot, t, t + len(terms) * (place % 2))
                     for t, term in enumerate(terms) for place, slot in enumerate(term))
    members = np.array([entry for *_, entry in entries]).reshape(k, -1)
    return np.array(list(ids)).T, orders, members


def _alternating_products(w, pairs, orders, out):
    """Into ``out``, (2, T, ...), each term's alternating product
    z = w_p1 conj(w_p2) w_p3 ..., (real, imaginary), from the slot phasors
    ``w``: the factors w_a conj(w_b) of ``pairs``, then, order by order, each
    term's factors multiplied in one at a time (see :func:`_term_tables`)."""
    a, (u_b, v_b) = np.take(w, pairs[0], axis=1), np.take(w, pairs[1], axis=1)
    u_v_b, v_v_b = a * v_b
    factors = np.multiply(a, u_b, out=a)
    factors[0] += v_v_b
    factors[1] -= u_v_b
    for span, ids in orders:
        re, im = np.take(factors, ids[:, 0], axis=1, out=out[:, span])
        for column in ids.T[1:]:
            a_re, a_im = np.take(factors, column, axis=1)
            re_a_im, im_a_im = re * a_im, im * a_im
            re *= a_re
            im *= a_re
            re -= im_a_im
            im += re_a_im


def _add_rows(x, axis: int = 0):
    """``x`` added up along ``axis``, a leading one, one row at a time.
    np.add.reduce does that unless the values past ``axis`` are a single
    one: numpy adds pairwise along the fast axis, which ``axis`` then is."""
    if x.shape[axis] == 1:  # a lone row, as a view
        return x[(slice(None),) * axis + (0,)]
    if prod(x.shape[axis + 1:]) > 1:
        return np.add.reduce(x, axis=axis)
    out = x.take(0, axis)
    for i in range(1, x.shape[axis]):
        out += x.take(i, axis)
    return out


def snap_to_spins(phases: np.ndarray) -> np.ndarray:
    """Round each phase to the nearer of {0, pi} and return spins in {-1,+1}.

    Exact ties at pi/2 or 3pi/2 resolve to +1.  ``snap_to_labels(phases, 2)``
    sends 3pi/2 to label 1 (spin -1), so the two snaps differ at that one point.
    """
    phi = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    plus = (phi <= np.pi / 2) | (phi >= 3 * np.pi / 2)
    return np.where(plus, 1, -1)

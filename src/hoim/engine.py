"""Noisy explicit integrator with restart fan-out and trajectory capture.

The update is Euler-Maruyama with additive phase noise:

    phi' = wrap(phi + dt * drift(phi) + noise_amp * sqrt(dt) * xi)

with xi standard normal.  Noise follows either a constant schedule or a
linear decay that reaches zero at 80% of ``steps``.  Restart r draws its
initial phases and its entire noise stream from a generator seeded with
``seed + r``, so results are bit-reproducible for a fixed (instance,
config).  The restarts are evolved together as one batch; a cut restart r
replays bit for bit as a solo run seeded ``seed + r``, and so does an NAE
restart past ``naesat.DENSE_N`` variables, or at K >= 5 at any N.  At
N <= DENSE_N with K <= 4 the products with ``J`` and the K = 4 pattern sum
in an order set by the batch shape, so an NAE restart there replays only in
a batch of the same ``restarts`` count.
Every restart integrates to the end of the loop; ``target`` only stops a
restart's recording, and the loop ends early once every restart has stopped.

``run`` and ``lyapunov_audit`` share one step loop, ``_trajectory``.  A
system supplies ``instance``, the CNF or hypergraph it was built from (``run``
accepts that instance only), ``num_spins``, ``energy``, ``drift`` and
``frozen_energy``, the function whose exact negative gradient ``drift`` is at
a given state; the audit holds every step to it.  ``drift(phases,
energy=True)`` returns (drift, energy) from one pass, so a recorded step's
energy comes from that step's drift evaluation, bit for bit the value of
``energy``; only the final state, which needs no drift, calls ``energy``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hypercut import CutSystem, snap_to_labels
from .instances import count_cut, count_satisfied  # looked up here: perfbench/tracing.py wraps engine.count_*
from .naesat import NaeSystem, snap_to_spins

TWO_PI = 2.0 * np.pi
_NOISE_CHUNK = 32


@dataclass(frozen=True)
class SolverConfig:
    """Integration and restart settings.

    A decaying noise schedule reaches zero at 80% of ``steps``.  ``target``
    stops recording a restart once its snapped metric reaches the given value.
    """

    dt: float = 1e-3
    steps: int = 20_000
    noise_amplitude: float = 3.0
    noise_schedule: str = "decay"
    restarts: int = 20
    seed: int = 0
    record_every: int = 100
    target: int | None = None

    def __post_init__(self):
        for name in ("dt", "noise_amplitude"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
            try:
                value = float(value)  # a Fraction would make the phases an object array
            except OverflowError:  # an integer past float range
                value = math.inf
            object.__setattr__(self, name, value)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        for name, least in (("steps", 1), ("restarts", 1), ("seed", 0), ("target", 1), ("record_every", 1)):
            value = getattr(self, name)
            if name == "target" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be " + (">= 1" if least else "non-negative"))
            object.__setattr__(self, name, int(value))  # a numpy integer would wrap in seed + r
        if not (math.isfinite(self.noise_amplitude) and self.noise_amplitude >= 0):
            raise ValueError("noise_amplitude must be non-negative and finite")
        if self.noise_schedule not in ("constant", "decay"):
            raise ValueError("noise_schedule must be 'constant' or 'decay'")

    def noise_at(self, step_index: int) -> float:
        """Noise amplitude applied when advancing from ``step_index``."""
        if self.noise_schedule == "constant":
            return self.noise_amplitude
        decay_step = max(1, int(0.8 * self.steps))
        if step_index >= decay_step:
            return 0.0
        return self.noise_amplitude * (1.0 - step_index / decay_step)


@dataclass(frozen=True)
class TraceRecord:
    restart: int
    step: int
    energy: float
    metric: int


@dataclass(frozen=True)
class RestartSummary:
    """Outcome of one restart.  ``seed`` replays it bit for bit: as a solo run
    for the cut, for NAE past ``naesat.DENSE_N`` variables and for NAE at
    K >= 5, in a batch of the same ``restarts`` count for NAE at N <= DENSE_N
    with K <= 4 (see above).
    ``stopped_early`` is ``steps_run < config.steps``: the restart reached
    ``target`` before the last step, and its recording stopped there."""

    restart: int
    seed: int
    steps_run: int
    stopped_early: bool
    best_metric: int
    best_step: int
    final_metric: int
    final_energy: float


@dataclass(frozen=True)
class SolveResult:
    """Best snapped solution plus the full sampled history of every restart."""

    best_metric: int
    best_assignment: np.ndarray
    best_restart: int
    best_step: int
    final_energy: float  # last recorded energy of the winning restart
    trace: tuple[TraceRecord, ...]
    restarts: tuple[RestartSummary, ...]
    config: SolverConfig


def _dispatch(system, instance):
    """Snap/metric hooks for the two system kinds, once ``instance`` is checked
    to be the one the system was built from."""
    if instance != system.instance:
        raise ValueError("instance does not match the system")
    if isinstance(system, NaeSystem):
        return snap_to_spins, lambda snapped: count_satisfied(instance, snapped)
    if isinstance(system, CutSystem):
        return lambda phi: snap_to_labels(phi, system.k_partitions), lambda snapped: count_cut(instance, snapped)
    raise TypeError(f"unsupported system type {type(system).__name__}")


def _noise_rows(gens, n):
    """Standard normal (restarts, n) rows; restart r reads ``gens[r]``'s stream in order."""
    while True:
        yield from np.stack([g.standard_normal((_NOISE_CHUNK, n)) for g in gens], axis=1)


def _trajectory(system, config: SolverConfig, gens, record_every: int):
    """Yield (phases, energies) for the (restarts, num_spins) phases: the
    initial draw, then the state after each of ``config.steps`` Euler-Maruyama
    steps of the whole batch.  Restart r draws from ``gens[r]``.  The drift at
    phi_s is evaluated before phi_s is yielded; at every ``record_every``-th
    step the same pass gives the energies, and the final state, which needs no
    drift, gets its own ``energy`` call.  Other steps yield ``None``."""
    n = system.num_spins
    phi = np.stack([g.uniform(0.0, TWO_PI, n) for g in gens])
    sqrt_dt = math.sqrt(config.dt)
    noise = _noise_rows(gens, n)
    for s in range(config.steps):
        if s % record_every:
            drift, energies = system.drift(phi), None
        else:
            drift, energies = system.drift(phi, energy=True)
        yield phi, energies
        if not np.isfinite(drift).all():
            bad = np.flatnonzero(~np.isfinite(drift).all(axis=-1))[0]
            raise RuntimeError(f"non-finite drift in restart {int(bad)} at step {s + 1}")
        phi = phi + config.dt * drift
        amp = config.noise_at(s)
        if amp > 0.0:
            phi = phi + amp * sqrt_dt * next(noise)
        phi = np.mod(phi, TWO_PI)
    yield phi, system.energy(phi)


def run(system, config: SolverConfig, instance) -> SolveResult:
    """Integrate ``config.restarts`` independent trajectories and return the
    best snapped solution found, with per-restart traces sampled every
    ``config.record_every`` steps (plus the initial and final states)."""
    snap, metric_fn = _dispatch(system, instance)
    n_restarts = config.restarts
    gens = [np.random.default_rng(config.seed + r) for r in range(n_restarts)]

    active = np.ones(n_restarts, dtype=bool)  # restarts still recorded
    best_metric, best_step = np.full(n_restarts, -1), np.zeros(n_restarts, dtype=int)
    best_assignment = 0  # step 0 records every restart, so its snap replaces this
    records = []  # (step, recorded mask, energies, metrics) per record step

    for s, (phi, energies) in enumerate(_trajectory(system, config, gens, config.record_every)):
        if energies is None:
            continue
        bad = active & ~np.isfinite(energies)
        if bad.any():
            raise RuntimeError(f"non-finite energy in restart {int(np.flatnonzero(bad)[0])} at step {s}")
        snapped = snap(phi)
        metrics = metric_fn(snapped)
        better = active & (metrics > best_metric)
        best_metric = np.where(better, metrics, best_metric)
        best_step = np.where(better, s, best_step)
        best_assignment = np.where(better[:, None], snapped, best_assignment)
        records.append((s, active, energies, metrics))
        if config.target is not None:
            active = active & (metrics < config.target)
            if not active.any():
                break

    steps, *columns = zip(*records)
    recorded, energies, metrics = map(np.array, columns)  # (records, restarts)
    summaries = tuple(RestartSummary(
        restart=r, seed=config.seed + r, steps_run=steps[t], stopped_early=steps[t] < config.steps,
        best_metric=int(best_metric[r]), best_step=int(best_step[r]),
        final_metric=int(metrics[t, r]), final_energy=float(energies[t, r]),
    ) for r, t in enumerate(recorded.sum(axis=0) - 1))  # t: the last record (a mask only turns off)
    restart, row = np.nonzero(recorded.T)  # restart-major
    trace = tuple(map(TraceRecord, restart.tolist(), [steps[i] for i in row.tolist()],
                      energies[row, restart].tolist(), metrics[row, restart].tolist()))
    winner = int(np.argmax(best_metric))  # ties: lowest restart
    best = summaries[winner]
    return SolveResult(best_metric=best.best_metric, best_assignment=best_assignment[winner].copy(),
                       best_restart=winner, best_step=best.best_step, final_energy=best.final_energy,
                       trace=trace, restarts=summaries, config=config)


@dataclass(frozen=True)
class AuditReport:
    """Per-step energy accounting of one noise-free trajectory.

    ``max_step_increase`` is the largest rise of the energy over one step.
    ``max_step_increase_clear`` is the largest rise of
    ``system.frozen_energy(phi_s)`` from ``phi_s`` to ``phi_{s+1}``, over
    every step: ``drift`` is that function's exact negative gradient at
    ``phi_s``, so a stable Euler step cannot raise it.  For systems whose
    frozen energy is the energy itself the two figures are equal.
    """

    steps: int
    initial_energy: float
    final_energy: float
    delta_energy: float
    max_step_increase: float
    max_step_increase_clear: float


def lyapunov_audit(system, config: SolverConfig) -> AuditReport:
    """Track the energy along one noise-free trajectory of ``config.steps``
    steps, seeded ``config.seed``.  Requires ``config.noise_amplitude == 0``."""
    if config.noise_amplitude != 0.0:
        raise ValueError("lyapunov audit requires noise_amplitude = 0")
    energies, frozen_rises = [], []
    for phi, energy in _trajectory(system, config, [np.random.default_rng(config.seed)], 1):
        state = phi[0]
        if energies:
            # frozen_energy(x)(x) equals energy(x), so the previous energy is reused
            frozen_rises.append(float(frozen(state)) - energies[-1])
        energies.append(float(energy[0]))
        frozen = system.frozen_energy(state)
    return AuditReport(
        steps=config.steps, initial_energy=energies[0], final_energy=energies[-1],
        delta_energy=energies[-1] - energies[0],
        max_step_increase=float(np.max(np.diff(energies), initial=0.0)),
        max_step_increase_clear=float(np.max(frozen_rises, initial=0.0)),
    )

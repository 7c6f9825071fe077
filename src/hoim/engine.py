"""Noisy explicit integrator with restart fan-out and trajectory capture.

The update is Euler-Maruyama with additive phase noise:

    phi' = wrap(phi + dt * drift(phi) + noise_amp * sqrt(dt) * xi)

with xi standard normal.  Noise follows either a constant schedule or a
linear decay that reaches zero at ``decay_step``.  Restart r draws its
initial phases and its entire noise stream from a generator seeded with
``seed + r``, so results are bit-reproducible for a fixed (instance,
config).  The restarts are evolved together as one batch, and the drift's
floating-point sums depend on the batch shape: restart r replays bit for
bit only inside a batch of the same ``restarts`` count, not as a solo run
seeded ``seed + r`` (ROADMAP item 5).

``run`` and ``lyapunov_audit`` share one step loop, ``_trajectory``.  A
system supplies ``instance``, the CNF or hypergraph it was built from (``run``
accepts that instance only), ``num_spins``, ``energy``, ``drift`` and
``frozen_energy``, the function whose exact negative gradient ``drift`` is at
a given state; the audit holds every step to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercut import CutSystem, count_cut, edge_nodes, snap_to_labels
from .naesat import NaeSystem, snap_to_spins
from .polynomial import clause_arrays, count_satisfied

TWO_PI = 2.0 * np.pi
_NOISE_CHUNK = 256


@dataclass(frozen=True)
class SolverConfig:
    """Integration and restart settings.

    ``decay_step`` is the step at which a decaying noise schedule reaches
    zero; left unset it resolves to 80% of ``steps``.  ``target`` stops a
    restart once its snapped metric reaches the given value.
    """

    dt: float = 1e-3
    steps: int = 20_000
    noise_amplitude: float = 3.0
    noise_schedule: str = "decay"
    decay_step: int | None = None
    restarts: int = 20
    seed: int = 0
    record_every: int = 100
    target: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not (math.isfinite(self.noise_amplitude) and self.noise_amplitude >= 0):
            raise ValueError("noise_amplitude must be non-negative and finite")
        if self.noise_schedule not in ("constant", "decay"):
            raise ValueError("noise_schedule must be 'constant' or 'decay'")
        if self.decay_step is None and self.noise_schedule == "decay":
            object.__setattr__(self, "decay_step", max(1, int(0.8 * self.steps)))

    def noise_at(self, step_index: int) -> float:
        """Noise amplitude applied when advancing from ``step_index``."""
        if self.noise_amplitude == 0.0:
            return 0.0
        if self.noise_schedule == "constant":
            return self.noise_amplitude
        if step_index >= self.decay_step:
            return 0.0
        return self.noise_amplitude * (1.0 - step_index / self.decay_step)


@dataclass(frozen=True)
class TraceRecord:
    restart: int
    step: int
    energy: float
    metric: int


@dataclass(frozen=True)
class RestartSummary:
    """Outcome of one restart.  ``seed`` replays it bit for bit only in a batch
    of the same ``restarts`` count, not in a solo run (see the module docstring)."""

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


def wrap_phases(phases: np.ndarray) -> np.ndarray:
    return np.mod(phases, TWO_PI)


def _dispatch(system, instance):
    """Snap/metric hooks for the two system kinds, once ``instance`` is checked
    to be the one the system was built from."""
    if instance != system.instance:
        raise ValueError("instance does not match the system")
    if isinstance(system, NaeSystem):
        clauses = clause_arrays(instance)
        return snap_to_spins, lambda snapped: count_satisfied(instance, snapped, clauses)
    if isinstance(system, CutSystem):
        k = system.k_partitions
        nodes = edge_nodes(instance)
        return lambda phi: snap_to_labels(phi, k), lambda snapped: count_cut(instance, snapped, nodes)
    raise TypeError(f"unsupported system type {type(system).__name__}")


def _trajectory(system, config: SolverConfig, steps: int, gens, active):
    """Yield the (restarts, num_spins) phases: the initial draw, then the state
    after each of ``steps`` Euler-Maruyama steps.  Restart r draws from
    ``gens[r]``.  Restarts whose ``active`` entry is False keep their phases
    and draw no noise; the caller may clear entries between yields."""
    n = system.num_spins
    phi = np.stack([g.uniform(0.0, TWO_PI, n) for g in gens])
    yield phi
    sqrt_dt = math.sqrt(config.dt)
    noise_buf = np.zeros((len(gens), _NOISE_CHUNK, n))
    buf_pos = _NOISE_CHUNK
    for s in range(1, steps + 1):
        amp = config.noise_at(s - 1)
        drift = system.drift(phi)
        if not np.all(np.isfinite(drift[active])):
            bad = int(np.flatnonzero(active & ~np.isfinite(drift).all(axis=-1))[0])
            raise RuntimeError(f"non-finite drift in restart {bad} at step {s}")
        update = phi + config.dt * drift
        if amp > 0.0:
            if buf_pos >= _NOISE_CHUNK:
                for r in np.flatnonzero(active):
                    noise_buf[r] = gens[r].standard_normal((_NOISE_CHUNK, n))
                buf_pos = 0
            update = update + amp * sqrt_dt * noise_buf[:, buf_pos]
            buf_pos += 1
        phi = np.where(active[:, None], wrap_phases(update), phi)
        yield phi


def run(system, config: SolverConfig, instance) -> SolveResult:
    """Integrate ``config.restarts`` independent trajectories and return the
    best snapped solution found, with per-restart traces sampled every
    ``config.record_every`` steps (plus the initial and final states)."""
    snap, metric_fn = _dispatch(system, instance)
    n_restarts = config.restarts
    gens = [np.random.default_rng(config.seed + r) for r in range(n_restarts)]

    active = np.ones(n_restarts, dtype=bool)
    stopped_early = np.zeros(n_restarts, dtype=bool)
    traces: list[list[TraceRecord]] = [[] for _ in range(n_restarts)]
    best_metric = np.full(n_restarts, -1, dtype=int)
    best_step = np.zeros(n_restarts, dtype=int)
    best_snap: list[np.ndarray | None] = [None] * n_restarts

    def record(step_index: int, phi: np.ndarray):
        energies = system.energy(phi)
        if not np.all(np.isfinite(energies[active])):
            bad = int(np.flatnonzero(active & ~np.isfinite(energies))[0])
            raise RuntimeError(f"non-finite energy in restart {bad} at step {step_index}")
        snapped = snap(phi)
        metrics = np.atleast_1d(metric_fn(snapped))
        for r in np.flatnonzero(active):
            traces[r].append(TraceRecord(restart=int(r), step=step_index,
                                         energy=float(energies[r]), metric=int(metrics[r])))
            if metrics[r] > best_metric[r]:
                best_metric[r] = int(metrics[r])
                best_step[r] = step_index
                best_snap[r] = np.array(snapped[r])
            if config.target is not None and metrics[r] >= config.target:
                active[r] = False
                if step_index < config.steps:
                    stopped_early[r] = True

    for s, phi in enumerate(_trajectory(system, config, config.steps, gens, active)):
        if s % config.record_every == 0 or s == config.steps:
            record(s, phi)
        if not active.any():
            break

    summaries = []
    for r in range(n_restarts):
        last = traces[r][-1]
        summaries.append(RestartSummary(
            restart=r, seed=config.seed + r, steps_run=last.step,
            stopped_early=bool(stopped_early[r]), best_metric=int(best_metric[r]),
            best_step=int(best_step[r]), final_metric=last.metric, final_energy=last.energy,
        ))
    winner = int(np.flatnonzero(best_metric == best_metric.max())[0])
    return SolveResult(
        best_metric=int(best_metric[winner]),
        best_assignment=best_snap[winner],
        best_restart=winner,
        best_step=int(best_step[winner]),
        final_energy=summaries[winner].final_energy,
        trace=tuple(rec for r in range(n_restarts) for rec in traces[r]),
        restarts=tuple(summaries),
        config=config,
    )


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


def lyapunov_audit(system, config: SolverConfig, steps: int | None = None) -> AuditReport:
    """Track the energy along one noise-free trajectory (restart seed 0).

    Requires ``config.noise_amplitude == 0``.  ``steps`` overrides
    ``config.steps`` (0 is allowed and yields an empty report).
    """
    if config.noise_amplitude != 0.0:
        raise ValueError("lyapunov audit requires noise_amplitude = 0")
    n_steps = config.steps if steps is None else steps
    gens = [np.random.default_rng(config.seed)]
    energies, frozen_rises = [], []
    for phi in _trajectory(system, config, n_steps, gens, np.ones(1, dtype=bool)):
        state = phi[0]
        if energies:
            # frozen_energy(x)(x) equals energy(x), so the previous energy is reused
            frozen_rises.append(float(frozen(state)) - energies[-1])
        energies.append(float(system.energy(state)))
        frozen = system.frozen_energy(state)
    return AuditReport(
        steps=n_steps, initial_energy=energies[0], final_energy=energies[-1],
        delta_energy=energies[-1] - energies[0],
        max_step_increase=float(np.max(np.diff(energies), initial=0.0)),
        max_step_increase_clear=float(np.max(frozen_rises, initial=0.0)),
    )

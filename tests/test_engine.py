from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import count

import numpy as np
import pytest

from hoim import engine
from hoim.engine import SolverConfig, lyapunov_audit, run
from hoim.hypercut import CutSystem, count_cut, snap_to_labels
from hoim.instances import CnfInstance, generate_planted_nae, generate_random_hypergraph
from hoim.naesat import NaeSystem, snap_to_spins
from hoim.polynomial import count_satisfied


def nae_setup(seed=1, n=10, m=20, k=4):
    inst, plant = generate_planted_nae(n, m, k, seed=seed)
    return inst, NaeSystem.from_instance(inst)


def cut_setup(seed=1, k=3):
    graph = generate_random_hypergraph(8, 12, 2, 4, seed=seed)
    return graph, CutSystem.from_hypergraph(graph, k)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(steps=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(record_every=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SolverConfig(seed=-1)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="target must be >= 1"):
            SolverConfig(target=bad)
    assert SolverConfig(target=1).target == 1
    with pytest.raises(ValueError):
        SolverConfig(noise_schedule="warp")
    for name in ("steps", "restarts", "seed", "record_every", "target"):
        for bad in (1.5, 2.0, np.float64(3.0), True, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(**{name: bad})
    for name in ("steps", "restarts", "seed", "record_every"):  # only target may be None
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolverConfig(**{name: None})
    for good in (3, np.int64(3), np.int32(3), np.uint8(3)):
        cfg = SolverConfig(steps=good, restarts=good, seed=good, record_every=good, target=good)
        fields = (cfg.steps, cfg.restarts, cfg.seed, cfg.record_every, cfg.target)
        assert fields == (3,) * 5 and all(type(value) is int for value in fields)
    # stored as Python ints, so restart seeds past a numpy type's range do not wrap
    assert SolverConfig(seed=np.uint8(255)).seed + 1 == 256
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt"):
            SolverConfig(dt=bad)
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_amplitude"):
            SolverConfig(noise_amplitude=bad)


def test_config_float_fields_reject_bools():
    for name in ("dt", "noise_amplitude"):
        for bad in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SolverConfig(**{name: bad})


def test_config_float_fields_reject_non_numbers():
    # a ValueError like every other bad setting, not math.isfinite's TypeError
    for name in ("dt", "noise_amplitude"):
        for bad in ("x", "0.1", None, 1j):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SolverConfig(**{name: bad})
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        SolverConfig(dt=10**400)
    # stored as Python floats: a Fraction times the phases would be an object array
    cfg = SolverConfig(dt=Fraction(1, 100), noise_amplitude=np.float32(0.5))
    assert (cfg.dt, cfg.noise_amplitude) == (0.01, 0.5)
    assert type(cfg.dt) is float and type(cfg.noise_amplitude) is float


def test_decay_step_resolves_to_80_percent():
    cfg = SolverConfig(steps=1000, noise_schedule="decay")
    assert cfg.noise_at(0) == cfg.noise_amplitude
    assert cfg.noise_at(400) == pytest.approx(cfg.noise_amplitude / 2)
    assert cfg.noise_at(799) == pytest.approx(cfg.noise_amplitude / 800)
    assert cfg.noise_at(800) == 0.0
    constant = SolverConfig(steps=1000, noise_schedule="constant", noise_amplitude=0.5)
    assert constant.noise_at(999) == 0.5


def test_run_noise_free_is_explicit_euler():
    inst, system = nae_setup()
    cfg = SolverConfig(dt=1e-3, steps=20, noise_amplitude=0.0, noise_schedule="constant",
                       restarts=1, seed=4, record_every=1)
    result = run(system, cfg, inst)
    # a (1, n) batch, as run evaluates its single restart
    phi = np.random.default_rng(4).uniform(0, 2 * np.pi, (1, 10))
    assert [rec.step for rec in result.trace] == list(range(21))
    for rec in result.trace:
        assert rec.energy == float(system.energy(phi)[0])
        assert rec.metric == count_satisfied(inst, snap_to_spins(phi))[0]
        phi = np.mod(phi + 1e-3 * system.drift(phi), 2 * np.pi)


def replayed_phases(system, cfg):
    """The run's batch after each step, from standalone ``drift`` calls and
    each restart's own generator, starting with the initial draw."""
    gens = [np.random.default_rng(cfg.seed + r) for r in range(cfg.restarts)]
    phi = np.stack([g.uniform(0, 2 * np.pi, system.num_spins) for g in gens])
    yield phi
    for s in range(1, cfg.steps + 1):
        amp = cfg.noise_at(s - 1)
        phi = phi + cfg.dt * system.drift(phi)
        if amp > 0:
            phi = phi + amp * np.sqrt(cfg.dt) * np.stack([g.standard_normal(system.num_spins) for g in gens])
        phi = np.mod(phi, 2 * np.pi)
        yield phi


@pytest.mark.parametrize("setup, dt", [(nae_setup, 1e-3), (cut_setup, 1e-2)], ids=["nae", "cut"])
@pytest.mark.parametrize("schedule, amplitude", [("decay", 3.0), ("constant", 0.5)])
def test_noisy_run_is_per_step_euler_maruyama(setup, dt, schedule, amplitude, monkeypatch):
    # 700 steps: both schedules stay noisy across many noise chunks, and a
    # restart's stream must not depend on the chunk size
    instance, system = setup()
    cfg = SolverConfig(dt=dt, steps=700, noise_amplitude=amplitude, noise_schedule=schedule,
                       restarts=3, seed=8, record_every=1)
    results = []
    for chunk in (1, 32):
        monkeypatch.setattr(engine, "_NOISE_CHUNK", chunk)
        results.append(run(system, cfg, instance))
    if isinstance(system, NaeSystem):
        score = lambda phi: count_satisfied(instance, snap_to_spins(phi))
    else:
        score = lambda phi: count_cut(instance, snap_to_labels(phi, system.k_partitions))
    for s, phi in enumerate(replayed_phases(system, cfg)):
        energies, metrics = system.energy(phi), score(phi)
        expected = [(float(energies[r]), int(metrics[r])) for r in range(3)]
        for result in results:
            assert [(rec.energy, rec.metric) for rec in result.trace if rec.step == s] == expected


# one system per evaluation path: NAE through the dense pattern (K = 4 and 6) and
# through index arrays (N > 256), the cut with pad slots and with W = 1
FUSED_SYSTEMS = {
    "nae4-dense": lambda: NaeSystem.from_instance(generate_planted_nae(20, 50, 4, seed=1)[0]),
    "nae6": lambda: NaeSystem.from_instance(generate_planted_nae(20, 50, 6, seed=1)[0]),
    "nae4-index": lambda: NaeSystem.from_instance(generate_planted_nae(300, 750, 4, seed=1)[0]),
    "cut-pads": lambda: CutSystem.from_hypergraph(generate_random_hypergraph(12, 24, 2, 4, seed=1), 3),
    "cut-w1": lambda: CutSystem.from_hypergraph(generate_random_hypergraph(10, 20, 2, 2, seed=3), 3),
}


def fused_system(name):
    system = FUSED_SYSTEMS[name]()
    if name.startswith("nae"):
        assert (system._pattern is None) == (name == "nae4-index")
    else:
        assert (system._slots.shape[0] == 1) == (name == "cut-w1")
        assert (name == "cut-w1") or (system._slots == 0).any()  # pad slots read pair 0
    return system


@pytest.mark.parametrize("name", FUSED_SYSTEMS)
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_fused_drift_and_energy_are_the_standalone_calls(name, batch):
    system = fused_system(name)
    phi = np.random.default_rng(3).uniform(0, 2 * np.pi, (*batch, system.num_spins))
    drift, energy = system.drift(phi, energy=True)
    alone = system.energy(phi)
    assert drift.shape == phi.shape and drift.tobytes() == system.drift(phi).tobytes()
    assert type(energy) is type(alone) and np.shape(energy) == batch
    assert np.asarray(energy).tobytes() == np.asarray(alone).tobytes()


@pytest.mark.parametrize("name", FUSED_SYSTEMS)
def test_recorded_energies_are_the_standalone_energies_of_the_replayed_phases(name):
    # every step recorded: steps 0..steps-1 take the energy from the drift pass,
    # the last from its own call; each must be system.energy of the step's phases
    system = fused_system(name)
    cfg = SolverConfig(dt=1e-2 if name.startswith("cut") else 1e-3, steps=40, restarts=3, seed=5, record_every=1)
    result = run(system, cfg, system.instance)
    for s, phi in enumerate(replayed_phases(system, cfg)):
        recorded = np.array([rec.energy for rec in result.trace if rec.step == s])
        assert recorded.tobytes() == system.energy(phi).tobytes()
    assert np.array([summary.final_energy for summary in result.restarts]).tobytes() == recorded.tobytes()


def test_lyapunov_audit_follows_the_run_trajectory():
    inst, system = nae_setup(seed=4)
    cfg = SolverConfig(dt=1e-3, steps=30, noise_amplitude=0.0, noise_schedule="constant",
                       restarts=1, seed=6, record_every=1)
    trace = run(system, cfg, inst).trace
    report = lyapunov_audit(system, cfg)
    assert report.initial_energy == trace[0].energy
    assert report.final_energy == trace[-1].energy


class _NanDrift:
    num_spins = 3

    def nan_drift(self, phases):
        return np.where(np.arange(3) == 1, np.nan, 0.0) * np.ones_like(phases)

    def drift(self, phases, energy=False):
        drift = self.nan_drift(phases)
        return (drift, self.energy(phases)) if energy else drift

    def energy(self, phases):
        return np.zeros(np.shape(phases)[:-1])

    def frozen_energy(self, state):
        return self.energy


def test_trajectory_raises_on_nonfinite_drift():
    cfg = SolverConfig(dt=1e-3, steps=5, noise_amplitude=0.0)
    with pytest.raises(RuntimeError, match="non-finite drift in restart 0 at step 1"):
        lyapunov_audit(_NanDrift(), cfg)


class _NanDriftInRestart2(_NanDrift):
    def nan_drift(self, phases):
        return np.where(np.arange(len(phases))[:, None] == 2, np.nan, 0.0) * np.ones_like(phases)


def test_trajectory_names_the_first_restart_with_a_nonfinite_drift():
    gens = [np.random.default_rng(r) for r in range(4)]
    cfg = SolverConfig(dt=1e-3, steps=5, noise_amplitude=0.0)
    with pytest.raises(RuntimeError, match="non-finite drift in restart 2 at step 1"):
        list(engine._trajectory(_NanDriftInRestart2(), cfg, gens, cfg.record_every))


@dataclass(frozen=True)
class _NanEnergyInRestart2(NaeSystem):
    """Restart 2's energy is NaN from the ``nan_from``-th energy evaluation on,
    fused with a drift or standalone, which is step ``nan_from`` when every
    step is recorded."""

    nan_from: int = 0
    calls: count = field(default_factory=count, compare=False)

    def drift(self, phases, energy=False):
        if not energy:
            return super().drift(phases)
        drift, out = super().drift(phases, energy=True)
        return drift, self._poison(out)

    def energy(self, phases):
        return self._poison(super().energy(phases))

    def _poison(self, energies):
        out = energies.copy()
        if next(self.calls) >= self.nan_from:
            out[2] = np.nan
        return out


def test_run_raises_on_nonfinite_energy():
    inst, system = nae_setup()
    nan = _NanEnergyInRestart2(inst, system.coupling, system.harmonic, nan_from=5)
    cfg = SolverConfig(dt=1e-3, steps=10, restarts=4, seed=1, record_every=1)
    with pytest.raises(RuntimeError, match="non-finite energy in restart 2 at step 5"):
        run(nan, cfg, inst)


def test_run_ignores_nonfinite_energy_of_a_stopped_restart():
    # restart 2 reaches the target at step 103 while restarts 1 and 3 record to the end
    inst, system = nae_setup()
    cfg = SolverConfig(dt=1e-3, steps=300, restarts=4, seed=1, record_every=1, target=20)
    plain = run(system, cfg, inst)
    stop = plain.restarts[2].steps_run
    assert stop < max(summary.steps_run for summary in plain.restarts)
    nan = _NanEnergyInRestart2(inst, system.coupling, system.harmonic, nan_from=stop + 1)
    result = run(nan, cfg, inst)
    assert result.trace == plain.trace and result.restarts == plain.restarts


def test_run_single_step_trace():
    inst, system = nae_setup()
    cfg = SolverConfig(dt=1e-3, steps=1, noise_amplitude=0.0, noise_schedule="constant",
                       restarts=1, seed=0, record_every=1)
    result = run(system, cfg, inst)
    assert [rec.step for rec in result.trace] == [0, 1]


@pytest.mark.parametrize("system, instance", [
    # same dimensions, other clauses
    (nae_setup(seed=1)[1], nae_setup(seed=2)[0]),
    (nae_setup()[1], CnfInstance(3, ((1, 2, 3),))),
    (nae_setup()[1], cut_setup()[0]),
    (cut_setup()[1], nae_setup()[0]),
    # same size, other edges
    (cut_setup(seed=1)[1], cut_setup(seed=2)[0]),
], ids=["nae-same-dimensions", "nae-other-dimensions", "nae-given-hypergraph",
        "cut-given-cnf", "cut-same-size"])
def test_run_rejects_mismatched_instance(system, instance):
    with pytest.raises(ValueError, match="does not match the system"):
        run(system, SolverConfig(steps=10, restarts=1), instance)


def test_run_rejects_a_system_of_another_kind():
    @dataclass(frozen=True)
    class Holder:
        instance: CnfInstance

    inst = nae_setup()[0]
    with pytest.raises(TypeError, match="unsupported system type Holder"):
        run(Holder(inst), SolverConfig(steps=10, restarts=1), inst)


def test_run_deterministic_and_trace_monotone():
    inst, system = nae_setup()
    cfg = SolverConfig(dt=1e-3, steps=500, restarts=4, seed=3, record_every=50)
    a = run(system, cfg, inst)
    b = run(system, cfg, inst)
    assert a.best_metric == b.best_metric
    assert np.array_equal(a.best_assignment, b.best_assignment)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.restart, ra.step, ra.energy, ra.metric) == (rb.restart, rb.step, rb.energy, rb.metric)
    # per-restart steps strictly increase and the running best never drops
    for r in range(4):
        records = [rec for rec in a.trace if rec.restart == r]
        steps = [rec.step for rec in records]
        assert steps == sorted(set(steps))
        best = -1
        for rec in records:
            best = max(best, rec.metric)
        summary = a.restarts[r]
        assert summary.best_metric == best
    assert a.best_metric == max(rec.metric for rec in a.trace)


def test_run_best_tracking_and_restart_summaries():
    inst, system = nae_setup(seed=2, n=12, m=25)
    cfg = SolverConfig(dt=1e-3, steps=2000, restarts=6, seed=0, record_every=100)
    result = run(system, cfg, inst)
    assert result.best_metric == result.restarts[result.best_restart].best_metric
    assert result.best_metric == max(s.best_metric for s in result.restarts)
    # winner is the first restart attaining the global best
    for summary in result.restarts[: result.best_restart]:
        assert summary.best_metric < result.best_metric
    assert count_satisfied(inst, result.best_assignment) == result.best_metric
    # a restart's best step is the first record at its best metric
    for summary in result.restarts:
        first = next(rec.step for rec in result.trace
                     if rec.restart == summary.restart and rec.metric == summary.best_metric)
        assert summary.best_step == first
    assert result.best_step == result.restarts[result.best_restart].best_step


def test_run_early_stop_on_target():
    inst, system = nae_setup(seed=5, n=12, m=20)
    cfg = SolverConfig(dt=1e-3, steps=20_000, restarts=4, seed=1, record_every=50, target=20)
    result = run(system, cfg, inst)
    assert result.best_metric >= 20
    for summary in result.restarts:
        if summary.stopped_early:
            assert summary.steps_run < 20_000
            records = [rec for rec in result.trace if rec.restart == summary.restart]
            assert records[-1].metric >= 20


@pytest.mark.parametrize("setup, dt, steps, target", [
    (nae_setup, 1e-3, 300, 20),
    (cut_setup, 1e-2, 40, 12),
], ids=["nae", "cut"])
def test_target_stops_recording_only(setup, dt, steps, target):
    # a restart past its target keeps integrating, so the others' records do not change
    instance, system = setup()
    cfg = SolverConfig(dt=dt, steps=steps, restarts=6, seed=2, record_every=7)
    free = run(system, cfg, instance)
    stopped = run(system, replace(cfg, target=target), instance)
    assert any(summary.stopped_early for summary in stopped.restarts)
    assert not all(summary.stopped_early for summary in stopped.restarts)
    for summary in stopped.restarts:
        expected = [rec for rec in free.trace
                    if rec.restart == summary.restart and rec.step <= summary.steps_run]
        assert [rec for rec in stopped.trace if rec.restart == summary.restart] == expected
        assert summary.stopped_early == (summary.steps_run < cfg.steps)


@pytest.mark.parametrize("setup, dt, steps, target", [
    (nae_setup, 1e-3, 300, None),
    (nae_setup, 1e-3, 300, 20),
    (cut_setup, 1e-2, 40, None),
    (cut_setup, 1e-2, 40, 12),
], ids=["nae", "nae-target", "cut", "cut-target"])
def test_best_assignment_is_the_snap_at_best_step(setup, dt, steps, target):
    # replay the batch with the run's generators: the winner's assignment is its
    # row of the snapped state at best_step, bit for bit, and every restart's row
    # at its own best step scores its best metric
    instance, system = setup()
    cfg = SolverConfig(dt=dt, steps=steps, restarts=6, seed=2, record_every=7, target=target)
    result = run(system, cfg, instance)
    if target is not None:
        reached = [summary.best_metric >= target for summary in result.restarts]
        assert any(reached) and not all(reached)
    snap, score = engine._dispatch(system, instance)
    gens = [np.random.default_rng(cfg.seed + r) for r in range(cfg.restarts)]
    snapped = [snap(phi) for phi, _ in engine._trajectory(system, cfg, gens, cfg.record_every)]
    expected = snapped[result.best_step][result.best_restart]
    assert result.best_assignment.dtype == expected.dtype
    assert result.best_assignment.tobytes() == expected.tobytes()
    for summary in result.restarts:
        assert score(snapped[summary.best_step])[summary.restart] == summary.best_metric


def test_run_cut_system_against_oracle():
    graph = generate_random_hypergraph(10, 20, 2, 4, seed=1)
    from hoim.oracle import brute_force_maxkcut

    for k in (2, 3):
        best, _ = brute_force_maxkcut(graph, k)
        system = CutSystem.from_hypergraph(graph, k)
        cfg = SolverConfig(dt=1e-2, steps=5000, restarts=10, seed=0, record_every=100, target=best)
        result = run(system, cfg, graph)
        assert result.best_metric == best


def test_cut_restart_replays_solo_from_its_seed():
    # every step of the cut's energy and drift sums each batch row as it would
    # sum it alone, so restart 5 of a batch seeded 7 is a solo run seeded 12
    graph = generate_random_hypergraph(30, 60, 2, 4, 1)
    system = CutSystem.from_hypergraph(graph, 3)
    cfg = SolverConfig(dt=1e-2, steps=1000, noise_amplitude=3.0, noise_schedule="decay",
                       restarts=8, seed=7, record_every=100)
    batch = run(system, cfg, graph)
    solo = run(system, replace(cfg, restarts=1, seed=12), graph)
    rows = [(rec.step, rec.energy, rec.metric) for rec in batch.trace if rec.restart == 5]
    assert len(rows) == 11
    assert rows == [(rec.step, rec.energy, rec.metric) for rec in solo.trace]
    assert replace(batch.restarts[5], restart=0, seed=12) == solo.restarts[0]


@pytest.mark.parametrize("k", [3, 4])
def test_nae_index_restart_replays_solo_from_its_seed(k):
    # past the dense cutoff every step of the NAE energy and drift is elementwise,
    # a gather or a sum over a leading axis, so each restart of a batch seeded 5
    # is a solo run seeded 5 + r; K = 3 has pairs only
    inst, _ = generate_planted_nae(300, 750, k, seed=1)
    system = NaeSystem.from_instance(inst)
    assert system._pattern is None
    cfg = SolverConfig(dt=5e-3, steps=3000, noise_amplitude=3.0, noise_schedule="decay",
                       restarts=4, seed=5, record_every=100)
    batch = run(system, cfg, inst)
    for r in range(cfg.restarts):
        solo = run(system, replace(cfg, restarts=1, seed=cfg.seed + r), inst)
        rows = [(rec.step, rec.energy, rec.metric) for rec in batch.trace if rec.restart == r]
        assert len(rows) == 31
        assert rows == [(rec.step, rec.energy, rec.metric) for rec in solo.trace]
        assert replace(batch.restarts[r], restart=0, seed=cfg.seed + r) == solo.restarts[0]


def test_lyapunov_audit_requires_zero_noise():
    inst, system = nae_setup()
    with pytest.raises(ValueError, match="noise"):
        lyapunov_audit(system, SolverConfig(noise_amplitude=0.5))


def test_lyapunov_audit_nae_descends():
    inst, system = nae_setup(seed=7, n=12, m=25)
    cfg = SolverConfig(dt=1e-3, steps=2000, noise_amplitude=0.0, noise_schedule="constant", seed=2)
    report = lyapunov_audit(system, cfg)
    assert report.max_step_increase <= 1e-6
    assert report.delta_energy < 0


def test_lyapunov_audit_cut_descends_every_step():
    graph, system = cut_setup(seed=2, k=3)
    cfg = SolverConfig(dt=1e-2, steps=2000, noise_amplitude=0.0, noise_schedule="constant", seed=0)
    report = lyapunov_audit(system, cfg)
    assert report.max_step_increase_clear <= 1e-6
    assert report.delta_energy < 0


def test_lyapunov_audit_detects_blowup_at_huge_dt():
    inst, system = nae_setup(seed=3, n=12, m=30)
    cfg = SolverConfig(dt=1.0, steps=200, noise_amplitude=0.0, noise_schedule="constant", seed=0)
    report = lyapunov_audit(system, cfg)
    assert report.max_step_increase > 1e-6


@pytest.mark.parametrize("dt", [1e-3, 1.0])
def test_lyapunov_audit_nae_frozen_maximum_is_the_raw_maximum(dt):
    # NaeSystem.frozen_energy is its energy, so both figures are the same numbers
    inst, system = nae_setup(seed=3, n=12, m=30)
    cfg = SolverConfig(dt=dt, steps=200, noise_amplitude=0.0, noise_schedule="constant", seed=1)
    report = lyapunov_audit(system, cfg)
    assert report.max_step_increase_clear == report.max_step_increase


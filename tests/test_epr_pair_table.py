"""A/B: the EPR model's pair table changes no simulator result.

``LiveEPRModel`` carries the ``sample_round`` that resolved every sample's
path probability through the per-QPU override hook, before the model kept a
pair table.  Patched into :mod:`repro.multitenant.cluster_sim`, it gives the
reference run.  The workload is a few multi-QPU jobs on a 3x3 grid under a
fleet schedule that changes resolved link probabilities at each point where
the simulator empties the table: two overlapping calibration windows on one
QPU, a window on the centre QPU, which fails mid-window (its override stops
applying to the paths it relays) and rejoins after the window closed, and a
drain followed by a rejoin.  Per-job results (completion times, EPR rounds,
outcomes), the telemetry summary and the telemetry jsonl bytes must equal the
reference run's, also when the run is resumed from any of its snapshots.
"""

import pytest

import repro.multitenant.cluster_sim as cluster_sim
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CalibrationWindow,
    FaultInjector,
    MultiTenantSimulator,
    QPUDrain,
    QPUFail,
    QPUJoin,
    TraceRecord,
)
from repro.network import EPRModel
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler
from test_checkpoint_resume import _Scenario


class LiveEPRModel(EPRModel):
    def sample_round(self, qpu_a, qpu_b, parallel_attempts, rng):
        if parallel_attempts <= 0:
            return False
        p = self.pair_success_probability(qpu_a, qpu_b)
        return rng.random() < 1.0 - (1.0 - p) ** parallel_attempts


CIRCUITS = (
    "ghz_n10", "qft_n8", "ghz_n12", "ghz_n8", "qft_n8", "ghz_n10", "ghz_n12",
    "qft_n8",
)
FLEET_EVENTS = (
    CalibrationWindow(100.0, 1, duration=400.0, epr_success_probability=0.05),
    CalibrationWindow(300.0, 1, duration=500.0, epr_success_probability=0.1),
    CalibrationWindow(1000.0, 4, duration=600.0, epr_success_probability=0.05),
    QPUFail(1200.0, 4),
    QPUJoin(1800.0, 4),
    QPUDrain(2200.0, 7),
    QPUJoin(2600.0, 7),
)


class _FleetScenario(_Scenario):
    every_jobs = 1

    @staticmethod
    def _topology():
        return CloudTopology.grid(3, 3)

    @staticmethod
    def _records():
        return [TraceRecord(5.0 * index, name) for index, name in enumerate(CIRCUITS)]

    def _make_sim(self):
        cloud = QuantumCloud(
            self.topology, computing_qubits_per_qpu=4, communication_qubits_per_qpu=2
        )
        return MultiTenantSimulator(
            cloud,
            RandomPlacement(),
            self.scheduler(),
            fault_injector=FaultInjector(FLEET_EVENTS),
        )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    table = _FleetScenario(
        str(tmp_path_factory.mktemp("table")), CloudQCScheduler, chaos=True
    )
    original = cluster_sim.EPRModel
    cluster_sim.EPRModel = LiveEPRModel
    try:
        live = _FleetScenario(
            str(tmp_path_factory.mktemp("live")), CloudQCScheduler, chaos=True
        )
    finally:
        cluster_sim.EPRModel = original
    return table, live


def test_the_fleet_schedule_runs(runs):
    table, _ = runs
    events = table.full_events.decode()
    for kind, count in (
        ("calibration_start", 3),
        ("calibration_end", 3),
        ("qpu_fail", 1),
        ("qpu_drain", 1),
        ("qpu_join", 2),
        ("completed", len(CIRCUITS)),
    ):
        assert events.count(f'"event": "{kind}"') == count, kind
    assert len(table.snapshots) >= len(CIRCUITS)


def test_table_run_equals_live_run(runs):
    table, live = runs
    assert table.baseline == live.baseline
    assert table.full_events == live.full_events


def test_resume_from_every_snapshot_equals_live_run(runs):
    table, live = runs
    for index in range(len(table.snapshots)):
        assert table.resume(index) == live.baseline, f"snapshot {index}"

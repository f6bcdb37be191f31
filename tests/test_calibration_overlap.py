"""Overlapping calibration windows on one QPU.

Two windows on QPU 1 of a 3x3 grid overlap, staggered ([100, 500) at 0.05
and [300, 800) at 0.1) or nested ([100, 800) at 0.05 and [300, 500) at
0.1).  The simulator counts the open windows per QPU: the latest-started
window's value holds until the last open window ends, which restores the
value from before the first.  So in both cases QPU 1 runs at 0.05 in
[100, 300), at 0.1 in [300, 800) and at the cloud-wide default (``None``)
outside; in the nested case the inner window's 0.1 outlasts it until the
outer window ends.  The override is read at the start of every EPR round,
in a plain run and in runs resumed from a snapshot taken inside
[300, 500), while both windows are open, and from one inside [500, 800),
after the first window ended and while the other is still open.
"""

import pytest

import repro.multitenant.cluster_sim as cluster_sim
from repro.cloud import CloudTopology, QuantumCloud
from repro.multitenant import (
    CalibrationWindow,
    FaultInjector,
    MultiTenantSimulator,
    TraceRecord,
    read_snapshot,
)
from repro.placement import RandomPlacement
from repro.scheduling import CloudQCScheduler
from test_checkpoint_resume import _Scenario

WINDOWS = {
    "staggered": (
        CalibrationWindow(100.0, 1, duration=400.0, epr_success_probability=0.05),
        CalibrationWindow(300.0, 1, duration=500.0, epr_success_probability=0.1),
    ),
    "nested": (
        CalibrationWindow(100.0, 1, duration=700.0, epr_success_probability=0.05),
        CalibrationWindow(300.0, 1, duration=200.0, epr_success_probability=0.1),
    ),
}
# This mix finishes a job inside [300, 500) and one inside [500, 800), so
# the checkpointed run takes a snapshot in each.
CIRCUITS = (
    "qft_n4", "qft_n4", "ghz_n10", "qft_n8", "ghz_n12", "ghz_n8", "qft_n8",
    "ghz_n10", "ghz_n12",
)


def expected_override(time: float):
    if 100.0 <= time < 300.0:
        return 0.05
    if 300.0 <= time < 800.0:
        return 0.1
    return None


class _OverlapScenario(_Scenario):
    every_jobs = 1

    def __init__(self, tmp_dir, windows):
        self.windows = windows
        super().__init__(tmp_dir, CloudQCScheduler, chaos=True)

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
            fault_injector=FaultInjector(self.windows),
        )


class _RoundRecorder:
    """Records (time, QPU 1's override) at the start of every EPR round."""

    def __init__(self):
        self.rounds = []

    def __enter__(self):
        original = self._original = cluster_sim._EventDrivenBatch._start_round
        rounds = self.rounds

        def start_round(batch, loop, runnable):
            rounds.append((loop.now, batch.cloud.qpu_epr_probability(1)))
            return original(batch, loop, runnable)

        cluster_sim._EventDrivenBatch._start_round = start_round
        return self

    def __exit__(self, *exc_info):
        cluster_sim._EventDrivenBatch._start_round = self._original

    def in_second_window_only(self):
        return [override for time, override in self.rounds if 500.0 <= time < 800.0]

    def mismatches(self):
        return [
            (time, override)
            for time, override in self.rounds
            if override != expected_override(time)
        ]


@pytest.fixture(scope="module", params=sorted(WINDOWS))
def scn(request, tmp_path_factory):
    return _OverlapScenario(
        str(tmp_path_factory.mktemp(request.param)), WINDOWS[request.param]
    )


def test_the_latest_window_holds_until_the_last_one_ends(scn):
    with _RoundRecorder() as recorder:
        assert scn._run() == scn.baseline
    assert recorder.in_second_window_only(), "no round ran in [500, 800)"
    assert recorder.mismatches() == []
    assert any(override is None for _, override in recorder.rounds)
    events = scn.full_events.decode()
    assert events.count('"event": "calibration_start"') == 2
    assert events.count('"event": "calibration_end"') == 2


@pytest.mark.parametrize("start, end", [(300.0, 500.0), (500.0, 800.0)])
def test_resume_with_windows_open(scn, start, end):
    inside = [
        index
        for index, path in enumerate(scn.snapshots)
        if start <= read_snapshot(path)["state"]["engine"]["now"] < end
    ]
    assert inside, f"no snapshot was taken in [{start}, {end})"
    for index in inside:
        with _RoundRecorder() as recorder:
            assert scn.resume(index) == scn.baseline, f"snapshot {index}"
        assert recorder.mismatches() == [], f"snapshot {index}"
        assert recorder.in_second_window_only(), f"snapshot {index}"

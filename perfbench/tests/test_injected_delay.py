"""A delay injected into one layer shows in that layer and end to end.

The prediction under test: a slower ``workloads`` layer (request generation)
raises ``workloads.generate_s`` by about the injected time and lowers
``paper_sweep``'s ``req_per_s``, while ``algorithms.serve_s`` stays put.
"""

import time

import pytest

from perfbench.calib import Calibrator
from perfbench.tracing import traced_run
from perfbench.workloads.paper_sweep import PaperSweep

DELAY_S = 0.05


def measure(tmp_path):
    """Untraced req_per_s, per-layer metrics, and the units of one pass."""
    workload = PaperSweep(seed=3, size="tiny", work_dir=tmp_path)
    workload.setup()
    end_to_end = workload.measure(Calibrator(), 0.0, fixed=True).req_per_s
    per_layer = traced_run(workload, Calibrator(), 0.0)
    assert not workload.mismatches
    values = {name: entry["value"] for name, entry in per_layer.items()}
    return end_to_end, values, len(workload.units)


def delayed(iter_requests):
    def iterate(self, *args, **kwargs):
        for chunk in iter_requests(self, *args, **kwargs):
            time.sleep(DELAY_S)
            yield chunk

    return iterate


@pytest.fixture
def slow_generation(monkeypatch):
    from repro.workloads.temporal import TemporalWorkload
    from repro.workloads.zipf import ZipfWorkload

    for cls in (TemporalWorkload, ZipfWorkload):
        monkeypatch.setattr(cls, "iter_requests", delayed(cls.iter_requests))


def test_delay_in_generation_moves_its_layer_and_req_per_s(tmp_path, request):
    base_rate, base, _units = measure(tmp_path / "base")
    request.getfixturevalue("slow_generation")
    slow_rate, slow, units = measure(tmp_path / "slow")

    # every unit generates at least one chunk, and every chunk slept once;
    # reference-seconds read close to seconds, so half is a safe lower bound
    injected = units * DELAY_S
    assert slow["workloads.generate_s"] - base["workloads.generate_s"] > 0.5 * injected
    assert slow_rate < 0.8 * base_rate
    assert slow["algorithms.serve_s"] < 2 * base["algorithms.serve_s"] + 0.05

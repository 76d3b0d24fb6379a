"""multisource_256: one NetworkPlan, rotor-push, 1,023 nodes, 256 sources.

Every source draws combined-locality traffic and the sources are merged by
the ``uniform_pairs`` interleaver, run serially.  The timed unit is one
``repro.run`` of the plan (one trial).  Most of its time goes to the linear
interleaver, building 256 trees and splitting each chunk per source; serve
is a minority share.  ``paper_sweep`` crosses none of these layers.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from typing import List

from perfbench.calib import Calibrator
from perfbench.workloads.base import Measurement, Workload, recorded_digest, table_digest

N_NODES = 1_023
N_SOURCES = 256
REQUESTS_PER_SOURCE = 120
#: Seconds one unit takes on an unloaded machine; the timed phase runs a
#: fixed number of units derived from ``--seconds``, not a time budget, so
#: every run does the same work whatever the machine's speed.
UNIT_S = 0.5


def build_plan(seed: int, n_nodes: int, n_sources: int, requests_per_source: int):
    """The workload's NetworkPlan; sources are drawn from ``seed``."""
    from repro.network.traffic import TrafficSpec
    from repro.plans import NetworkPlan, RunConfig
    from repro.workloads.spec import WorkloadSpec

    sources = sorted(random.Random(seed).sample(range(n_nodes), n_sources))
    workload = WorkloadSpec.create(
        "combined-locality",
        n_elements=n_nodes,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    )
    traffic = TrafficSpec.create(
        n_nodes, {source: workload for source in sources}, interleaving="uniform_pairs"
    )
    return NetworkPlan(
        name="multisource_256",
        traffic=traffic,
        algorithm="rotor-push",
        config=RunConfig(n_requests=requests_per_source, n_trials=1, base_seed=seed),
    )


class MultiSource(Workload):
    name = "multisource_256"

    def setup(self) -> None:
        import repro

        if self.size == "full":
            shape = (N_NODES, N_SOURCES, REQUESTS_PER_SOURCE)
        else:
            shape = (255, 16, 40)
        plan = build_plan(self.seed, *shape)
        self.plan = repro.plans.loads(repro.plans.dumps(plan))
        self.requests_per_unit = shape[1] * shape[2]
        self.rows: List[dict] = []
        warm = dataclasses.replace(
            build_plan(self.seed, shape[0], 16, 20), name="multisource_warm_up"
        )
        repro.run(warm)

    def _run_unit(self) -> None:
        import repro

        rows = [dict(row) for row in repro.run(self.plan).rows]
        self.count_run_stats(1)
        if not self.rows:
            self.rows = rows
        elif rows != self.rows:
            self.mismatch("the network plan produced different rows on a repeat run")

    def measure(self, calibrator: Calibrator, seconds: float, fixed: bool = False) -> Measurement:
        ref: List[float] = []
        wall: List[float] = []
        for _ in range(3 if fixed else max(3, round(seconds / UNIT_S))):
            with calibrator.unit(sample=True) as timing:
                self._run_unit()
            ref.append(timing.ref_s)
            wall.append(timing.wall_s)
        return Measurement(
            req_per_s=self.requests_per_unit / statistics.median(ref),
            requests=len(ref) * self.requests_per_unit,
            units=len(ref),
            wall={"req_per_s": self.requests_per_unit / statistics.median(wall)},
        )

    def finish(self) -> None:
        if self.size != "full":
            return
        expected = recorded_digest(self.name, self.seed)
        digest = self.digest()
        if expected is not None and digest != expected:
            self.mismatch(f"cost-table digest {digest} != recorded {expected}")

    def digest(self) -> str:
        return table_digest(self.rows)

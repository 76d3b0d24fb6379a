"""paper_sweep: the q2 and q3 figure plans at ``small`` scale, serial, no cache.

1,023 nodes, 20,000 requests x 3 trials, six algorithms, 7 + 5 points.  The
timed unit is one (point, trial) slice of a plan: the plan with that single
point and ``n_trials=1`` at ``base_seed + trial``, which derives exactly the
seeds trial ``trial`` of the full plan uses.  All six algorithms of a unit
share one generated request stream, as they do in the full sweep.  Nearly all
time goes to request generation and serve/adjust; there is no interleaver,
wire or store.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from perfbench.calib import Calibrator
from perfbench.workloads.base import (
    Measurement,
    Workload,
    median_rate,
    recorded_digest,
    table_digest,
)

#: Seconds one cycle over every unit takes on an unloaded machine.  The
#: timed phase runs whole cycles, as many as fit ``--seconds`` (at least
#: one), so every run does the same work whatever the machine's speed.
CYCLE_S = 12.0


class PaperSweep(Workload):
    name = "paper_sweep"

    def setup(self) -> None:
        import repro
        from repro.experiments import build_q2_plan, build_q3_plan

        scale = "small" if self.size == "full" else "tiny"
        units: List[Tuple[str, object]] = []
        for build_plan in (build_q2_plan, build_q3_plan):
            # a dump/load round trip is the plan load and validation a user
            # of `repro run <plan.json>` pays
            plan = repro.plans.loads(repro.plans.dumps(build_plan(scale)))
            points = plan.points if self.size == "full" else plan.points[:2]
            for point in points:
                for trial in range(plan.config.n_trials):
                    config = dataclasses.replace(
                        plan.config, n_trials=1, base_seed=self.seed + trial
                    )
                    key = f"{plan.name}:{dict(point)}:trial{trial}"
                    units.append(
                        (key, dataclasses.replace(plan, points=(point,), config=config))
                    )
        self.units = units
        self.payloads_per_unit = len(units[0][1].algorithms)
        self.requests_per_unit = units[0][1].config.n_requests * self.payloads_per_unit
        self.rows: Dict[str, object] = {}
        warm = dataclasses.replace(
            units[0][1], config=dataclasses.replace(units[0][1].config, n_requests=2_000)
        )
        repro.run(warm)

    def _run_unit(self, key: str, plan: object) -> None:
        import repro

        rows = [dict(row) for row in repro.run(plan).rows]
        self.count_run_stats(self.payloads_per_unit)
        previous = self.rows.setdefault(key, rows)
        if previous != rows:
            self.mismatch(f"unit {key} produced different rows on a repeat run")

    def measure(self, calibrator: Calibrator, seconds: float, fixed: bool = False) -> Measurement:
        ref: Dict[str, List[float]] = {}
        wall: Dict[str, List[float]] = {}
        cycles = 1 if fixed else max(1, round(seconds / CYCLE_S))
        done = 0
        for _ in range(cycles):
            for key, plan in self.units:
                with calibrator.unit(sample=True) as timing:
                    self._run_unit(key, plan)
                ref.setdefault(key, []).append(timing.ref_s)
                wall.setdefault(key, []).append(timing.wall_s)
                done += 1
        requests = {key: self.requests_per_unit for key, _plan in self.units}
        return Measurement(
            req_per_s=median_rate(requests, ref),
            requests=done * self.requests_per_unit,
            units=done,
            wall={"req_per_s": median_rate(requests, wall)},
        )

    def finish(self) -> None:
        if self.size != "full":
            return
        expected = recorded_digest(self.name, self.seed)
        digest = table_digest([self.rows[key] for key, _plan in self.units])
        if expected is not None and digest != expected:
            self.mismatch(f"cost-table digest {digest} != recorded {expected}")

    def digest(self) -> str:
        return table_digest([self.rows[key] for key, _plan in self.units])

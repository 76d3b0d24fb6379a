"""campaign_pool: the golden ``smoke`` plan as a cached campaign on a pool.

The plan is overridden to 100 trials of 2,000 requests (300 payloads across
its three algorithms) and run at ``n_jobs=2`` into a fresh cache directory;
a warm resume of the same plan follows.  The timed unit is the cold run.
Per-payload overhead dominates: payload build, pickling, pool dispatch,
``payload_key`` hashing, atomic store writes and reassembly.  This is the
only workload that crosses ``sim``'s pool and ``resilience``.  The machine
gives about one core of throughput, so no scaling figure is reported.

The work runs in this process and in two pool workers, so a unit is
calibrated by slices sampled during it in all three (see
:class:`perfbench.calib.ChildSampler`); slices from this process alone left
a 14% spread between runs, slices from all three about 5%.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
from typing import List, Optional

from perfbench.calib import Calibrator, ChildSampler
from perfbench.workloads.base import Measurement, Workload

N_TRIALS = 100
N_REQUESTS = 2_000
N_JOBS = 2
#: Seconds one cold run plus its resume take on an unloaded machine; the
#: timed phase runs a fixed number of them derived from ``--seconds``.
UNIT_S = 0.6


class CampaignPool(Workload):
    name = "campaign_pool"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # before the pool forks its workers, which happens at the first run
        self.sampler = ChildSampler(self.work_dir / "worker-slices")

    def setup(self) -> None:
        import repro
        from repro.plans import load_golden_plan, plan_with_overrides

        trials = N_TRIALS if self.size == "full" else 4
        plan = plan_with_overrides(
            load_golden_plan("smoke"), n_trials=trials, n_requests=N_REQUESTS, n_jobs=N_JOBS
        )
        self.plan = dataclasses.replace(
            plan, config=dataclasses.replace(plan.config, base_seed=self.seed)
        )
        self.payloads = trials * len(self.plan.algorithms)
        self.requests_per_unit = self.payloads * N_REQUESTS
        self.cold_rows: Optional[List[dict]] = None
        self._caches = 0
        # the pool is spawned lazily; a two-trial campaign starts it
        warm = plan_with_overrides(self.plan, n_trials=2)
        cache = self._fresh_cache()
        repro.run(warm, cache=str(cache))
        shutil.rmtree(cache)

    def _fresh_cache(self):
        self._caches += 1
        return self.work_dir / f"cache-{self._caches}"

    def _compare(self, label: str, rows: List[dict]) -> None:
        if self.cold_rows is None:
            self.cold_rows = rows
        elif rows != self.cold_rows:
            self.mismatch(f"{label} table differs from the first cold table")

    def run_campaign(self, calibrator: Calibrator):
        """One cold run into a fresh cache, then a warm resume; returns both timings."""
        import repro
        from repro.plans import last_run_stats

        cache = self._fresh_cache()
        with calibrator.unit(sample=True, children=self.sampler) as cold:
            rows = [dict(row) for row in repro.run(self.plan, cache=str(cache)).rows]
        self.count_run_stats(self.payloads)
        self._compare("cold", rows)
        with calibrator.unit(sample=True, children=self.sampler) as warm:
            rows = [
                dict(row)
                for row in repro.run(self.plan, cache=str(cache), resume=True).rows
            ]
        stats = last_run_stats()
        if stats.executed != 0 or stats.cache_hits != self.payloads:
            self.mismatch(
                f"warm resume executed {stats.executed} payloads and hit "
                f"{stats.cache_hits} of {self.payloads}"
            )
        self._compare("warm", rows)
        shutil.rmtree(cache)
        return cold, warm

    def measure(self, calibrator: Calibrator, seconds: float, fixed: bool = False) -> Measurement:
        ref: List[float] = []
        wall: List[float] = []
        resume: List[float] = []
        resume_wall: List[float] = []
        for _ in range(4 if fixed else max(4, round(seconds / UNIT_S))):
            cold, warm = self.run_campaign(calibrator)
            ref.append(cold.ref_s)
            wall.append(cold.wall_s)
            resume.append(warm.ref_s)
            resume_wall.append(warm.wall_s)
        #: the warm resume time, reported by the traced run
        self.last_resume_ref_s = statistics.median(resume)
        return Measurement(
            req_per_s=self.requests_per_unit / statistics.median(ref),
            requests=len(ref) * self.requests_per_unit,
            units=len(ref),
            wall={
                "req_per_s": self.requests_per_unit / statistics.median(wall),
                "resume_s": statistics.median(resume_wall),
            },
        )

    def finish(self) -> None:
        import repro
        from repro.plans import plan_with_overrides

        serial = repro.run(plan_with_overrides(self.plan, n_jobs=1))
        self._compare("serial reference", [dict(row) for row in serial.rows])

    def close(self) -> None:
        from repro.sim.parallel import shutdown_persistent_pool

        shutdown_persistent_pool()

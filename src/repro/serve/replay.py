"""Replay: turn a recorded ingest log back into a declarative plan.

``repro replay <log>`` is deliberately *not* a bespoke executor: the log is
converted into an ordinary :class:`~repro.plans.model.ExperimentPlan` — one
fixed-sequence :class:`~repro.plans.model.TrialPlan` stage per recorded
source, assembled by the built-in ``replay_totals`` assembler — and run
through :func:`repro.run`, so replay inherits every execution property the
plan layer already pins: process-pool and distributed fan-out, caching,
resume, and bit-identity across ``n_jobs``.

The replay contract (why this is bit-identical to the live run):

* stage ``k`` uses ``RunConfig(base_seed=base_seed + k * stride, n_trials=1)``
  so trial 0's derived seeds (``+10_000`` placement, ``+20_000`` algorithm)
  are exactly the live engine's seeds for source ``k``;
* per-source trees are independent, so each source's costs depend only on
  its *own* request order — the cross-source interleaving of a live session
  (which is timing-dependent and unrecorded) does not matter;
* a source's tree is served the same way live and in replay: a resident
  seeded owner (``SeededTrees``) live and one ``serve_seeded`` call in
  replay when :func:`repro.algorithms.registry.seeded_serving` admits its
  algorithm, size and seeds, a built tree otherwise.  The kernel's chunk
  functions match the reference tree chunk by chunk, whatever the chunk
  lengths, so the batch boundaries clients chose live are irrelevant to
  replaying the concatenated per-source sequence, with the kernel loaded
  or hidden.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.algorithms.registry import AlgorithmSpec
from repro.constants import NETWORK_TRIAL_SEED_STRIDE
from repro.plans.model import ExperimentPlan, RunConfig, TrialPlan
from repro.serve.ingest import IngestError, IngestLogReader, read_ingest_log
from repro.workloads.spec import WorkloadSpec

__all__ = ["build_replay_plan", "replay_sequences"]


def replay_sequences(
    log: IngestLogReader,
) -> List[Tuple[str, int, List[int]]]:
    """Extract ``(source name, source id, destination sequence)`` per source.

    Sources come back in source-id (first-bind) order; each sequence is the
    concatenation of the source's accepted batches in log order.
    """
    names: Dict[int, str] = {}
    sequences: Dict[int, List[int]] = {}
    for record in log.records:
        kind = record.get("type")
        if kind == "bind":
            source_id = int(record["source_id"])
            if source_id != len(names):
                raise IngestError(
                    f"ingest log {log.path}: bind record for source id "
                    f"{source_id} arrived out of order (expected {len(names)})"
                )
            names[source_id] = str(record["source"])
            sequences[source_id] = []
        elif kind == "request":
            source_id = int(record["source_id"])
            if source_id not in names:
                raise IngestError(
                    f"ingest log {log.path}: request for unbound source id "
                    f"{source_id}"
                )
            sequences[source_id].extend(
                int(destination) for destination in record["destinations"]
            )
        else:
            raise IngestError(
                f"ingest log {log.path}: unknown record type {kind!r}"
            )
    return [
        (names[source_id], source_id, sequences[source_id])
        for source_id in sorted(names)
    ]


def build_replay_plan(
    log: Union[str, Path, IngestLogReader],
    name: str = "serve",
    allow_mid_loss: bool = False,
) -> ExperimentPlan:
    """Build the plan whose :func:`repro.run` output is the live cost table.

    ``log`` is an ingest-log directory (or an already-read
    :class:`~repro.serve.ingest.IngestLogReader`).  Sources that never
    served a request get no stage, matching
    :meth:`~repro.serve.engine.ServeEngine.cost_table` skipping them live.
    """
    if not isinstance(log, IngestLogReader):
        log = read_ingest_log(log, allow_mid_loss=allow_mid_loss)
    header = log.header
    try:
        n_nodes = int(header["n_nodes"])
        algorithm = AlgorithmSpec.from_dict(header["algorithm"])
        base_seed = int(header["base_seed"])
    except (KeyError, TypeError, ValueError) as error:
        raise IngestError(
            f"ingest log {log.path} has an incomplete header: {error!r}"
        ) from None
    stages = []
    for source, source_id, sequence in replay_sequences(log):
        if not sequence:
            continue
        window = base_seed + source_id * NETWORK_TRIAL_SEED_STRIDE
        stages.append(
            (
                source,
                TrialPlan(
                    name=f"{name}:{source}",
                    n_nodes=n_nodes,
                    workload=WorkloadSpec.create(
                        "fixed-sequence",
                        n_elements=n_nodes,
                        sequence=tuple(sequence),
                    ),
                    algorithms=(algorithm,),
                    config=RunConfig(
                        n_requests=len(sequence),
                        n_trials=1,
                        base_seed=window,
                        keep_records=False,
                    ),
                ),
            )
        )
    return ExperimentPlan(
        name=name,
        stages=tuple(stages),
        assembler="replay_totals",
        params={"algorithm": algorithm.name, "n_nodes": n_nodes},
    )

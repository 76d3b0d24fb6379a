"""The live serving engine: per-source trees, live totals, replayable costs.

One :class:`ServeEngine` owns every bound source's tree and the running
per-source cost totals.  Its seed contract is the whole determinism story of
live serving:

* source ids are assigned in first-bind order (0, 1, 2, ...), and recorded
  in the ingest log;
* source ``k`` gets a private seed window ``b_k = base_seed +
  k * NETWORK_TRIAL_SEED_STRIDE`` and builds its tree with
  ``placement_seed = b_k + 10_000`` and ``algorithm_seed = b_k + 20_000`` —
  exactly the seeds trial 0 of a :class:`~repro.plans.model.TrialPlan` with
  ``RunConfig(base_seed=b_k)`` would use.

When :func:`repro.algorithms.registry.seeded_serving` admits the algorithm,
the tree size and those seeds (a kernel chunk function, the kernel loaded
with its random-number checks passed, 16 nodes or more), a source's tree is
a resident :class:`~repro.algorithms.cascade_kernel.SeededTrees` owner,
drawn once when the source binds and served in C batch after batch.
Otherwise it is the tree :func:`~repro.algorithms.registry.make_algorithm`
builds, served through ``serve_batch``, which runs the reference
``_adjust`` on every request.

Replay therefore needs no bespoke executor: ``repro replay`` rebuilds one
fixed-sequence ``TrialPlan`` stage per source from the log (see
:mod:`repro.serve.replay`) and runs it through :func:`repro.run`, which
admits the same seeds to the same path.  A chunk function matches the
reference tree chunk by chunk, whatever the chunk lengths (pinned by the
owner-state and batch-equivalence suites), so serving a source's requests
in whatever batch sizes clients chose is bit-identical to replaying its
concatenated sequence in one go, on either path.

Live serving is restricted to *online* algorithms: an offline algorithm
(``requires_preparation``, e.g. static-opt) needs the full future sequence
before serving anything, which a live endpoint by definition does not have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.algorithms.cascade_kernel import SeededTrees
from repro.algorithms.registry import AlgorithmSpec, make_algorithm, seeded_serving
from repro.core.tree import depth_for_size
from repro.exceptions import ExperimentError
from repro.plans.execute import NETWORK_TRIAL_SEED_STRIDE, REPLAY_TABLE_COLUMNS
from repro.serve.ingest import IngestWriter
from repro.sim.results import ResultTable

__all__ = ["CheckedBatch", "ServeEngine", "ServeError", "SourceState"]


class ServeError(ExperimentError):
    """Raised for live-serving misuse (bad bind, bad destination, offline
    algorithm, unknown source)."""


class CheckedBatch(tuple):
    """Destinations checked for an ``n_nodes``-node tree: each an ``int``
    (not a bool) naming one of its nodes; raises :class:`ServeError`.

    Made only through this check, and immutable, so it stays checked:
    :meth:`ServeEngine.check` passes one through when its largest
    destination is a node of that engine's tree.
    """

    __slots__ = ()

    def __new__(cls, destinations: Sequence[int], n_nodes: int) -> "CheckedBatch":
        batch = tuple.__new__(cls, destinations)
        for destination in batch:
            if type(destination) is not int or not 0 <= destination < n_nodes:
                raise ServeError(
                    f"destination {destination!r} outside the {n_nodes}-node tree"
                )
        return batch


@dataclass
class SourceState:
    """One bound source: its tree and its running totals.

    ``owner`` is the source's resident seeded tree when the kernel serves
    it, and ``algorithm`` its built tree otherwise (``None`` beside an
    owner).
    """

    name: str
    source_id: int
    algorithm: object
    owner: Optional[SeededTrees] = None
    n_requests: int = 0
    total_access_cost: int = 0
    total_adjustment_cost: int = 0
    batches: int = 0

    @property
    def total_cost(self) -> int:
        return self.total_access_cost + self.total_adjustment_cost


class ServeEngine:
    """Per-source trees plus live cost accounting, with replayable seeds.

    ``log`` (an :class:`~repro.serve.ingest.IngestWriter`) receives one
    ``bind`` record per new source and one ``request`` record per accepted
    batch, in acceptance order — appended *before* the batch is served, so a
    crash mid-serve never loses an acknowledged-to-be-accepted request.
    """

    def __init__(
        self,
        n_nodes: int,
        algorithm: Union[str, AlgorithmSpec],
        base_seed: int = 0,
        log: Optional[IngestWriter] = None,
    ) -> None:
        self.n_nodes = int(n_nodes)
        self.algorithm = AlgorithmSpec.coerce(algorithm)
        self.base_seed = int(base_seed)
        self.log = log
        self._sources: Dict[str, SourceState] = {}
        self._order: List[SourceState] = []
        # surface a non-tree n_nodes, then bad algorithm params, at
        # construction instead of at first bind: the probe is the one-node
        # tree, which costs nothing whatever n_nodes is
        depth_for_size(self.n_nodes)
        probe = make_algorithm(self.algorithm, n_nodes=1, placement_seed=0, seed=0)
        if probe.requires_preparation:
            raise ServeError(
                f"algorithm {self.algorithm.name!r} is offline "
                "(requires_preparation): it needs the full future sequence "
                "before serving, so it cannot serve live traffic"
            )

    # ------------------------------------------------------------- binding

    def bind(self, source: str) -> SourceState:
        """Bind ``source`` to its tree (idempotent; first bind assigns the id)."""
        if not isinstance(source, str) or not source:
            raise ServeError(f"source name must be a non-empty string, got {source!r}")
        state = self._sources.get(source)
        if state is not None:
            return state
        source_id = len(self._order)
        window = self.base_seed + source_id * NETWORK_TRIAL_SEED_STRIDE
        placement_seed, algorithm_seed = window + 10_000, window + 20_000
        serving = seeded_serving(
            self.algorithm, self.n_nodes, placement_seed, algorithm_seed
        )
        algorithm = owner = None
        if serving is None:
            algorithm = make_algorithm(
                self.algorithm,
                n_nodes=self.n_nodes,
                placement_seed=placement_seed,
                seed=algorithm_seed,
                keep_records=False,
            )
        else:
            owner = SeededTrees(*serving, self.n_nodes)
            owner.draw(placement_seed, algorithm_seed)
        state = SourceState(
            name=source, source_id=source_id, algorithm=algorithm, owner=owner
        )
        self._sources[source] = state
        self._order.append(state)
        if self.log is not None:
            self.log.append(
                {"type": "bind", "source": source, "source_id": source_id}
            )
            self.log.flush()
        return state

    @property
    def sources(self) -> List[SourceState]:
        """Bound sources in source-id order."""
        return list(self._order)

    def source(self, name: str) -> SourceState:
        state = self._sources.get(name)
        if state is None:
            raise ServeError(
                f"unknown source {name!r}; bound sources: "
                f"{[s.name for s in self._order]}"
            )
        return state

    # ------------------------------------------------------------- serving

    def check(self, destinations: Sequence[int]) -> CheckedBatch:
        """Validate a batch in one pass: every destination an ``int`` (not a
        bool) naming a node of the tree; raises :class:`ServeError`.

        A :class:`CheckedBatch` whose largest destination is a node of this
        tree is passed through; one checked for a larger tree is checked
        again, and refused.
        """
        if type(destinations) is CheckedBatch and (
            not destinations or max(destinations) < self.n_nodes
        ):
            return destinations
        return CheckedBatch(destinations, self.n_nodes)

    def submit(self, source: str, destinations: Sequence[int]) -> Dict[str, int]:
        """Serve one accepted batch for ``source`` and return its costs.

        The batch is served on the source's resident owner (its costs are
        the change in the owner's totals) or on its built tree.
        Destinations are validated (:meth:`check`) *before* the batch is
        logged or served, so a rejected batch leaves neither the log nor the
        tree touched and the log stays exactly replayable.
        """
        state = self.source(source)
        batch = self.check(destinations)
        if self.log is not None:
            self.log.append(
                {
                    "type": "request",
                    "source_id": state.source_id,
                    "destinations": batch,
                }
            )
            self.log.flush()
        owner = state.owner
        if owner is not None:
            access_before = owner.access_total
            adjustment_before = owner.adjustment_total
            _, access_total, adjustment_total = owner.serve_chunks((batch,))
            access = access_total - access_before
            adjustment = adjustment_total - adjustment_before
        else:
            ledger = state.algorithm.network.ledger
            access_before = ledger.total_access_cost
            adjustment_before = ledger.total_adjustment_cost
            state.algorithm.serve_batch(batch)
            access = ledger.total_access_cost - access_before
            adjustment = ledger.total_adjustment_cost - adjustment_before
        state.n_requests += len(batch)
        state.total_access_cost += access
        state.total_adjustment_cost += adjustment
        state.batches += 1
        return {
            "n": len(batch),
            "access_cost": access,
            "adjustment_cost": adjustment,
        }

    # ------------------------------------------------------------- reporting

    @property
    def n_requests(self) -> int:
        return sum(state.n_requests for state in self._order)

    def cost_table(self, name: str = "serve") -> ResultTable:
        """The live per-source cost table, in source-id order.

        Byte-identical to what ``repro replay`` assembles from this engine's
        ingest log (the ``replay_totals`` assembler): one row per source
        that served at least one request — a bound-but-silent source has no
        replay stage, so it has no live row either — plus a ``"total"``
        aggregate row.
        """
        table = ResultTable(name=name, columns=list(REPLAY_TABLE_COLUMNS))
        served = [state for state in self._order if state.n_requests]
        for state in served:
            table.add_row(
                source=state.name,
                n_requests=state.n_requests,
                total_access_cost=state.total_access_cost,
                total_adjustment_cost=state.total_adjustment_cost,
                total_cost=state.total_cost,
            )
        table.add_row(
            source="total",
            n_requests=sum(state.n_requests for state in served),
            total_access_cost=sum(state.total_access_cost for state in served),
            total_adjustment_cost=sum(state.total_adjustment_cost for state in served),
            total_cost=sum(state.total_cost for state in served),
        )
        return table

    def stats(self) -> Dict[str, object]:
        """Structured live totals (the payload of a ``stats`` wire frame)."""
        return {
            "n_sources": len(self._order),
            "n_requests": self.n_requests,
            "total_access_cost": sum(s.total_access_cost for s in self._order),
            "total_adjustment_cost": sum(
                s.total_adjustment_cost for s in self._order
            ),
            "sources": [
                {
                    "source": state.name,
                    "source_id": state.source_id,
                    "n_requests": state.n_requests,
                    "total_access_cost": state.total_access_cost,
                    "total_adjustment_cost": state.total_adjustment_cost,
                    "total_cost": state.total_cost,
                    "batches": state.batches,
                }
                for state in self._order
            ],
        }

    def flush(self) -> None:
        """Durably flush the ingest log (no-op without one)."""
        if self.log is not None:
            self.log.flush(sync=True)

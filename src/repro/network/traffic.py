"""Traffic traces and declarative traffic specs for the network substrate.

The paper motivates self-adjusting single-source trees as the building block of
reconfigurable (optical) datacenter networks: each source node maintains a tree
towards the other nodes and serves its own communication requests on it.  This
module models the demand side twice over:

* **materialised** — a :class:`TrafficTrace` is a sequence of
  ``(source, destination)`` pairs, and :func:`trace_from_workloads` builds one
  by interleaving per-source destination sequences generated by the
  request-sequence workloads of :mod:`repro.workloads`;
* **declarative** — a :class:`TrafficSpec` is the immutable, JSON
  round-trippable *description* of such a trace: one
  :class:`~repro.workloads.spec.WorkloadSpec` per source plus an interleaving
  policy and seed.  :meth:`TrafficSpec.iter_trace` streams the trace in
  chunks whose concatenation is exactly the materialised
  :func:`trace_from_workloads` output for the same configuration — the chunk
  size is a memory knob, never a semantics knob — so traffic specs can cross
  process boundaries the way workload specs do (see
  :class:`repro.plans.NetworkPlan` and the ``TrafficSource`` payload variant
  in :mod:`repro.sim.runner`).  :meth:`TrafficSpec.iter_source_streams`
  streams the same per-source destinations one source at a time, without
  the interleave: network-plan trials serve it, because independent
  per-source trees cannot see the order of requests across sources.

Interleaving policies (:data:`INTERLEAVINGS`): every source emits exactly
``requests_per_source`` requests, in its own order; the policy decides only
how the per-source streams merge.

* ``round_robin`` — deterministic cycling through the sources in ascending
  identifier order (request ``t`` comes from source ``t mod k``);
* ``uniform_pairs`` — each step picks uniformly among the *remaining*
  (source, request) pairs, i.e. a source is chosen with probability
  proportional to its remaining request count: the sequential-draw
  equivalent of a uniform shuffle of the merged trace;
* ``weighted`` — each step picks among the sources that still have requests
  left with probability proportional to their configured weight, so
  high-weight sources front-load their traffic.

The legacy ``shuffle`` interleaving of :func:`trace_from_workloads` (a
materialised ``random.shuffle`` of the merged order) remains the default of
that function for backward compatibility; it is the one policy a
:class:`TrafficSpec` does not offer because it cannot stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.draws import seeded_kernel
from repro.exceptions import WorkloadError
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    build_workload,
    check_kind,
    check_universe,
)

__all__ = [
    "INTERLEAVINGS",
    "TrafficRequest",
    "TrafficSpec",
    "TrafficTrace",
    "iter_interleaving",
    "trace_from_workloads",
    "uniform_trace",
]

#: The streamable interleaving policies of :class:`TrafficSpec` (the legacy
#: ``"shuffle"`` of :func:`trace_from_workloads` is deliberately absent: it
#: permutes a materialised order list and therefore cannot stream).
INTERLEAVINGS = ("round_robin", "uniform_pairs", "weighted")

#: Spacing of the per-source workload seeds stamped by
#: :meth:`TrafficSpec.with_seed`: the source at sorted position ``p`` receives
#: ``seed + (p + 1) * SOURCE_SEED_STRIDE``, the interleaving RNG ``seed``
#: itself.  The stride keeps per-source streams of *different trials* (whose
#: base seeds differ by 1, see :class:`repro.plans.RunConfig`) from ever
#: colliding.
SOURCE_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class TrafficRequest:
    """A single communication request from ``source`` to ``destination``."""

    source: int
    destination: int


@dataclass
class TrafficTrace:
    """An ordered sequence of communication requests between network nodes.

    Attributes
    ----------
    n_nodes:
        Number of network nodes; sources and destinations are identifiers in
        ``[0, n_nodes)``.
    requests:
        The requests, in arrival order.
    """

    n_nodes: int
    requests: List[TrafficRequest]

    def __post_init__(self) -> None:
        for request in self.requests:
            if not 0 <= request.source < self.n_nodes:
                raise WorkloadError(f"source {request.source} outside [0, {self.n_nodes})")
            if not 0 <= request.destination < self.n_nodes:
                raise WorkloadError(
                    f"destination {request.destination} outside [0, {self.n_nodes})"
                )
            if request.source == request.destination:
                raise WorkloadError(
                    f"request from node {request.source} to itself is not allowed"
                )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[TrafficRequest]:
        return iter(self.requests)

    def sources(self) -> List[int]:
        """Return the distinct sources appearing in the trace, sorted."""
        return sorted({request.source for request in self.requests})

    def per_source_sequences(self) -> Dict[int, List[int]]:
        """Split the trace into one destination sequence per source."""
        sequences: Dict[int, List[int]] = {}
        for request in self.requests:
            sequences.setdefault(request.source, []).append(request.destination)
        return sequences

    def traffic_matrix(self) -> Dict[Tuple[int, int], int]:
        """Return the (sparse) traffic matrix: request counts per (source, destination)."""
        matrix: Dict[Tuple[int, int], int] = {}
        for request in self.requests:
            key = (request.source, request.destination)
            matrix[key] = matrix.get(key, 0) + 1
        return matrix


def _skip_self(sequence: List[int], source: int, n_nodes: int) -> List[int]:
    """Remap any occurrence of ``source`` in a destination sequence to another node.

    Returns ``sequence`` itself when it never names the source.
    """
    if source not in sequence:
        return sequence
    replacement = (source + 1) % n_nodes
    return [destination if destination != source else replacement for destination in sequence]


def _sorted_pairs(pairs) -> bool:
    """Whether ``pairs`` is already a tuple of ``(int, spec)`` tuples in
    ascending source order, which a traffic spec keeps as it is."""
    if type(pairs) is not tuple or set(map(type, pairs)) - {tuple}:
        return False
    if set(map(len, pairs)) - {2}:
        return False
    sources = list(map(itemgetter(0), pairs))
    return not set(map(type, sources)) - {int} and sources == sorted(sources)


def _check_weights(
    weights: Optional[Dict[int, float]], sources: Sequence[int], owner: str
) -> Dict[int, float]:
    """Validate per-source interleaving weights (positive, known sources)."""
    if not weights:
        return {}
    unknown = sorted(set(weights) - set(sources))
    if unknown:
        raise WorkloadError(
            f"{owner}: weights for non-sources {unknown}; sources are "
            f"{sorted(sources)}"
        )
    for source, weight in weights.items():
        value = float(weight)
        if not math.isfinite(value) or value <= 0:
            raise WorkloadError(
                f"{owner}: weight of source {source} must be positive and "
                f"finite, got {weight!r}"
            )
    return {source: float(weight) for source, weight in weights.items()}


def iter_interleaving(
    policy: str,
    sources: Sequence[int],
    requests_per_source: int,
    seed: Optional[int] = None,
    weights: Optional[Dict[int, float]] = None,
) -> Iterator[int]:
    """Yield the source of every trace position under ``policy``.

    Every source is yielded exactly ``requests_per_source`` times; the policy
    decides the order (see the module docstring for the three policies).  The
    generator draws sequentially from ``random.Random(seed)`` — never from a
    materialised order list — so it is shared verbatim by the streaming
    (:meth:`TrafficSpec.iter_trace`) and materialised
    (:func:`trace_from_workloads`) paths: both see bit-identical orders by
    construction.  Arguments are validated *at the call*, not at first
    iteration (this is a plain function returning a generator).

    ``uniform_pairs`` costs O(log k) per draw for k sources.  Each step
    draws ``rng.randrange(total remaining)`` and resolves it with a
    descending power-of-two prefix search over a Fenwick tree of the
    per-source remaining counts: the chosen source is the first whose
    running count exceeds the draw.  That is exactly the source a linear
    walk over the counts picks, exhausted sources skipped alike, so the
    order is identical draw for draw to the O(k) walk it replaced.  With
    an ``int`` seed, ``int`` sources and at least
    ``SEEDED_KERNEL_MIN_DRAWS`` draws in all, the C kernel runs the same
    loop on the same seeded generator a chunk at a time (see
    :func:`_kernel_interleaving`).
    ``weighted`` keeps the linear walk, because the order in which it
    accumulates float weights is part of its output.
    """
    if policy not in INTERLEAVINGS:
        raise WorkloadError(
            f"unknown interleaving {policy!r}; expected one of "
            f"{', '.join(INTERLEAVINGS)}"
        )
    if requests_per_source < 0:
        raise WorkloadError("requests_per_source must be non-negative")
    sources = list(sources)
    weight_of = (
        _check_weights(weights, sources, "interleaving")
        if policy == "weighted"
        else {}
    )
    chunks = _kernel_interleaving(
        policy, sources, requests_per_source, seed, DEFAULT_CHUNK_SIZE
    )
    if chunks is not None:
        return chain.from_iterable(chunks)
    return _iter_interleaving(policy, sources, requests_per_source, seed, weight_of)


def _kernel_interleaving(
    policy: str,
    sources: List[int],
    requests_per_source: int,
    seed: Optional[int],
    chunk_size: int,
) -> Optional[Iterator[List[int]]]:
    """The C kernel's ``uniform_pairs`` order in lists of ``chunk_size`` sources.

    ``None`` unless the kernel may draw it: ``policy`` is
    ``uniform_pairs``, the seed and every source are ``int``s and there are
    ``SEEDED_KERNEL_MIN_DRAWS`` to ``RNG_BOUND_LIMIT`` draws in all (see
    :func:`repro.core.draws.seeded_kernel`).  The Python generator
    :func:`_iter_interleaving` is the reference.
    """
    if policy != "uniform_pairs" or not all(type(source) is int for source in sources):
        return None
    total = requests_per_source * len(sources)
    kernel = seeded_kernel(seed, total, total)
    if kernel is None:
        return None
    fenwick = _remaining_counts_fenwick(len(sources), requests_per_source)
    return kernel.uniform_pairs(seed, sources, fenwick, total, chunk_size)


def _remaining_counts_fenwick(n_sources: int, count: int) -> List[int]:
    """Fenwick tree over ``n_sources`` remaining counts, all equal to ``count``.

    Its length ``size`` is the smallest power of two holding every source.
    ``fenwick[i]`` (1-based, ``0 < i < size``) sums the counts of sources
    ``i - (i & -i)`` to ``i - 1``; the padding sources past ``n_sources``
    count zero.  The root slot ``size`` would hold the grand total and is
    never read, so it is not stored.
    """
    size = 1 << max(n_sources - 1, 0).bit_length()
    fenwick = [0] * size
    for node in range(1, size):
        covered = min(node, n_sources) - (node - (node & -node))
        if covered > 0:
            fenwick[node] = count * covered
    return fenwick


def _iter_interleaving(
    policy: str,
    sources: List[int],
    requests_per_source: int,
    seed: Optional[int],
    weight_of: Dict[int, float],
) -> Iterator[int]:
    """Generator body of :func:`iter_interleaving` (arguments pre-validated)."""
    if policy == "round_robin":
        for _ in range(requests_per_source):
            yield from sources
        return
    if policy == "uniform_pairs":
        randrange = random.Random(seed).randrange
        fenwick = _remaining_counts_fenwick(len(sources), requests_per_source)
        top_step = len(fenwick) >> 1
        total = requests_per_source * len(sources)
        while total:
            draw = randrange(total)
            # descend to the first source whose running count exceeds the
            # draw; every node not stepped over covers that source, so it
            # is decremented on the way down
            index = 0
            step = top_step
            while step:
                node = index + step
                count = fenwick[node]
                if draw < count:
                    fenwick[node] = count - 1
                else:
                    index = node
                    draw -= count
                step >>= 1
            total -= 1
            yield sources[index]
        return
    # weighted: pick among the sources that still have requests left with
    # probability proportional to their weight (missing weights default to 1)
    rng = random.Random(seed)
    remaining = [requests_per_source] * len(sources)
    weight = [weight_of.get(source, 1.0) for source in sources]
    active_weight = sum(weight) if requests_per_source else 0.0
    served = 0
    total = requests_per_source * len(sources)
    while served < total:
        draw = rng.random() * active_weight
        chosen = -1
        for index, count in enumerate(remaining):
            if not count:
                continue
            chosen = index
            draw -= weight[index]
            if draw < 0:
                break
        # float round-off can push the cursor past the last active source;
        # ``chosen`` then already holds it, so the draw stays well-defined
        remaining[chosen] -= 1
        served += 1
        if not remaining[chosen]:
            active_weight -= weight[chosen]
        yield sources[chosen]


def trace_from_workloads(
    n_nodes: int,
    source_workloads: Dict[int, WorkloadGenerator],
    requests_per_source: int,
    interleave_seed: Optional[int] = None,
    interleave: str = "shuffle",
    weights: Optional[Dict[int, float]] = None,
) -> TrafficTrace:
    """Build a trace by interleaving per-source destination sequences.

    Parameters
    ----------
    n_nodes:
        Number of network nodes.
    source_workloads:
        Mapping from source identifier to the workload generating its
        destination sequence; each workload's universe must be ``n_nodes``.
    requests_per_source:
        Number of requests generated by every source.
    interleave_seed:
        Seed of the random interleaving of the per-source streams (requests of
        one source stay in their relative order).
    interleave:
        Interleaving policy: the legacy ``"shuffle"`` (default — a
        materialised random permutation of the merged order) or one of the
        streamable :data:`INTERLEAVINGS` shared with :class:`TrafficSpec`.
    weights:
        Per-source weights for the ``"weighted"`` policy (default 1 each);
        rejected for every other policy.
    """
    if requests_per_source < 0:
        raise WorkloadError("requests_per_source must be non-negative")
    if weights and interleave != "weighted":
        raise WorkloadError(
            f"weights are only meaningful for the 'weighted' interleaving, "
            f"not {interleave!r}"
        )
    streams: Dict[int, List[int]] = {}
    for source, workload in source_workloads.items():
        if not 0 <= source < n_nodes:
            raise WorkloadError(f"source {source} outside [0, {n_nodes})")
        if workload.n_elements != n_nodes:
            raise WorkloadError(
                f"workload for source {source} has universe {workload.n_elements}, "
                f"expected {n_nodes}"
            )
        stream = workload.generate(requests_per_source)
        if len(stream) != requests_per_source:
            # trace-backed workloads truncate at their trace length; surface
            # that as a clean error naming the short source instead of an
            # index error mid-interleave
            raise WorkloadError(
                f"workload for source {source} produced {len(stream)} of "
                f"{requests_per_source} requests"
            )
        streams[source] = _skip_self(stream, source, n_nodes)

    if interleave == "shuffle":
        rng = random.Random(interleave_seed)
        order: List[int] = []
        for source, stream in streams.items():
            order.extend([source] * len(stream))
        rng.shuffle(order)
    else:
        # canonical ascending source order, exactly like TrafficSpec (which
        # sorts its sources), so both entry points draw identical orders
        order = iter_interleaving(
            interleave, sorted(streams), requests_per_source, interleave_seed, weights
        )

    cursors = {source: 0 for source in streams}
    requests: List[TrafficRequest] = []
    for source in order:
        destination = streams[source][cursors[source]]
        cursors[source] += 1
        requests.append(TrafficRequest(source=source, destination=destination))
    return TrafficTrace(n_nodes=n_nodes, requests=requests)


def _destination_slices(
    workload: WorkloadGenerator,
    source: int,
    n_nodes: int,
    n_requests: int,
    chunk_size: int,
) -> Iterator[List[int]]:
    """One source's destination stream, a workload chunk at a time, remapped.

    Each chunk of :meth:`~repro.workloads.base.WorkloadGenerator.iter_requests`
    gets the skip-self remap as a whole, so at most one ``chunk_size``
    buffer per source is resident.  A trace-backed workload that runs dry
    before ``n_requests`` raises :class:`WorkloadError` naming the source
    and how many requests it produced, once its last chunk is consumed.
    """
    produced = 0
    for chunk in workload.iter_requests(n_requests, chunk_size):
        produced += len(chunk)
        yield _skip_self(chunk, source, n_nodes)
    if produced < n_requests:
        raise WorkloadError(
            f"workload for source {source} ran dry after {produced} requests"
        )


@dataclass(frozen=True)
class TrafficSpec:
    """Immutable, registry-validated description of a multi-source trace.

    The traffic twin of :class:`~repro.workloads.spec.WorkloadSpec`: a frozen,
    hashable, JSON round-trippable recipe — per-source workload specs, an
    interleaving policy, optional weights and the interleaving seed — that
    rebuilds the same trace everywhere.  Runners ship *traffic specs* to pool
    workers (see ``TrafficSource`` in :mod:`repro.sim.runner`), which stream
    each source's destinations locally; the parent process never
    materialises a single request.

    Attributes
    ----------
    n_nodes:
        Number of network nodes; sources and destinations live in
        ``[0, n_nodes)``.
    sources:
        Sorted tuple of ``(source, WorkloadSpec)`` pairs; each workload's
        universe must be ``n_nodes`` and generates that source's destination
        sequence (occurrences of the source itself are remapped to
        ``(source + 1) % n_nodes``, exactly like
        :func:`trace_from_workloads`).
    interleaving:
        One of :data:`INTERLEAVINGS`.
    weights:
        Sorted ``(source, weight)`` pairs for the ``"weighted"`` policy
        (missing sources weigh 1); must be empty for the other policies.
    seed:
        Seed of the interleaving RNG (ignored by ``round_robin``).

    ``interleaving`` and ``weights`` only order a materialised or streamed
    trace (:meth:`build_trace`, :meth:`iter_trace`).  A network-plan trial
    serves each source's stream into its own tree, so they change none of
    its results.
    """

    n_nodes: int
    sources: Tuple[Tuple[int, WorkloadSpec], ...]
    interleaving: str = "round_robin"
    weights: Tuple[Tuple[int, float], ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise WorkloadError("a traffic spec needs at least two network nodes")
        if self.interleaving not in INTERLEAVINGS:
            raise WorkloadError(
                f"unknown interleaving {self.interleaving!r}; expected one of "
                f"{', '.join(INTERLEAVINGS)} (the legacy 'shuffle' cannot "
                "stream and is not spec-able)"
            )
        pairs = self.sources
        if not _sorted_pairs(pairs):
            try:
                pairs = tuple(
                    sorted(
                        ((int(source), spec) for source, spec in pairs),
                        key=itemgetter(0),
                    )
                )
            except (TypeError, ValueError):
                raise WorkloadError(
                    f"sources must be (source, WorkloadSpec) pairs, got "
                    f"{self.sources!r}"
                ) from None
        if not pairs:
            raise WorkloadError("a traffic spec needs at least one source")
        # the kind and universe checks read a spec's kind and params only,
        # which every re-seeded copy of a spec (``with_seed``) shares
        checked = set()
        previous = None
        for source, spec in pairs:
            if not 0 <= source < self.n_nodes:
                raise WorkloadError(
                    f"source {source} outside [0, {self.n_nodes})"
                )
            if source == previous:  # sorted, so a repeat follows its twin
                raise WorkloadError(f"duplicate source {source} in traffic spec")
            previous = source
            if not isinstance(spec, WorkloadSpec):
                raise WorkloadError(
                    f"source {source}: workload must be a WorkloadSpec, "
                    f"got {spec!r}"
                )
            template = (spec.kind, id(spec.params))
            if template not in checked:
                check_kind(spec.kind)
                check_universe(spec, self.n_nodes, f"traffic source {source}")
                checked.add(template)
        object.__setattr__(self, "sources", pairs)
        weights = self.weights
        if isinstance(weights, dict):
            weights = tuple(sorted(weights.items()))
        weight_map = _check_weights(
            {int(source): weight for source, weight in weights},
            [source for source, _spec in pairs],
            "traffic spec",
        )
        if weight_map and self.interleaving != "weighted":
            raise WorkloadError(
                "weights are only meaningful for the 'weighted' interleaving, "
                f"not {self.interleaving!r}"
            )
        object.__setattr__(self, "weights", tuple(sorted(weight_map.items())))

    # ------------------------------------------------------------ construction

    @classmethod
    def create(
        cls,
        n_nodes: int,
        source_workloads: Dict[int, WorkloadSpec],
        interleaving: str = "round_robin",
        weights: Optional[Dict[int, float]] = None,
        seed: Optional[int] = None,
    ) -> "TrafficSpec":
        """Build a spec from plain mappings (frozen into sorted tuples)."""
        return cls(
            n_nodes=n_nodes,
            sources=tuple(sorted(source_workloads.items())),
            interleaving=interleaving,
            weights=tuple(sorted((weights or {}).items())),
            seed=seed,
        )

    def with_seed(self, seed: int) -> "TrafficSpec":
        """Return a copy re-seeded for one trial.

        The network twin of :meth:`WorkloadSpec.with_seed`: the interleaving
        RNG receives ``seed`` and the source at sorted position ``p``
        receives workload seed ``seed + (p + 1) * SOURCE_SEED_STRIDE``, so a
        trial's whole traffic — every per-source stream and the merge order —
        is a pure function of one integer.
        """
        sources = tuple(
            (source, spec.with_seed(seed + (position + 1) * SOURCE_SEED_STRIDE))
            for position, (source, spec) in enumerate(self.sources)
        )
        return TrafficSpec(
            n_nodes=self.n_nodes,
            sources=sources,
            interleaving=self.interleaving,
            weights=self.weights,
            seed=seed,
        )

    # ----------------------------------------------------------------- queries

    def source_ids(self) -> List[int]:
        """Return the source identifiers, ascending."""
        return [source for source, _spec in self.sources]

    def workload_of(self, source: int) -> WorkloadSpec:
        """Return the workload spec generating ``source``'s destinations."""
        for candidate, spec in self.sources:
            if candidate == source:
                return spec
        raise WorkloadError(f"node {source} is not a source of this traffic spec")

    def weight_dict(self) -> Dict[int, float]:
        """Return the explicit per-source weights as a plain dictionary."""
        return dict(self.weights)

    # -------------------------------------------------------------- generation

    def build_trace(self, requests_per_source: int) -> TrafficTrace:
        """Materialise the described trace (the reference semantics).

        Builds every per-source generator from its spec and delegates to
        :func:`trace_from_workloads` under this spec's policy — the output
        :meth:`iter_trace` is pinned to reproduce chunk by chunk.
        """
        workloads = {
            source: build_workload(spec) for source, spec in self.sources
        }
        return trace_from_workloads(
            self.n_nodes,
            workloads,
            requests_per_source,
            interleave_seed=self.seed,
            interleave=self.interleaving,
            weights=self.weight_dict() or None,
        )

    def iter_trace(
        self,
        requests_per_source: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Tuple[List[int], List[int]]]:
        """Stream the trace as ``(sources, destinations)`` chunk pairs.

        The concatenation of the yielded chunks is exactly
        ``build_trace(requests_per_source)`` — same interleaving draws, same
        per-source streams (each source's workload streams through
        :meth:`~repro.workloads.base.WorkloadGenerator.iter_requests`, whose
        chunked output is pinned equal to ``generate``).  ``chunk_size``
        bounds both the yielded chunks and the per-source buffers, so a
        consumer of a paper-scale trace holds
        ``O(n_sources × chunk_size)`` requests, never the trace.  Arguments
        are validated *at the call*, not at first iteration.
        """
        self._check_stream_args(requests_per_source, chunk_size)
        return self._iter_trace(requests_per_source, chunk_size)

    def iter_source_streams(
        self,
        requests_per_source: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Tuple[int, Iterator[List[int]]]]:
        """Stream each source's destinations on its own, source by source.

        Yields ``(source, destination chunks)`` in ascending source order;
        each source's workload is built when its turn comes.  The chunks of
        a source concatenate to exactly the destinations :meth:`iter_trace`
        gives that source, in the same order: the interleave only orders
        requests of *different* sources, so it is never drawn here.  This
        is the feed of network-plan trials, whose per-source trees are
        independent (see
        :func:`repro.network.multi_source.serve_source_by_source`).  A
        workload that runs dry raises the :meth:`iter_trace` error once its
        chunks are used up.  Arguments are validated at the call.
        """
        self._check_stream_args(requests_per_source, chunk_size)
        return (
            (
                source,
                _destination_slices(
                    build_workload(spec),
                    source,
                    self.n_nodes,
                    requests_per_source,
                    chunk_size,
                ),
            )
            for source, spec in self.sources
        )

    @staticmethod
    def _check_stream_args(requests_per_source: int, chunk_size: int) -> None:
        if requests_per_source < 0:
            raise WorkloadError("requests_per_source must be non-negative")
        check_chunk_size(chunk_size)

    def _iter_trace(
        self, requests_per_source: int, chunk_size: int
    ) -> Iterator[Tuple[List[int], List[int]]]:
        """Generator body of :meth:`iter_trace` (arguments pre-validated).

        Each chunk's destinations are taken from the per-source feeds in
        the order of the chunk's sources, by C-level iteration: the feed of
        a source chains its remapped workload chunks.  A feed that runs dry
        raises out of the chunk being assembled, so every chunk before it
        arrives whole.
        """
        feeds = {
            source: chain.from_iterable(
                _destination_slices(
                    build_workload(spec),
                    source,
                    self.n_nodes,
                    requests_per_source,
                    chunk_size,
                )
            )
            for source, spec in self.sources
        }
        chunks = _kernel_interleaving(
            self.interleaving, self.source_ids(), requests_per_source, self.seed, chunk_size
        )
        if chunks is None:
            order = _iter_interleaving(
                self.interleaving,
                self.source_ids(),
                requests_per_source,
                self.seed,
                self.weight_dict(),
            )
            chunks = iter(lambda: list(islice(order, chunk_size)), [])
        for sources_chunk in chunks:
            yield sources_chunk, list(map(next, map(feeds.__getitem__, sources_chunk)))

    # ------------------------------------------------------------------- (de)io

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation (sources keyed by string id)."""
        return {
            "n_nodes": self.n_nodes,
            "interleaving": self.interleaving,
            "seed": self.seed,
            "weights": {str(source): weight for source, weight in self.weights},
            "sources": {
                str(source): spec.to_dict() for source, spec in self.sources
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficSpec":
        """Rebuild a spec from :meth:`to_dict` output (or equivalent JSON)."""
        if not isinstance(data, dict) or not isinstance(data.get("sources"), dict):
            raise WorkloadError(f"not a traffic-spec document: {data!r}")
        weights = data.get("weights") or {}
        if not isinstance(weights, dict):
            raise WorkloadError(
                f"traffic spec weights must be an object, got {weights!r}"
            )
        try:
            sources = {
                int(source): WorkloadSpec.from_dict(spec)
                for source, spec in data["sources"].items()
            }
            weight_map = {
                int(source): float(weight) for source, weight in weights.items()
            }
        except (TypeError, ValueError):
            raise WorkloadError(
                "traffic spec sources/weights must be keyed by integer node "
                f"identifiers: {data!r}"
            ) from None
        return cls.create(
            n_nodes=int(data.get("n_nodes", 0)),
            source_workloads=sources,
            interleaving=str(data.get("interleaving", "round_robin")),
            weights=weight_map,
            seed=data.get("seed"),
        )


def uniform_trace(
    n_nodes: int,
    n_requests: int,
    n_sources: Optional[int] = None,
    seed: Optional[int] = None,
) -> TrafficTrace:
    """Return a trace of uniformly random requests among ``n_sources`` sources."""
    if n_nodes < 2:
        raise WorkloadError("a traffic trace needs at least two network nodes")
    if n_requests < 0:
        raise WorkloadError("n_requests must be non-negative")
    rng = random.Random(seed)
    sources = list(range(n_sources if n_sources is not None else n_nodes))
    requests: List[TrafficRequest] = []
    for _ in range(n_requests):
        source = rng.choice(sources)
        destination = rng.randrange(n_nodes - 1)
        if destination >= source:
            destination += 1
        requests.append(TrafficRequest(source=source, destination=destination))
    return TrafficTrace(n_nodes=n_nodes, requests=requests)

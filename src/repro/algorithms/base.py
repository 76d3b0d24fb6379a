"""Common infrastructure for online single-source tree-network algorithms.

Every algorithm studied in the paper follows the same skeleton: a request to an
element is served by paying the access cost (the element's current level plus
one) and then, optionally, rearranging the tree with unit-cost swaps.  This
module captures that skeleton in :class:`OnlineTreeAlgorithm`, so the concrete
algorithms only implement the rearrangement step.

The base class also standardises construction (random initial placement per the
paper's experimental setup), per-run results (:class:`RunResult`) and the hook
used by offline algorithms (Static-Opt) that must see the whole sequence before
serving it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.algorithms import cascade_kernel as _kernel
from repro.core import backend as _backend
from repro.core.cost import RequestCost
from repro.core.state import TreeNetwork
from repro.core.tree import CompleteBinaryTree
from repro.exceptions import AlgorithmError, MappingError
from repro.types import ElementId, Level, RequestSequence

__all__ = ["OnlineTreeAlgorithm", "RunResult"]


@dataclass
class RunResult:
    """Aggregate outcome of running one algorithm over one request sequence.

    Attributes
    ----------
    algorithm:
        The algorithm's registry name (e.g. ``"rotor-push"``).
    n_nodes:
        Size of the tree/universe.
    n_requests:
        Number of requests served.
    total_access_cost, total_adjustment_cost:
        Summed costs over the whole run.
    per_request:
        Optional per-request cost records (present when the network's ledger
        keeps records).  Stored as a lazily-materialising
        :class:`repro.core.cost.RequestRecordColumns` snapshot by the run
        loops — it behaves like a list of :class:`RequestCost` (indexing,
        slicing, iteration, equality) but costs three integer columns, not
        one object per request.
    metadata:
        Free-form extra information (seeds, workload parameters, ...).
    """

    algorithm: str
    n_nodes: int
    n_requests: int
    total_access_cost: int
    total_adjustment_cost: int
    per_request: Sequence[RequestCost] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        """Total cost (access plus adjustment)."""
        return self.total_access_cost + self.total_adjustment_cost

    @property
    def average_access_cost(self) -> float:
        """Average access cost per request."""
        return self.total_access_cost / self.n_requests if self.n_requests else 0.0

    @property
    def average_adjustment_cost(self) -> float:
        """Average adjustment cost per request."""
        return self.total_adjustment_cost / self.n_requests if self.n_requests else 0.0

    @property
    def average_total_cost(self) -> float:
        """Average total cost per request."""
        return self.total_cost / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable summary (without per-request records)."""
        return {
            "algorithm": self.algorithm,
            "n_nodes": self.n_nodes,
            "n_requests": self.n_requests,
            "total_access_cost": self.total_access_cost,
            "total_adjustment_cost": self.total_adjustment_cost,
            "total_cost": self.total_cost,
            "average_access_cost": self.average_access_cost,
            "average_adjustment_cost": self.average_adjustment_cost,
            "average_total_cost": self.average_total_cost,
            "metadata": dict(self.metadata),
        }


class OnlineTreeAlgorithm(abc.ABC):
    """Base class for all single-source self-adjusting tree algorithms.

    Subclasses implement :meth:`_adjust`, which is called after the access cost
    of the requested element has been recorded, and may rearrange the tree
    using the network's swap primitives.

    Class attributes
    ----------------
    name:
        Registry name of the algorithm (lower-case, hyphenated).
    is_deterministic:
        ``True`` when the algorithm uses no randomness while serving.
    is_self_adjusting:
        ``True`` when the algorithm performs swaps; static trees set ``False``.
    requires_preparation:
        ``True`` when :meth:`prepare` must be called with the full request
        sequence before serving (offline algorithms such as Static-Opt).
    """

    name: str = "abstract"
    is_deterministic: bool = True
    is_self_adjusting: bool = True
    requires_preparation: bool = False

    #: Name of the algorithm's chunk function in the C cascade kernel
    #: (:mod:`repro.algorithms.cascade_kernel`), or ``None`` without one.
    #: The kernel ports ``_adjust_fast`` line for line and serves every chunk
    #: of at least ``n_nodes`` requests when marking is off and it loaded.
    kernel: Optional[str] = None

    def __init__(self, network: TreeNetwork) -> None:
        self.network = network
        self._prepared = not self.requires_preparation

    # ------------------------------------------------------------ construction

    @classmethod
    def for_tree(
        cls,
        n_nodes: Optional[int] = None,
        depth: Optional[int] = None,
        placement_seed: Optional[int] = None,
        keep_records: bool = True,
        enforce_marking: bool = False,
        **kwargs,
    ) -> "OnlineTreeAlgorithm":
        """Build the algorithm on a fresh tree with a random initial placement.

        Exactly one of ``n_nodes`` or ``depth`` must be given.  The initial
        placement is uniformly random, seeded by ``placement_seed``, matching
        the paper's experimental setup.  Additional keyword arguments are
        forwarded to the algorithm constructor (for example ``seed`` for
        Random-Push).
        """
        if (n_nodes is None) == (depth is None):
            raise AlgorithmError("specify exactly one of n_nodes or depth")
        tree = (
            CompleteBinaryTree(n_nodes)
            if n_nodes is not None
            else CompleteBinaryTree.from_depth(depth)
        )
        network = TreeNetwork.with_random_placement(
            tree,
            seed=placement_seed,
            with_rotor=cls._needs_rotor(),
            enforce_marking=enforce_marking,
            keep_records=keep_records,
        )
        return cls(network, **kwargs)

    @classmethod
    def _needs_rotor(cls) -> bool:
        """Whether the algorithm requires rotor pointers on its network."""
        return False

    # ----------------------------------------------------------------- serving

    def prepare(self, sequence: RequestSequence) -> None:
        """Give offline algorithms access to the whole sequence before serving.

        The default implementation is a no-op for online algorithms; offline
        algorithms override it and must call it before :meth:`serve`.
        """
        self._prepared = True

    def serve(self, element: ElementId) -> RequestCost:
        """Serve one request: pay the access cost, then rearrange the tree.

        Returns the :class:`RequestCost` record of this request.  On networks
        without marking enforcement the rearrangement runs on the trusted
        fast path (:meth:`_adjust_fast`); with ``enforce_marking`` enabled the
        fully checked reference path (:meth:`_adjust`) is used so the marking
        discipline stays observable.
        """
        if not self._prepared:
            raise AlgorithmError(
                f"{self.name} requires prepare(sequence) before serving requests"
            )
        network = self.network
        if network.enforce_marking:
            level = network.access(element)
            self._adjust(element, level)
            return network.finish_request()
        level, swaps = self._serve_fast(element)
        ledger = network.ledger
        if ledger.keep_records:
            return ledger.records[-1]
        return RequestCost(
            element=element,
            access_cost=level + 1,
            adjustment_cost=swaps,
            level_at_access=level,
        )

    def serve_reference(self, element: ElementId) -> RequestCost:
        """Serve one request through the checked reference path, unconditionally.

        Identical observable behaviour to :meth:`serve` (same configurations,
        same costs) but always runs :meth:`_adjust` with the validated swap
        primitives.  The property-test suite uses this to assert that the
        trusted fast paths are bit-identical to the reference implementation.
        """
        if not self._prepared:
            raise AlgorithmError(
                f"{self.name} requires prepare(sequence) before serving requests"
            )
        level = self.network.access(element)
        self._adjust(element, level)
        return self.network.finish_request()

    def run(self, sequence: Iterable[ElementId], metadata: Optional[dict] = None) -> RunResult:
        """Serve an entire request sequence and return the aggregate result.

        When the network's ledger runs with ``keep_records=False`` (and the
        marking discipline is not enforced), the loop takes a fast path that
        skips :class:`RequestCost` materialisation entirely: each request is
        accounted with a single batch ledger call instead of the
        open/charge/close protocol plus a record object.
        """
        sequence = list(sequence)
        if self.requires_preparation and not self._prepared:
            self.prepare(sequence)
        return self._run_chunks((sequence,), metadata)

    def run_stream(
        self,
        chunks: Iterable[Iterable[ElementId]],
        metadata: Optional[dict] = None,
    ) -> RunResult:
        """Serve a chunked request stream and return the aggregate result.

        The streaming twin of :meth:`run`: requests arrive as an iterable of
        chunks (see :meth:`repro.workloads.base.WorkloadGenerator.iter_requests`)
        and are served as they arrive, so the full sequence is never resident.
        Offline algorithms (``requires_preparation``) must see the whole
        sequence anyway and therefore materialise it first; an all-ndarray
        stream is concatenated (and prepared) without ever boxing a request
        into a Python int.  Costs are identical to ``run`` on the
        concatenated stream by construction — both drive the same serve loop.
        """
        if self.requires_preparation and not self._prepared:
            chunks = list(chunks)
            if (
                chunks
                and _backend.HAS_NUMPY
                and all(isinstance(chunk, _backend.np.ndarray) for chunk in chunks)
            ):
                sequence = (
                    _backend.np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                )
                self.prepare(sequence)
                return self._run_chunks(chunks, metadata)
            sequence = [element for chunk in chunks for element in chunk]
            return self.run(sequence, metadata=metadata)
        return self._run_chunks(chunks, metadata)

    def _run_chunks(
        self,
        chunks: Iterable[Iterable[ElementId]],
        metadata: Optional[dict],
    ) -> RunResult:
        """Shared serve loop of :meth:`run` and :meth:`run_stream`.

        Every chunk goes through :meth:`serve_batch`, which dispatches it to
        the C kernel, the static trees' vectorised port or the scalar fast
        loop — the streaming chunks are the batch unit.
        """
        network = self.network
        ledger = network.ledger
        for chunk in chunks:
            self.serve_batch(chunk)
        return RunResult(
            algorithm=self.name,
            n_nodes=network.tree.n_nodes,
            n_requests=ledger.n_requests,
            total_access_cost=ledger.total_access_cost,
            total_adjustment_cost=ledger.total_adjustment_cost,
            # a columnar snapshot: records materialise only if someone reads
            # them, instead of one RequestCost object per served request here
            per_request=ledger.records.copy(),
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------ batch serving

    def serve_batch(self, requests: Sequence[ElementId]) -> int:
        """Serve one chunk of requests; return how many were served.

        Observable behaviour (final placement, ledger totals, per-request
        records, RNG consumption) is identical to serving the chunk one
        request at a time through :meth:`serve` — property tests pin this for
        every algorithm and both chunk types.  The whole chunk is validated
        first, so an out-of-range element rejects it before any request is
        served.  With marking off, a chunk of at least ``n_nodes`` requests
        of an algorithm with a :attr:`kernel` goes to the C cascade kernel
        when it loaded and serves that algorithm (the copy in and out of its
        buffers is O(n) per chunk).  Otherwise, with NumPy importable and
        marking off, ndarray chunks of static trees are settled by array
        operations; everything else runs the scalar fast loop (with the
        marking-enforced reference path as the checked fallback).
        """
        if not self._prepared:
            raise AlgorithmError(
                f"{self.name} requires prepare(sequence) before serving requests"
            )
        network = self.network
        n_elements = network.tree.n_nodes
        is_array = _backend.HAS_NUMPY and isinstance(requests, _backend.np.ndarray)
        if not is_array and not isinstance(requests, list):
            requests = list(requests)
        if len(requests) == 0:
            return 0
        self._check_batch_bounds(requests, n_elements)
        if (
            not network.enforce_marking
            and self.kernel is not None
            and len(requests) >= n_elements
        ):
            kernel = _kernel.load()
            if kernel is not None and kernel.serves(self.kernel):
                return kernel.serve(self, requests)
        if is_array:
            if not network.enforce_marking and not self.is_self_adjusting:
                return self._serve_batch_static(requests)
            # Scalar loops iterate Python ints; boxing NumPy scalars one by
            # one in the loop would be slower than one bulk conversion.
            requests = requests.tolist()
        if network.enforce_marking:
            for element in requests:
                self.serve(element)
            return len(requests)
        return self._serve_batch_scalar(requests)

    def _serve_batch_scalar(self, requests: List[ElementId]) -> int:
        """Scalar fast loop over a validated list chunk (marking off).

        Each request runs :meth:`_adjust_fast` straight off its level, and
        the chunk is accounted with one
        :meth:`~repro.core.cost.CostLedger.record_batch` call, or one
        :meth:`~repro.core.cost.CostLedger.record_batch_columns` call when
        records are kept.  A request whose :meth:`_adjust_fast` returns
        ``None`` accounts the requests before it, then takes the checked
        fallback of :meth:`_serve_fast`.  A request that raises leaves the
        requests before it accounted, as the kernel does.  Subclasses may
        override it with a bespoke loop (Max-Push settles repeated requests
        in bulk); the chunk has already been bounds-checked as a whole.
        """
        network = self.network
        node_of = network._node_of
        adjust_fast = self._adjust_fast
        ledger = network.ledger
        keep_records = ledger.keep_records
        levels: List[int] = []
        swaps_column: List[int] = []
        start = served = access_total = adjustment_total = 0
        try:
            for element in requests:
                level = (node_of[element] + 1).bit_length() - 1
                swaps = adjust_fast(element, level)
                if swaps is None:
                    self._record_scalar_run(
                        requests[start : start + served],
                        access_total,
                        adjustment_total,
                        levels,
                        swaps_column,
                    )
                    levels, swaps_column = [], []
                    start += served
                    served = access_total = adjustment_total = 0
                    self._serve_checked(element, level)
                    start += 1
                    continue
                served += 1
                access_total += level
                adjustment_total += swaps
                if keep_records:
                    levels.append(level)
                    swaps_column.append(swaps)
        finally:
            self._record_scalar_run(
                requests[start : start + served],
                access_total,
                adjustment_total,
                levels,
                swaps_column,
            )
        return len(requests)

    def _record_scalar_run(
        self,
        elements: List[ElementId],
        level_total: int,
        adjustment_total: int,
        levels: List[int],
        swaps: List[int],
    ) -> None:
        """Account a run of the scalar loop in one ledger call.

        ``level_total`` sums the levels at access; ``levels`` and ``swaps``
        are the per-request columns, filled only when records are kept.
        """
        if not elements:
            # nothing to account; with a fallback request left open by a
            # raising _adjust, a ledger call would also mask that error
            return
        ledger = self.network.ledger
        if ledger.keep_records:
            ledger.record_batch_columns(elements, levels, swaps)
        else:
            count = len(elements)
            ledger.record_batch(count, level_total + count, adjustment_total)

    @staticmethod
    def _check_batch_bounds(chunk, n_elements: int) -> None:
        """Validate a non-empty chunk against the element universe in one pass.

        Batch twin of the per-request bounds check in :meth:`_serve_fast`
        for list and ndarray chunks alike, so an out-of-range element
        rejects the entire chunk instead of serving the requests before it.
        """
        if isinstance(chunk, list):
            low, high = min(chunk), max(chunk)
        else:
            low, high = int(chunk.min()), int(chunk.max())
        if low < 0 or high >= n_elements:
            bad = next(element for element in chunk if not 0 <= element < n_elements)
            raise MappingError(
                f"element {int(bad)} outside universe of size {n_elements}"
            )

    def _serve_batch_static(self, chunk) -> int:
        """Vectorised batch serve for algorithms that never adjust.

        The placement is constant across the chunk, so the levels of all
        requested elements come from two fancy-indexes (element -> node ->
        level) and the chunk is accounted with one ledger call.
        """
        network = self.network
        n_elements = network.tree.n_nodes
        levels = _backend.node_levels_view(n_elements)[network.node_of_array()[chunk]]
        count = chunk.shape[0]
        ledger = network.ledger
        if ledger.keep_records:
            ledger.record_batch_columns(chunk.tolist(), levels.tolist())
        else:
            ledger.record_batch(count, int(levels.sum()) + count, 0)
        return count

    def _serve_fast(self, element: ElementId) -> "tuple[int, int]":
        """Serve one request on the non-marking fast path; return (level, swaps).

        Shared by :meth:`serve` and the ``keep_records=False`` loop of
        :meth:`run`.  Algorithms with a trusted port (``_adjust_fast``
        returning a swap count) are accounted with one
        :meth:`repro.core.cost.CostLedger.record_request` call; unported
        algorithms fall back to the checked protocol with a record-free close
        (:meth:`TreeNetwork.finish_request_fast`, which also invalidates any
        marks the adjustment set).
        """
        network = self.network
        node_of = network._node_of
        if not 0 <= element < len(node_of):
            raise MappingError(
                f"element {element} outside universe of size {len(node_of)}"
            )
        level = (node_of[element] + 1).bit_length() - 1
        swaps = self._adjust_fast(element, level)
        if swaps is None:
            swaps = self._serve_checked(element, level)
        else:
            network.ledger.record_request(element, level, swaps)
        return level, swaps

    def _serve_checked(self, element: ElementId, level: Level) -> int:
        """Serve and account one request on the checked reference protocol.

        The fallback of the fast paths for an algorithm without a trusted
        port: :meth:`_adjust` under an open ledger request, closed without a
        record object.  Returns the request's swap count.
        """
        network = self.network
        ledger = network.ledger
        ledger.open_request(element, level)
        self._adjust(element, level)
        swaps = ledger.pending_adjustment
        network.finish_request_fast()
        return swaps

    # -------------------------------------------------------------- adjustment

    @abc.abstractmethod
    def _adjust(self, element: ElementId, level: Level) -> None:
        """Rearrange the tree after accessing ``element`` found at ``level``.

        This is the *reference* implementation: it charges adjustment cost
        through the network's checked swap primitives (or
        :meth:`TreeNetwork.apply_cycle` with an analytic swap count) and obeys
        the marking discipline when it is enforced.
        """

    def _adjust_fast(self, element: ElementId, level: Level) -> Optional[int]:
        """Trusted fast-path twin of :meth:`_adjust`.

        Implementations rearrange the tree by writing the placement lists
        directly (no validation), touch the ledger **not at all**, and return the adjustment swap count; the
        caller accounts it in one batch.  Must produce exactly the same
        element configuration and swap count as :meth:`_adjust`.

        The default returns ``None``, signalling "no trusted port available";
        callers then fall back to the checked reference path.
        """
        return None

    # ------------------------------------------------------------------ helpers

    def level_of(self, element: ElementId) -> Level:
        """Return the current level of ``element`` (convenience passthrough)."""
        return self.network.level_of(element)

    def reset_costs(self) -> None:
        """Clear the cost ledger without touching the tree configuration."""
        self.network.ledger.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self.network.tree.n_nodes})"

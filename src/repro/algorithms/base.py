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
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Optional, Sequence

from repro.core.cost import RequestCost, RequestRecordColumns
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
        The per-request records as a
        :class:`repro.core.cost.RequestRecordColumns`: element, level at
        access and swap count columns, empty when no records were kept.
    metadata:
        Free-form extra information (seeds, workload parameters, ...).
    """

    algorithm: str
    n_nodes: int
    n_requests: int
    total_access_cost: int
    total_adjustment_cost: int
    per_request: RequestRecordColumns = field(default_factory=RequestRecordColumns)
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
    #: The kernel ports :meth:`_adjust` and serves a whole seeded trial
    #: without a tree (see :func:`repro.algorithms.registry.seeded_serving`);
    #: an instance of the algorithm always serves through :meth:`_adjust`.
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

        Returns the :class:`RequestCost` record of this request.  The
        rearrangement is the checked reference, :meth:`_adjust`, on the
        validated swap primitives; with ``enforce_marking`` enabled the
        access marks the root path, so the marking discipline stays
        observable.
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

        The sequence is one :meth:`serve_batch` chunk, so no
        :class:`RequestCost` object is built per request.
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
        sequence anyway and therefore materialise it first.  Costs are
        identical to ``run`` on the concatenated stream by construction —
        both drive the same serve loop.
        """
        if self.requires_preparation and not self._prepared:
            sequence = list(chain.from_iterable(chunks))
            return self.run(sequence, metadata=metadata)
        return self._run_chunks(chunks, metadata)

    def _run_chunks(
        self,
        chunks: Iterable[Iterable[ElementId]],
        metadata: Optional[dict],
    ) -> RunResult:
        """Shared serve loop of :meth:`run` and :meth:`run_stream`.

        Every chunk goes through :meth:`serve_batch` — the streaming chunks
        are the batch unit.
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
            per_request=ledger.records.copy(),
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------ batch serving

    def serve_batch(self, requests: Sequence[ElementId]) -> int:
        """Serve one chunk of requests; return how many were served.

        Observable behaviour (final placement, ledger totals, per-request
        records, RNG consumption) is identical to serving the chunk one
        request at a time through :meth:`serve` — property tests pin this for
        every algorithm and both chunk types (a list, or the ``array('q')``
        a workload drew on the kernel, served as one ``tolist()``).  The
        whole chunk is validated first, so an out-of-range element rejects
        it before any request is served.  With marking on every request
        goes through :meth:`serve`; otherwise through :meth:`_serve_checked`,
        which builds no record object.  A request that raises leaves the
        requests before it accounted, as the kernel's chunk functions do.
        """
        if not self._prepared:
            raise AlgorithmError(
                f"{self.name} requires prepare(sequence) before serving requests"
            )
        network = self.network
        if type(requests) is not list:
            requests = requests.tolist() if type(requests) is array else list(requests)
        if not requests:
            return 0
        self._check_batch_bounds(requests, network.tree.n_nodes)
        if network.enforce_marking:
            for element in requests:
                self.serve(element)
        else:
            node_of = network._node_of
            serve_checked = self._serve_checked
            for element in requests:
                serve_checked(element, (node_of[element] + 1).bit_length() - 1)
        return len(requests)

    @staticmethod
    def _check_batch_bounds(chunk, n_elements: int) -> None:
        """Validate a non-empty chunk against the element universe in one pass.

        Batch twin of the per-request bounds check in
        :meth:`TreeNetwork.access`, so an out-of-range element rejects the
        entire chunk instead of serving the requests before it.
        """
        if min(chunk) < 0 or max(chunk) >= n_elements:
            bad = next(element for element in chunk if not 0 <= element < n_elements)
            raise MappingError(
                f"element {int(bad)} outside universe of size {n_elements}"
            )

    def _serve_checked(self, element: ElementId, level: Level) -> None:
        """Serve and account one request of a validated chunk (marking off).

        :meth:`_adjust` under an open ledger request, closed without a
        record object (:meth:`TreeNetwork.finish_request_fast`, which also
        invalidates any marks the adjustment set).
        """
        self.network.ledger.open_request(element, level)
        self._adjust(element, level)
        self.network.finish_request_fast()

    # -------------------------------------------------------------- adjustment

    @abc.abstractmethod
    def _adjust(self, element: ElementId, level: Level) -> None:
        """Rearrange the tree after accessing ``element`` found at ``level``.

        This is the *reference* implementation: it charges adjustment cost
        through the network's checked swap primitives (or
        :meth:`TreeNetwork.apply_cycle` with an analytic swap count) and obeys
        the marking discipline when it is enforced.
        """

    # ------------------------------------------------------------------ helpers

    def level_of(self, element: ElementId) -> Level:
        """Return the current level of ``element`` (convenience passthrough)."""
        return self.network.level_of(element)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self.network.tree.n_nodes})"

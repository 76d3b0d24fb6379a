"""Adversarial request constructions from the paper's analytical sections.

Two adaptive adversaries are provided:

* :class:`RotorPushWorkingSetAdversary` implements the Lemma 8 construction
  showing that Rotor-Push lacks the working-set property: requests are confined
  to the elements hosted by the set ``S`` consisting of the root and the two
  leftmost nodes of every level, and each request targets the deepest node of
  ``S`` that currently lies on the global path.  The working-set size is at
  most ``|S| = 2x - 1`` while the access cost eventually reaches the full tree
  depth, i.e. it grows linearly in the working-set size.

* :class:`MoveToFrontLowerBoundAdversary` implements the Section 1.1 lower
  bound against the naive Move-To-Front generalisation: the elements of one
  root-to-leaf path are requested round-robin (always the one currently at the
  leaf), forcing cost ``Theta(log n)`` per request while an offline algorithm
  could pack those ``Theta(log n)`` elements into the top ``Theta(log log n)``
  levels.

Both adversaries are *adaptive*: they must observe the online algorithm's tree
to pick the next request, so each owns a private algorithm instance and
produces the realised request sequence together with the per-request costs.
They are described declaratively by :class:`AdversarySpec` — the adversarial
twin of :class:`~repro.workloads.spec.WorkloadSpec`: a registry-validated,
JSON round-trippable recipe that pool workers rebuild and drive worker-side
(see ``AdversarySource`` in :mod:`repro.sim.runner`), so lower-bound curves
run under ``repro.run()`` with fan-out and caching like every other scenario.

The non-adaptive equivalent of the Move-To-Front construction is exposed both
as :func:`round_robin_path_sequence` and as the registered ``round_robin_path``
workload kind (:class:`RoundRobinPathWorkload`) for use as a plain workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.algorithms.move_to_front import MoveToFrontTree
from repro.algorithms.rotor_push import RotorPush
from repro.core.cost import RequestCost
from repro.core.state import TreeNetwork
from repro.core.tree import CompleteBinaryTree
from repro.exceptions import WorkloadError
from repro.types import ElementId, NodeId
from repro.workloads.base import WorkloadGenerator, check_chunk_size
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    freeze_params,
    register_workload,
    thaw_value,
)

__all__ = [
    "AdversarySpec",
    "RotorPushWorkingSetAdversary",
    "MoveToFrontLowerBoundAdversary",
    "RoundRobinPathWorkload",
    "build_adversary",
    "check_adversary_kind",
    "register_adversary",
    "registered_adversary_kinds",
    "working_set_adversary_nodes",
    "round_robin_path_sequence",
]


def working_set_adversary_nodes(tree: CompleteBinaryTree) -> Set[NodeId]:
    """Return the node set ``S`` of Lemma 8: the root plus the two leftmost nodes per level."""
    nodes: Set[NodeId] = {tree.root}
    for level in range(1, tree.depth + 1):
        first = tree.first_node_at_level(level)
        nodes.add(first)
        nodes.add(first + 1)
    return nodes


def round_robin_path_sequence(depth: int, n_requests: int) -> List[ElementId]:
    """Return the Section 1.1 round-robin sequence over the leftmost root-to-leaf path.

    Assuming the identity placement, the elements on the leftmost path are the
    nodes ``2**l - 1`` for levels ``l = 0 .. depth``; under the Move-To-Front
    tree dynamics "always request the element at the leaf" is equivalent to the
    fixed cyclic order leaf-element, next-deeper-element, ..., root-element.
    """
    if depth < 0:
        raise WorkloadError(f"depth must be non-negative, got {depth}")
    if n_requests < 0:
        raise WorkloadError(f"n_requests must be non-negative, got {n_requests}")
    path_elements = [(1 << level) - 1 for level in range(depth, -1, -1)]
    return [path_elements[i % len(path_elements)] for i in range(n_requests)]


class RoundRobinPathWorkload(WorkloadGenerator):
    """The Section 1.1 round-robin path sequence as a registered workload.

    Deterministic and seedless: request ``i`` is the ``(i mod (depth+1))``-th
    element of the cyclic order leaf-element, next-deeper-element, ...,
    root-element (identity placement).  Unlike the adaptive adversaries this
    construction is a plain request stream, so it can be pointed at *any*
    algorithm through the ordinary spec/plan machinery — e.g. to compare how
    Rotor-Push and Move-To-Front fare on the same lower-bound input.
    """

    name = "round-robin-path"

    def __init__(self, depth: int) -> None:
        if depth < 0:
            raise WorkloadError(f"depth must be non-negative, got {depth}")
        tree = CompleteBinaryTree.from_depth(depth)
        super().__init__(tree.n_nodes, seed=None)
        self.depth = depth
        self._path_elements = [
            (1 << level) - 1 for level in range(depth, -1, -1)
        ]

    def generate(self, n_requests: int) -> List[ElementId]:
        self._check_length(n_requests)
        path = self._path_elements
        return [path[i % len(path)] for i in range(n_requests)]

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[List[ElementId]]:
        """Stream natively, as lists: the cyclic position carries across chunks."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        path = self._path_elements
        for start in range(0, n_requests, chunk_size):
            stop = min(start + chunk_size, n_requests)
            yield [path[i % len(path)] for i in range(start, stop)]

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create(
            "round_robin_path", depth=self.depth, n_elements=self.n_elements
        )

    def parameters(self):
        params = super().parameters()
        params["depth"] = self.depth
        params["path_length"] = len(self._path_elements)
        return params


@register_workload("round_robin_path")
def _build_round_robin_path(
    params: Dict[str, object], seed: Optional[int]
) -> RoundRobinPathWorkload:
    del seed  # deterministic construction; trial seeding cannot apply
    workload = RoundRobinPathWorkload(int(params["depth"]))
    declared = params.get("n_elements")
    if declared is not None and int(declared) != workload.n_elements:
        raise WorkloadError(
            f"round_robin_path depth {workload.depth} implies a universe of "
            f"{workload.n_elements} elements but the spec declares {declared}"
        )
    return workload


class RotorPushWorkingSetAdversary(WorkloadGenerator):
    """Adaptive adversary realising the Lemma 8 working-set-property violation.

    The adversary simulates its own Rotor-Push instance starting from the
    identity placement with all rotor pointers to the left (the initial state
    used in the lemma) and repeatedly requests ``el(v)`` where ``v`` is the
    deepest node that lies both in ``S`` and on the current global path.

    Parameters
    ----------
    depth:
        Tree depth ``x - 1`` (the lemma's tree has ``x`` levels).
    """

    name = "rotor-ws-adversary"

    def __init__(self, depth: int) -> None:
        tree = CompleteBinaryTree.from_depth(depth)
        super().__init__(tree.n_nodes, seed=None)
        network = TreeNetwork(tree, with_rotor=True)
        self._algorithm = RotorPush(network)
        self._target_nodes = working_set_adversary_nodes(tree)

    @property
    def algorithm(self) -> RotorPush:
        """The private Rotor-Push instance driven by the adversary."""
        return self._algorithm

    def _next_target(self) -> NodeId:
        """Return the deepest global-path node belonging to ``S``."""
        rotor = self._algorithm.network.rotor
        deepest = self._algorithm.network.tree.root
        for node in rotor.global_path():
            if node in self._target_nodes:
                deepest = node
        return deepest

    def generate_with_costs(
        self, n_requests: int
    ) -> Tuple[List[ElementId], List[RequestCost]]:
        """Produce ``n_requests`` adaptive requests and the costs Rotor-Push paid."""
        self._check_length(n_requests)
        sequence: List[ElementId] = []
        costs: List[RequestCost] = []
        for _ in range(n_requests):
            target = self._next_target()
            element = self._algorithm.network.element_at(target)
            sequence.append(element)
            costs.append(self._algorithm.serve(element))
        return sequence, costs

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return only the realised request sequence (costs are discarded)."""
        sequence, _ = self.generate_with_costs(n_requests)
        return sequence

    def parameters(self):
        params = super().parameters()
        params["depth"] = self._algorithm.network.tree.depth
        params["target_set_size"] = len(self._target_nodes)
        return params


class MoveToFrontLowerBoundAdversary(WorkloadGenerator):
    """Adaptive adversary realising the Section 1.1 lower bound against MTF-on-a-tree.

    Always requests the element currently stored at the leaf of the (initially
    leftmost) root-to-leaf path of its private Move-To-Front instance.
    """

    name = "mtf-lower-bound-adversary"

    def __init__(self, depth: int) -> None:
        tree = CompleteBinaryTree.from_depth(depth)
        super().__init__(tree.n_nodes, seed=None)
        network = TreeNetwork(tree)
        self._algorithm = MoveToFrontTree(network)
        self._leaf = tree.first_node_at_level(tree.depth)

    @property
    def algorithm(self) -> MoveToFrontTree:
        """The private Move-To-Front instance driven by the adversary."""
        return self._algorithm

    def generate_with_costs(
        self, n_requests: int
    ) -> Tuple[List[ElementId], List[RequestCost]]:
        """Produce ``n_requests`` adaptive requests and the costs MTF paid."""
        self._check_length(n_requests)
        sequence: List[ElementId] = []
        costs: List[RequestCost] = []
        for _ in range(n_requests):
            element = self._algorithm.network.element_at(self._leaf)
            sequence.append(element)
            costs.append(self._algorithm.serve(element))
        return sequence, costs

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return only the realised request sequence (costs are discarded)."""
        sequence, _ = self.generate_with_costs(n_requests)
        return sequence

    def parameters(self):
        params = super().parameters()
        params["depth"] = self._algorithm.network.tree.depth
        return params


# --------------------------------------------------------------------------
# AdversarySpec: declarative descriptions of the adaptive adversaries.
# --------------------------------------------------------------------------

#: One builder per registered adversary kind: ``params -> adversary``.
_ADVERSARY_REGISTRY: Dict[str, Callable[[Dict[str, object]], WorkloadGenerator]] = {}


def register_adversary(kind: str) -> Callable:
    """Class decorator registering a builder for an adversary kind."""

    def decorator(builder: Callable) -> Callable:
        _ADVERSARY_REGISTRY[kind] = builder
        return builder

    return decorator


def registered_adversary_kinds() -> List[str]:
    """Return the registered adversary kinds, sorted."""
    return sorted(_ADVERSARY_REGISTRY)


def check_adversary_kind(kind: str) -> str:
    """Validate an adversary kind eagerly, listing the alternatives on error."""
    if kind not in _ADVERSARY_REGISTRY:
        known = ", ".join(sorted(_ADVERSARY_REGISTRY)) or "(none registered)"
        raise WorkloadError(f"unknown adversary kind {kind!r}; registered: {known}")
    return kind


@dataclass(frozen=True)
class AdversarySpec:
    """Immutable, registry-validated description of an adaptive adversary.

    The adversarial twin of :class:`~repro.workloads.spec.WorkloadSpec`.  An
    adaptive adversary cannot be a workload spec — it must *observe* the
    algorithm's tree, so the request sequence only exists once the private
    algorithm instance runs.  The spec therefore names the construction and
    its parameters; pool workers :meth:`build` the adversary and drive it via
    ``generate_with_costs`` (see ``AdversarySource`` in
    :mod:`repro.sim.runner`).  Every field is result-determining, so the spec
    participates verbatim in payload cache keys.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        check_adversary_kind(self.kind)

    @classmethod
    def create(cls, kind: str, **params: object) -> "AdversarySpec":
        """Build a spec from keyword parameters (validated eagerly)."""
        return cls(kind=kind, params=freeze_params(params))

    def param_dict(self) -> Dict[str, object]:
        """Return the parameters as a plain dictionary."""
        return dict(self.params)

    def get(self, name: str, default: object = None) -> object:
        """Return one parameter (or ``default``)."""
        return self.param_dict().get(name, default)

    def build(self) -> WorkloadGenerator:
        """Construct the described adversary (fresh private algorithm state)."""
        return _ADVERSARY_REGISTRY[self.kind](self.param_dict())

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation."""
        return {
            "kind": self.kind,
            "params": {name: thaw_value(value) for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AdversarySpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls.create(str(data["kind"]), **dict(data.get("params", {})))


def build_adversary(spec: AdversarySpec) -> WorkloadGenerator:
    """Construct the adversary described by ``spec`` (module-level alias)."""
    return spec.build()


@register_adversary("rotor-working-set")
def _build_rotor_working_set(params: Dict[str, object]) -> RotorPushWorkingSetAdversary:
    return RotorPushWorkingSetAdversary(int(params["depth"]))


@register_adversary("mtf-lower-bound")
def _build_mtf_lower_bound(params: Dict[str, object]) -> MoveToFrontLowerBoundAdversary:
    return MoveToFrontLowerBoundAdversary(int(params["depth"]))

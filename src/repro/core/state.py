"""Mutable configuration of a single-source self-adjusting tree network.

A :class:`TreeNetwork` ties together the three ingredients every algorithm in
the paper manipulates:

* the fixed complete binary tree topology (:class:`repro.core.tree.CompleteBinaryTree`),
* the bijective mapping ``nd : E -> T`` between elements and nodes together
  with its inverse ``el``, and
* a :class:`repro.core.cost.CostLedger` recording access and adjustment costs.

The only mutation primitive that touches the mapping is the adjacent
:meth:`TreeNetwork.swap` (and the cycle-application helper used by algorithms
whose cost is charged analytically); the marking discipline of Section 2 of
the paper - "subsequent swaps are allowed only if one of the swapped nodes is
marked; after the swap both involved nodes are marked" - is enforced when
``enforce_marking`` is enabled.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core import backend as _backend
from repro.core.cost import CostLedger
from repro.core.rotor import RotorState
from repro.core.tree import CompleteBinaryTree
from repro.exceptions import MappingError, SwapError
from repro.types import ElementId, Level, NodeId

__all__ = ["TreeNetwork", "identity_placement", "random_placement"]


def identity_placement(n_nodes: int) -> List[ElementId]:
    """Return the placement mapping node ``i`` to element ``i`` (BFS order)."""
    return list(range(n_nodes))


def random_placement(n_nodes: int, rng: Union[random.Random, int]) -> List[ElementId]:
    """Return a uniformly random placement of elements onto nodes.

    The paper's experiments always construct the initial tree "by placing the
    nodes uniformly at random"; this helper produces such a placement.

    Parameters
    ----------
    n_nodes:
        Number of nodes (and elements).
    rng:
        A :class:`random.Random` instance or an integer seed.  The argument is
        mandatory: library code must state its randomness source explicitly
        instead of silently drawing from the global ``random`` module, so that
        every placement in an experiment is attributable to a seed.
    """
    if isinstance(rng, int) and not isinstance(rng, bool):
        rng = random.Random(rng)
    if not isinstance(rng, random.Random):
        raise TypeError(
            "random_placement requires an explicit random.Random instance or "
            f"integer seed, got {rng!r}"
        )
    placement = list(range(n_nodes))
    rng.shuffle(placement)
    return placement


#: One tuple of int objects per tree size, shared by every placement list of
#: that size.  Placement lists hold references, so boxing the ints afresh per
#: tree would cost every tree 2 x n int objects: at 256 trees of 1,023 nodes
#: that alone lifted the multi-source benchmark's peak RSS by about 15%.
_SHARED_INTS: Dict[int, Tuple[int, ...]] = {}


def _shared_ints(n_nodes: int) -> Tuple[int, ...]:
    ints = _SHARED_INTS.get(n_nodes)
    if ints is None:
        ints = _SHARED_INTS[n_nodes] = tuple(range(n_nodes))
    return ints


#: One ``frozenset(range(n))`` per tree size: a placement of ``n`` entries is
#: a bijection exactly when its set of elements equals it.
_ELEMENT_SETS: Dict[int, FrozenSet[int]] = {}


def _element_set(n_nodes: int) -> FrozenSet[int]:
    elements = _ELEMENT_SETS.get(n_nodes)
    if elements is None:
        elements = _ELEMENT_SETS[n_nodes] = frozenset(_shared_ints(n_nodes))
    return elements


class TreeNetwork:
    """Tree topology plus element placement, rotor pointers and cost ledger.

    Parameters
    ----------
    tree:
        The complete binary tree topology.
    placement:
        Optional initial placement: ``placement[node]`` is the element stored
        at ``node``.  Defaults to the identity placement.
    with_rotor:
        When ``True`` a :class:`RotorState` (all pointers to the left child,
        matching the paper's initial state) is attached.
    ledger:
        Optional cost ledger to use; a fresh one is created by default.
    enforce_marking:
        When ``True``, :meth:`swap` enforces the marking discipline: a swap is
        legal only if at least one endpoint is marked, and the access path of
        the current request is marked automatically by :meth:`access`.  When
        ``False`` (the default, used by all large-scale runs), no marking
        bookkeeping is performed at all: :meth:`access` then costs one epoch
        increment instead of stamping the whole root path.
    rotor:
        Optional pre-built :class:`RotorState` to attach (it must live on the
        same tree).  Takes precedence over ``with_rotor``; used by
        :meth:`copy` so rotor pointers travel through the constructor instead
        of being bolted on afterwards.

    Notes
    -----
    Marking is implemented as an epoch-stamped integer array rather than a
    per-request set: every request bumps a single epoch counter, and a node is
    marked iff its stamp equals the current epoch.  Clearing all marks at the
    end of a request is therefore O(1) (one counter bump) instead of O(depth)
    set destruction, and the serve hot path allocates nothing.
    """

    __slots__ = (
        "tree",
        "rotor",
        "ledger",
        "enforce_marking",
        "_elem_at",
        "_node_of",
        "_node_of_np",
        "_mark_epoch",
        "_epoch",
    )

    def __init__(
        self,
        tree: CompleteBinaryTree,
        placement: Optional[Sequence[ElementId]] = None,
        with_rotor: bool = False,
        ledger: Optional[CostLedger] = None,
        enforce_marking: bool = False,
        rotor: Optional[RotorState] = None,
    ) -> None:
        self.tree = tree
        if placement is None:
            placement = identity_placement(tree.n_nodes)
        self._set_placement(placement)
        if rotor is not None:
            if rotor.tree != tree:
                raise MappingError(
                    "rotor state belongs to a different tree than the network"
                )
            self.rotor: Optional[RotorState] = rotor
        else:
            self.rotor = RotorState(tree) if with_rotor else None
        self.ledger = ledger if ledger is not None else CostLedger()
        self.enforce_marking = enforce_marking
        # Epoch 0 is reserved for "never marked"; the counter starts at 1 so
        # the freshly zeroed stamp array reads as fully unmarked.
        self._mark_epoch: List[int] = [0] * tree.n_nodes
        self._epoch = 1

    # ------------------------------------------------------------ construction

    @classmethod
    def with_random_placement(
        cls,
        tree: CompleteBinaryTree,
        seed: Optional[int] = None,
        with_rotor: bool = False,
        enforce_marking: bool = False,
        keep_records: bool = True,
    ) -> "TreeNetwork":
        """Build a network whose initial placement is uniformly random.

        This mirrors the experimental setup of the paper, where "the initial
        trees were always constructed by placing the nodes uniformly at
        random".
        """
        rng = random.Random(seed)
        return cls(
            tree,
            placement=random_placement(tree.n_nodes, rng),
            with_rotor=with_rotor,
            ledger=CostLedger(keep_records=keep_records),
            enforce_marking=enforce_marking,
        )

    def _set_placement(self, placement: Sequence[ElementId]) -> None:
        n_nodes = self.tree.n_nodes
        if len(placement) != n_nodes:
            raise MappingError(
                f"placement has {len(placement)} entries, expected {n_nodes}"
            )
        elements = list(map(int, placement))
        if set(elements) != _element_set(n_nodes):
            raise MappingError(
                "placement is not a bijection onto elements 0..n-1"
            )
        ints = _shared_ints(n_nodes)
        elements = list(map(ints.__getitem__, elements))
        inverse = [0] * n_nodes
        for node, element in zip(ints, elements):
            inverse[element] = node
        self._elem_at = elements
        self._node_of = inverse
        self._node_of_np = None

    def node_of_array(self):
        """Return a read-only NumPy copy of the element-to-node mapping.

        Built on first use for the static vectorised batch port
        (:meth:`repro.algorithms.base.OnlineTreeAlgorithm.serve_batch`) and
        kept until the placement changes through :meth:`reset_placement` or
        a checked swap primitive.  The trusted primitives do not drop it:
        only self-adjusting algorithms call them, and those never read the
        copy.  Requires NumPy.
        """
        copy = self._node_of_np
        if copy is None:
            np = _backend.np
            copy = np.array(self._node_of, dtype=np.intp)
            copy.setflags(write=False)
            self._node_of_np = copy
        return copy

    def copy(self) -> "TreeNetwork":
        """Return an independent deep copy of this network.

        The copy shares the immutable tree object but owns independent copies
        of the placement, the rotor pointers (passed through the constructor),
        the marking state and the cost ledger — including its accumulated
        totals and records, so a copy taken mid-experiment continues
        accounting from the same figures as the original.
        """
        clone = TreeNetwork(
            self.tree,
            placement=self._elem_at,
            rotor=self.rotor.copy() if self.rotor is not None else None,
            ledger=self.ledger.copy(),
            enforce_marking=self.enforce_marking,
        )
        clone._mark_epoch = list(self._mark_epoch)
        clone._epoch = self._epoch
        return clone

    # -------------------------------------------------------------- the mapping

    @property
    def n_elements(self) -> int:
        """Number of elements (equals the number of nodes)."""
        return self.tree.n_nodes

    def element_at(self, node: NodeId) -> ElementId:
        """Return ``el(node)``: the element currently stored at ``node``."""
        self.tree.check_node(node)
        return self._elem_at[node]

    def node_of(self, element: ElementId) -> NodeId:
        """Return ``nd(element)``: the node currently storing ``element``."""
        self._check_element(element)
        return self._node_of[element]

    def level_of(self, element: ElementId) -> Level:
        """Return the current level of ``element`` in the tree."""
        return self.tree.level(self.node_of(element))

    def _check_element(self, element: ElementId) -> ElementId:
        if not 0 <= element < self.tree.n_nodes:
            raise MappingError(
                f"element {element} outside universe of size {self.tree.n_nodes}"
            )
        return element

    def placement(self) -> List[ElementId]:
        """Return a copy of the node-to-element placement array."""
        return list(self._elem_at)

    def element_positions(self) -> Dict[ElementId, NodeId]:
        """Return a dict mapping every element to its current node."""
        return {element: node for node, element in enumerate(self._elem_at)}

    def elements_at_level(self, level: Level) -> List[ElementId]:
        """Return the elements currently stored at ``level``, left to right."""
        return [self._elem_at[node] for node in self.tree.nodes_at_level(level)]

    # ---------------------------------------------------------------- requests

    def access(self, element: ElementId) -> Level:
        """Access ``element``: open cost accounting and mark its root path.

        Returns the element's level at access time.  The access cost
        ``level + 1`` is recorded in the ledger.  When ``enforce_marking`` is
        enabled, the root-to-element path is marked (epoch-stamped) so that
        subsequent swaps obeying the marking discipline are legal; without
        enforcement no marking work is done at all — the dominant cost of the
        old implementation was building a fresh ``set(path_to_root)`` per
        request even though nothing ever consulted it.
        """
        node_of = self._node_of
        if not 0 <= element < len(node_of):
            raise MappingError(
                f"element {element} outside universe of size {len(node_of)}"
            )
        node = node_of[element]
        level = (node + 1).bit_length() - 1
        self.ledger.open_request(element, level)
        self._epoch += 1
        if self.enforce_marking:
            epoch = self._epoch
            stamp = self._mark_epoch
            stamp[node] = epoch
            while node:
                node = (node - 1) >> 1
                stamp[node] = epoch
        return level

    def finish_request(self):
        """Close cost accounting for the current request and clear markings."""
        record = self.ledger.close_request()
        self._epoch += 1  # lazily invalidates every mark of this request
        return record

    def finish_request_fast(self) -> None:
        """Close the current request without materialising a cost record.

        Fast-path twin of :meth:`finish_request` for aggregate-only serve
        loops (``keep_records=False``): ledger totals are updated identically
        but no :class:`repro.core.cost.RequestCost` is built or returned.
        """
        self.ledger.close_request_fast()
        self._epoch += 1

    def is_marked(self, node: NodeId) -> bool:
        """Return ``True`` if ``node`` is marked in the current request.

        Marking state is only materialised when ``enforce_marking`` is enabled
        (or :meth:`mark` is called explicitly); on non-enforcing networks the
        serve fast path skips it entirely and this always returns ``False``.
        """
        return self._mark_epoch[node] == self._epoch

    def mark(self, node: NodeId) -> None:
        """Explicitly mark ``node`` (used by algorithms with bespoke swap plans)."""
        self._mark_epoch[self.tree.check_node(node)] = self._epoch

    # ------------------------------------------------------------------- swaps

    def swap(self, node_a: NodeId, node_b: NodeId, charge: bool = True) -> None:
        """Swap the elements stored at two *adjacent* nodes.

        Parameters
        ----------
        node_a, node_b:
            The two nodes; one must be the parent of the other.
        charge:
            Whether to charge one unit of adjustment cost to the open request
            (algorithms that account cost analytically can pass ``False``).
        """
        self.tree.check_node(node_a)
        self.tree.check_node(node_b)
        parent_of_b = node_b != 0 and (node_b - 1) >> 1 == node_a
        parent_of_a = node_a != 0 and (node_a - 1) >> 1 == node_b
        if not (parent_of_a or parent_of_b):
            raise SwapError(f"nodes {node_a} and {node_b} are not adjacent")
        if self.enforce_marking:
            epoch = self._epoch
            stamp = self._mark_epoch
            if stamp[node_a] != epoch and stamp[node_b] != epoch:
                raise SwapError(
                    f"swap of unmarked nodes {node_a}, {node_b} violates the "
                    "marking discipline"
                )
            stamp[node_a] = epoch
            stamp[node_b] = epoch
        elem_a, elem_b = self._elem_at[node_a], self._elem_at[node_b]
        self._elem_at[node_a], self._elem_at[node_b] = elem_b, elem_a
        self._node_of[elem_a], self._node_of[elem_b] = node_b, node_a
        self._node_of_np = None
        if charge:
            self.ledger.charge_swaps(1)

    def swap_with_parent(self, node: NodeId, charge: bool = True) -> NodeId:
        """Swap the element at ``node`` with the one at its parent; return the parent."""
        parent = self.tree.parent(node)
        self.swap(node, parent, charge=charge)
        return parent

    def apply_cycle(
        self,
        cycle_nodes: Sequence[NodeId],
        charged_swaps: int,
    ) -> None:
        """Apply a cyclic shift of elements along ``cycle_nodes`` with analytic cost.

        The element at ``cycle_nodes[i]`` moves to ``cycle_nodes[i + 1]`` (and
        the last one wraps around to the first node).  The caller supplies the
        number of unit swaps ``charged_swaps`` that an adjacent-swap
        realisation of this permutation would use; that amount is charged to
        the open request.  This is used by algorithms (Max-Push, and the
        fast-path of the push-down operation) whose cost is accounted by a
        closed-form formula rather than by materialising every swap.
        """
        if charged_swaps < 0:
            raise SwapError(f"charged_swaps must be non-negative, got {charged_swaps}")
        nodes = [self.tree.check_node(node) for node in cycle_nodes]
        if len(set(nodes)) != len(nodes):
            raise SwapError(f"cycle contains repeated nodes: {nodes}")
        if len(nodes) >= 2:
            moved = [self._elem_at[node] for node in nodes]
            for index, node in enumerate(nodes):
                element = moved[index - 1]
                self._elem_at[node] = element
                self._node_of[element] = node
            self._node_of_np = None
        if charged_swaps:
            self.ledger.charge_swaps(charged_swaps)

    def apply_cycle_trusted(self, cycle_nodes: Sequence[NodeId]) -> None:
        """Apply a cyclic element shift without validation or cost accounting.

        Trusted fast-path twin of :meth:`apply_cycle`: the caller guarantees
        that ``cycle_nodes`` are valid, pairwise-distinct nodes of this tree
        and accounts the adjustment cost itself (via
        :meth:`repro.core.cost.CostLedger.charge_swaps` or
        :meth:`repro.core.cost.CostLedger.record_request`).  The element
        permutation is identical to :meth:`apply_cycle`.
        """
        elem_at = self._elem_at
        node_of = self._node_of
        carried = elem_at[cycle_nodes[-1]]
        for node in cycle_nodes:
            displaced = elem_at[node]
            elem_at[node] = carried
            node_of[carried] = node
            carried = displaced

    def exchange_trusted(self, node_a: NodeId, node_b: NodeId) -> None:
        """Exchange the elements of two valid nodes, no validation or accounting.

        Trusted fast-path primitive for algorithms (Move-Half) whose net
        effect is a transposition realised by adjacent swaps whose count is
        known in closed form.
        """
        elem_at = self._elem_at
        node_of = self._node_of
        elem_a, elem_b = elem_at[node_a], elem_at[node_b]
        elem_at[node_a], elem_at[node_b] = elem_b, elem_a
        node_of[elem_a], node_of[elem_b] = node_b, node_a

    def reset_placement(self, placement: Sequence[ElementId]) -> None:
        """Replace the whole element placement (used by offline/static algorithms).

        No cost is charged: static algorithms such as Static-Opt arrange their
        tree before the request sequence starts.
        """
        self._set_placement(placement)

    # -------------------------------------------------------------- validation

    def validate(self) -> None:
        """Verify the element/node bijection; raise :class:`MappingError` if broken."""
        n_nodes = self.tree.n_nodes
        seen = [False] * n_nodes
        for node, element in enumerate(self._elem_at):
            if not 0 <= element < n_nodes:
                raise MappingError(f"node {node} stores invalid element {element}")
            if seen[element]:
                raise MappingError(f"element {element} stored at two nodes")
            seen[element] = True
            if self._node_of[element] != node:
                raise MappingError(
                    f"inverse mapping broken: element {element} at node {node} "
                    f"but node_of says {self._node_of[element]}"
                )

    # ------------------------------------------------------------ presentation

    def levels_view(self) -> List[List[ElementId]]:
        """Return the placement as a list of levels (useful for debugging/tests)."""
        return [
            [self._elem_at[node] for node in level_range]
            for level_range in self.tree.levels()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TreeNetwork(n={self.tree.n_nodes}, depth={self.tree.depth}, "
            f"rotor={'yes' if self.rotor else 'no'})"
        )

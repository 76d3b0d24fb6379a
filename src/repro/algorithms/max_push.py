"""Max-Push (Strict-MRU): keep elements in most-recently-used order.

Algorithm 2 of the paper: upon accessing element ``e`` at depth ``k``, move
``e`` to the root and demote, for every level ``j < k``, the least recently
used element of level ``j`` one level down; the least recently used element of
level ``k`` finally takes the vacated node ``nd(e)``.  The resulting tree is a
*strict MRU tree*: on every root-to-leaf path, elements are ordered by recency
of use.  This gives optimal access costs (the working-set property holds by
construction) but the adjustment cost per request can be quadratic in the
access depth, because each demoted element may have to travel across the tree.

The paper lists its competitive ratio as an open question (Table 1); the
empirical section shows its adjustment cost dominates in every scenario.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.lru_index import LevelLRUIndex
from repro.core.state import TreeNetwork
from repro.exceptions import AlgorithmError
from repro.types import ElementId, Level, NodeId

__all__ = ["MaxPush"]


class MaxPush(OnlineTreeAlgorithm):
    """Strict-MRU maintenance via per-level demotion of the least recent element."""

    name = "max-push"
    is_deterministic = True
    is_self_adjusting = True
    kernel = "max_push"

    def __init__(self, network: TreeNetwork) -> None:
        super().__init__(network)
        self._lru = LevelLRUIndex(network)

    def _adjust(self, element: ElementId, level: Level) -> None:
        self._lru.record_access(element)
        if level == 0:
            return
        tree = self.network.tree
        root = tree.root

        # The demotion cascade: the old root element goes to the node of the
        # least-recently-used element of level 1, which goes to the node of the
        # LRU element of level 2, and so on; the LRU element of level `level`
        # finally takes the node vacated by the accessed element.
        victims: List[ElementId] = []
        for depth in range(1, level + 1):
            victims.append(self._lru.least_recently_used(depth, exclude=element))

        source = self.network.node_of(element)
        cycle: List[NodeId] = [root]
        cycle.extend(self.network.node_of(victim) for victim in victims)
        cycle.append(source)

        # Adjustment cost of an adjacent-swap realisation: the accessed element
        # climbs `level` edges to the root, and every relocated element travels
        # the tree distance between consecutive cycle nodes.
        swaps = level
        for index in range(1, len(cycle)):
            swaps += tree.distance(cycle[index - 1], cycle[index])

        self.network.apply_cycle(cycle, charged_swaps=swaps)

        # Book-keeping for the LRU index: the accessed element is now at the
        # root, every victim moved one level down, except the last victim which
        # moved to the accessed element's old level (== its own level).
        self._lru.move(element, 0)
        old_root_element = self.network.element_at(cycle[1])
        self._lru.move(old_root_element, 1)
        for depth, victim in enumerate(victims[:-1], start=1):
            self._lru.move(victim, depth + 1)
        # victims[-1] stays on level `level`.

    def _serve_batch_scalar(self, requests: List[ElementId]) -> int:
        """Serve one validated list chunk with the repeat runs batched.

        After any served request the accessed element occupies the root, so a
        request equal to its predecessor is a guaranteed root hit: access
        cost 1, no swaps, no demotion cascade — the only state change is the
        LRU clock tick of ``record_access``.  This loop therefore runs the
        cascade only for the *first* request of every maximal equal-run and
        settles the remaining repeats with one
        :meth:`~repro.algorithms.lru_index.LevelLRUIndex.record_repeats`
        bump.  With records off the whole chunk is accounted with one
        :meth:`~repro.core.cost.CostLedger.record_batch` call (covering the
        runs served before a request that raises, as the request-by-request
        protocol would); with records on, each run head is recorded as it is
        served and each run's repeats with one column call.  Observable
        behaviour (placement, victim selection, ledger totals, per-request
        records) is identical to the request-by-request protocol — pinned by
        the batch-serve equivalence property tests.
        """
        network = self.network
        node_of = network._node_of
        adjust_fast = self._adjust_fast
        record_repeats = self._lru.record_repeats
        ledger = network.ledger
        keep_records = ledger.keep_records
        count = len(requests)
        access_total = adjustment_total = 0
        index = 0
        try:
            while index < count:
                element = requests[index]
                end = index + 1
                while end < count and requests[end] == element:
                    end += 1
                level = (node_of[element] + 1).bit_length() - 1
                swaps = adjust_fast(element, level)
                repeats = end - index - 1
                if keep_records:
                    ledger.record_request(element, level, swaps)
                    if repeats:
                        ledger.record_batch_columns(
                            [element] * repeats, [0] * repeats, [0] * repeats
                        )
                else:
                    # the run head pays level + 1; each repeat is a root hit
                    access_total += level + end - index
                    adjustment_total += swaps
                if repeats:
                    # the element is now at the root; the rest of the run are
                    # root hits whose only state change is the LRU clock
                    record_repeats(element, repeats)
                index = end
        finally:
            if not keep_records:
                ledger.record_batch(index, access_total, adjustment_total)
        return count

    def _adjust_fast(self, element: ElementId, level: Level) -> Optional[int]:
        """Fused demotion cascade over the placement and the LRU index.

        One pass from the root down: at each level it reads the level's LRU
        head (the victim), moves the carried element onto the victim's node,
        unlinks the victim and links the carried element into the level's
        list — at the tail with one stamp comparison when it is the newest
        there, else through :meth:`LevelLRUIndex.place`.  The swap count is
        the reference path's closed form: the accessed element's ``level``
        swaps up, one swap down per level plus twice the climb to each hop's
        lowest common ancestor, read off 1-based heap ids as the bit length
        of the XOR of two same-level ids.
        """
        lru = self._lru
        last_access = lru._last_access
        clock = lru._clock + 1
        lru._clock = clock
        if last_access[element] < 0:
            lru._forget_never(element, level)
        last_access[element] = clock
        if level == 0:
            # the root's list holds only the element: the access leaves it
            # at the tail already
            return 0
        network = self.network
        elem_at = network._elem_at
        node_of = network._node_of
        nxt = lru._next
        prv = lru._prev
        forget_never = lru._forget_never
        level_of = lru._level_of
        place = lru.place
        base = lru._n_elements  # the sentinel of level d is base + d
        source = node_of[element]

        # The accessed element leaves its level and takes the root, whose
        # element starts the cascade.
        before = prv[element]
        after = nxt[element]
        nxt[before] = after
        prv[after] = before
        carried = elem_at[0]
        if last_access[carried] < 0:
            forget_never(carried, 0)
        elem_at[0] = element
        node_of[element] = 0
        level_of[element] = 0
        nxt[base] = prv[base] = element
        nxt[element] = prv[element] = base

        climbs = 0  # levels climbed to the common ancestors, summed
        previous = 1  # 1-based heap id of the node the carried element leaves
        for depth in range(1, level + 1):
            sentinel = base + depth
            victim = nxt[sentinel]
            if victim == sentinel:
                raise AlgorithmError(f"no eligible element on level {depth}")
            node = node_of[victim]
            heap = node + 1
            climbs += (previous ^ (heap >> 1)).bit_length()
            previous = heap
            elem_at[node] = carried
            node_of[carried] = node
            if depth < level:
                # the victim is demoted; the last one stays on this level
                after = nxt[victim]
                nxt[sentinel] = after
                prv[after] = sentinel
                if last_access[victim] < 0:
                    forget_never(victim, depth)
            tail = prv[sentinel]
            if last_access[carried] > last_access[tail]:
                nxt[tail] = carried
                prv[carried] = tail
                nxt[carried] = sentinel
                prv[sentinel] = carried
                level_of[carried] = depth
            else:
                place(carried, depth)
            carried = victim

        # The last victim takes the accessed element's node on its own level.
        elem_at[source] = carried
        node_of[carried] = source
        climbs += (previous ^ (source + 1)).bit_length()
        return 2 * (level + climbs)

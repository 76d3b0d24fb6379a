"""Per-level least-recently-used index.

Both Move-Half and Max-Push (Strict-MRU) need to find, at serve time, the
element with the *highest rank* on a given tree level - i.e. the element of
that level that was accessed least recently (elements never accessed so far
count as oldest).  Scanning a level is too slow for deep trees (the deepest
level of a 65,535-node tree has 32,768 nodes), so this module maintains one
recency-ordered intrusive doubly-linked list per level.

The lists are intrusive: the ``next``/``prev`` links of every element live in
two flat integer arrays indexed by element identifier, with one circular
sentinel per level, so membership changes are pointer writes with no node
allocation and no heap churn.  Each list is kept sorted by
``(last_access, element)`` from oldest (head) to newest (tail).  Accessed
elements carry unique clock stamps, so every list is a *never-accessed
segment* (timestamp -1, in identifier order) at the head followed by the
accessed elements in stamp order:

* an **access** stamps the globally newest timestamp, so the element is moved
  to the tail of its level's list in O(1);
* an **LRU query** reads the head of the list in O(1);
* a **level move** re-links the element at its ordered position
  (:meth:`LevelLRUIndex.place`).  An accessed element newer than the tail is
  appended with one comparison, which the kernel's chunk functions for
  Max-Push and Move-Half inline.  Max-Push's cascade keeps every accessed
  element of a level newer than every accessed element of the level below,
  so each of its accessed demotions takes the append.  An older accessed element (a
  Move-Half partner, say) walks from the tail past the accessed elements
  newer than it.  A never-accessed element takes its predecessor
  from a per-level bitmap of the never-accessed identifiers: the highest set
  bit below its own, found in its 64-bit word or, through a summary integer
  with one bit per non-empty word, in the nearest non-empty word below.
  That costs a few integer operations on at most ``n / 64`` bits whatever
  the level's size.

A fresh index needs no ordered insert at all: every element starts never
accessed, so each level's list is its members in identifier order, and one
pass over the elements in that order appends each at its level's tail and
sets its bit (:meth:`LevelLRUIndex._build`).  A seeded tree served in the C
cascade kernel runs the same pass there (``lru_build``) on its own flat
buffers, and the tests pin the two against each other.  The index itself
stays list-backed, because Python indexes lists far faster than ``array``
buffers.

The bitmap is what keeps moves cheap at the paper's scale.  At 65,535 nodes
the Strict-MRU cascade keeps demoting never-accessed elements into levels
full of never-accessed elements with larger identifiers, and a walk from the
tail passes about 2,000 links per such move.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.state import TreeNetwork
from repro.core.tree import node_levels_table
from repro.exceptions import AlgorithmError
from repro.types import ElementId, Level

__all__ = ["LevelLRUIndex"]

#: Last-access time assigned to elements that have never been requested.
NEVER_ACCESSED = -1


class LevelLRUIndex:
    """Tracks, for every tree level, which element was used least recently.

    Parameters
    ----------
    network:
        The tree network whose placement defines the initial level of every
        element.  The index does **not** observe the network afterwards; the
        owning algorithm must call :meth:`record_access` and :meth:`move`
        whenever it accesses or relocates elements.
    """

    __slots__ = (
        "_last_access",
        "_level_of",
        "_next",
        "_prev",
        "_never_words",
        "_never_summary",
        "_clock",
        "_n_elements",
        "_depth",
    )

    def __init__(self, network: TreeNetwork) -> None:
        tree = network.tree
        n_elements = network.n_elements
        self._n_elements = n_elements
        self._depth = tree.depth
        self._clock = 0
        # Links (_next, _prev) for n_elements element slots plus one circular
        # sentinel per level (sentinel of level l is id n_elements + l).  The
        # sentinels also carry the never-accessed stamp, so a tail comparison
        # against an empty list and the tail walk in place() need no
        # sentinel test.  Never-accessed bitmap per level (_never_words):
        # bit e of word e >> 6 is set while element e is on the level and
        # never accessed; bit w of the level's _never_summary is set while
        # word w is non-zero.
        self._last_access: List[int] = [NEVER_ACCESSED] * (
            n_elements + tree.depth + 1
        )
        self._build(network._node_of)

    def _build(self, node_of: List[int]) -> None:
        """Build the fresh index from the placement (the reference of ``lru_build``).

        Every element starts never accessed, so each level's list is its
        members in identifier order: visiting the elements in that order and
        appending each at its level's tail builds every list in one pass.
        """
        n_elements, depth = self._n_elements, self._depth
        size = n_elements + depth + 1
        self._next = nxt = [0] * size
        self._prev = prv = [0] * size
        for sentinel in range(n_elements, size):
            nxt[sentinel] = prv[sentinel] = sentinel
        levels = node_levels_table(n_elements)
        self._level_of = list(map(levels.__getitem__, node_of))
        n_words = (n_elements >> 6) + 1
        self._never_words = never_words = [[0] * n_words for _ in range(depth + 1)]
        for element, level in enumerate(self._level_of):
            sentinel = n_elements + level
            tail = prv[sentinel]
            nxt[tail] = element
            prv[element] = tail
            nxt[element] = sentinel
            prv[sentinel] = element
            never_words[level][element >> 6] |= 1 << (element & 63)
        self._never_summary = [
            sum(1 << index for index, word in enumerate(words) if word)
            for words in never_words
        ]

    # -------------------------------------------------------------- link plumbing

    def _link_before(self, anchor: int, element: int) -> None:
        """Insert ``element`` immediately before ``anchor`` in its circular list."""
        nxt, prv = self._next, self._prev
        tail = prv[anchor]
        nxt[tail] = element
        prv[element] = tail
        nxt[element] = anchor
        prv[anchor] = element

    def _unlink(self, element: int) -> None:
        """Remove ``element`` from whichever list currently holds it."""
        nxt, prv = self._next, self._prev
        before, after = prv[element], nxt[element]
        nxt[before] = after
        prv[after] = before

    def _forget_never(self, element: ElementId, level: Level) -> None:
        """Clear a never-accessed ``element``'s bit in ``level``'s bitmap."""
        words = self._never_words[level]
        index = element >> 6
        word = words[index] ^ (1 << (element & 63))
        words[index] = word
        if not word:
            self._never_summary[level] ^= 1 << index

    # ----------------------------------------------------------------- updates

    def record_access(self, element: ElementId) -> None:
        """Mark ``element`` as the most recently used element."""
        self._clock += 1
        level = self._level_of[element]
        if self._last_access[element] == NEVER_ACCESSED:
            self._forget_never(element, level)
        self._last_access[element] = self._clock
        # The fresh timestamp is the global maximum, so the element belongs
        # at the tail (newest end) of its level's list.
        self._unlink(element)
        self._link_before(self._n_elements + level, element)

    def move(self, element: ElementId, new_level: Level) -> None:
        """Record that ``element`` now lives at ``new_level``."""
        if not 0 <= new_level <= self._depth:
            raise AlgorithmError(
                f"level {new_level} outside tree of depth {self._depth}"
            )
        old_level = self._level_of[element]
        if old_level == new_level:
            return
        self._unlink(element)
        if self._last_access[element] == NEVER_ACCESSED:
            self._forget_never(element, old_level)
        self.place(element, new_level)

    def place(self, element: ElementId, level: Level) -> None:
        """Link the unlinked ``element`` into ``level``'s list in order.

        The one ordered insert of the index, behind :meth:`move`; the
        kernel's ``place`` is its port for the chunk functions' rare case
        (the element is not newer than the level's tail).  A
        never-accessed element follows the largest never-accessed
        identifier below its own, read off the level's bitmap; an accessed
        one walks from the tail past the accessed elements newer than it.
        The caller has already removed ``element`` from its old list and
        cleared its old never-accessed bit.
        """
        self._level_of[element] = level
        sentinel = self._n_elements + level
        stamp = self._last_access[element]
        if stamp == NEVER_ACCESSED:
            # The predecessor is the largest never-accessed identifier below
            # ``element`` on the level: in its own word, else in the highest
            # non-empty word below it, else the list is entered at the head.
            words = self._never_words[level]
            summary = self._never_summary[level]
            index = element >> 6
            bit = 1 << (element & 63)
            word = words[index]
            below = word & (bit - 1)
            if below:
                cursor = (index << 6) + below.bit_length() - 1
            else:
                lower = summary & ((1 << index) - 1)
                if lower:
                    other = lower.bit_length() - 1
                    cursor = (other << 6) + words[other].bit_length() - 1
                else:
                    cursor = sentinel
            if not word:
                self._never_summary[level] = summary | (1 << index)
            words[index] = word | bit
        else:
            last_access = self._last_access
            prv = self._prev
            cursor = prv[sentinel]
            # stops at the first older element: never-accessed ones and the
            # sentinel carry stamp -1
            while last_access[cursor] > stamp:
                cursor = prv[cursor]
        nxt = self._next
        follower = nxt[cursor]
        nxt[cursor] = element
        self._prev[element] = cursor
        nxt[element] = follower
        self._prev[follower] = element

    # ----------------------------------------------------------------- queries

    def level_of(self, element: ElementId) -> Level:
        """Return the level the index believes ``element`` is on."""
        return self._level_of[element]

    def last_access(self, element: ElementId) -> int:
        """Return the logical time of the element's last access (-1 if never)."""
        return self._last_access[element]

    def least_recently_used(
        self, level: Level, exclude: Optional[ElementId] = None
    ) -> ElementId:
        """Return the least recently used element currently on ``level``.

        Elements never accessed count as oldest; ties are broken by element
        identifier for determinism.  ``exclude`` (typically the element that
        was just accessed) is skipped.  The lists are kept sorted, so this is
        a head read (or at most one hop past the excluded element).
        """
        if not 0 <= level <= self._depth:
            raise AlgorithmError(
                f"level {level} outside tree of depth {self._depth}"
            )
        sentinel = self._n_elements + level
        candidate = self._next[sentinel]
        if candidate == exclude:
            candidate = self._next[candidate]
        if candidate == sentinel:
            raise AlgorithmError(f"no eligible element on level {level}")
        return candidate

    def level_order(self, level: Level) -> List[ElementId]:
        """Return ``level``'s list from head (oldest) to tail (newest)."""
        sentinel = self._n_elements + level
        nxt = self._next
        order = []
        cursor = nxt[sentinel]
        while cursor != sentinel:
            order.append(cursor)
            cursor = nxt[cursor]
        return order

    def validate_against(self, network: TreeNetwork) -> None:
        """Check the index against the network placement and itself (test helper).

        Verifies that tracked levels match the placement, that each level's
        list holds exactly the elements ``_level_of`` assigns to it, sorted
        by ``(last_access, element)`` with consistent back links, and that
        each never index equals its list's never-accessed prefix.
        """
        for element in range(network.n_elements):
            actual = network.level_of(element)
            if self._level_of[element] != actual:
                raise AlgorithmError(
                    f"LRU index thinks element {element} is on level "
                    f"{self._level_of[element]} but it is on level {actual}"
                )
        last_access = self._last_access
        listed = 0
        for level in range(self._depth + 1):
            order = self.level_order(level)
            listed += len(order)
            keys = [(last_access[element], element) for element in order]
            if keys != sorted(keys):
                raise AlgorithmError(
                    f"level {level} list is not sorted by (last_access, element)"
                )
            previous = self._n_elements + level
            for element in order:
                if self._level_of[element] != level:
                    raise AlgorithmError(
                        f"element {element} is listed on level {level} but "
                        f"tracked on level {self._level_of[element]}"
                    )
                if self._prev[element] != previous:
                    raise AlgorithmError(
                        f"broken back link at element {element} on level {level}"
                    )
                previous = element
            if self._prev[self._n_elements + level] != previous:
                raise AlgorithmError(f"broken tail link on level {level}")
            prefix = [e for e in order if last_access[e] == NEVER_ACCESSED]
            words = self._never_words[level]
            indexed = [
                (index << 6) + offset
                for index, word in enumerate(words)
                for offset in range(64)
                if word >> offset & 1
            ]
            summary = sum(1 << index for index, word in enumerate(words) if word)
            if prefix != indexed or summary != self._never_summary[level]:
                raise AlgorithmError(
                    f"never-accessed index of level {level} disagrees with "
                    "its list"
                )
        if listed != self._n_elements:
            raise AlgorithmError(
                f"the level lists hold {listed} elements, expected "
                f"{self._n_elements}"
            )


"""Shared type aliases used across the :mod:`repro` library.

The library models the self-adjusting single-source tree network problem of
Avin et al. (ICDCS 2022).  Throughout the code base:

* a *node* is a position in the fixed complete binary tree, identified by its
  heap index (``0`` is the root, node ``i`` has children ``2 i + 1`` and
  ``2 i + 2``);
* an *element* is one of the ``n`` items stored in the tree, identified by an
  integer in ``[0, n)``;
* a *request sequence* is a sequence of element identifiers issued by the
  single source attached to the root.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: A node of the complete binary tree, identified by its heap index.
NodeId = int

#: An element stored in the tree, identified by an integer in ``[0, n)``.
ElementId = int

#: The level (depth) of a node or element; the root has level 0.
Level = int

#: A request sequence: the elements accessed by the source, in order.
RequestSequence = Sequence[ElementId]

#: A root-to-node path, as a list of node indices starting at the root.
NodePath = List[NodeId]

#: A (access_cost, adjustment_cost) pair for a single served request.
CostPair = Tuple[int, int]


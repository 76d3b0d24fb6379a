"""Cost model and cost accounting.

The paper's cost model charges, per served request:

* an *access cost* of ``level(element) + 1`` when the element is accessed, and
* an *adjustment cost* of one unit per swap of two elements occupying adjacent
  nodes.

:class:`CostLedger` records these costs per request and in aggregate, and is
shared by every algorithm implementation so that experiment code can read a
uniform cost breakdown (total / access / adjustment, per request and averaged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

from repro.exceptions import CostAccountingError
from repro.types import ElementId

__all__ = ["RequestCost", "RequestRecordColumns", "CostLedger"]


@dataclass(frozen=True, slots=True)
class RequestCost:
    """Cost incurred while serving one request.

    Attributes
    ----------
    element:
        The element that was requested.
    access_cost:
        ``level + 1`` where ``level`` is the element's level at access time.
    adjustment_cost:
        Number of unit-cost swaps charged while rearranging the tree.
    level_at_access:
        The element's level when it was accessed (``access_cost - 1``).
    """

    element: ElementId
    access_cost: int
    adjustment_cost: int
    level_at_access: int

    @property
    def total_cost(self) -> int:
        """Access plus adjustment cost of this request."""
        return self.access_cost + self.adjustment_cost


class RequestRecordColumns:
    """Columnar store of per-request costs: the one form of kept records.

    Three parallel integer columns — element, level at access, swap count —
    read through :attr:`elements`, :attr:`levels` and :attr:`swaps` (the
    access cost of a request is its level plus one).  Readers that want one
    object per request can still index or iterate the store as a sequence
    of :class:`RequestCost`, built on demand; equality also holds against a
    list of them.
    """

    __slots__ = ("_elements", "_levels", "_swaps")

    def __init__(self) -> None:
        self._elements: List[int] = []
        self._levels: List[int] = []
        self._swaps: List[int] = []

    @property
    def elements(self) -> List[int]:
        """The requested elements, in serve order (the store's own list: read only)."""
        return self._elements

    @property
    def levels(self) -> List[int]:
        """Each request's level at access (the store's own list: read only)."""
        return self._levels

    @property
    def swaps(self) -> List[int]:
        """Each request's swap count (the store's own list: read only)."""
        return self._swaps

    # ---------------------------------------------------------------- appends

    def append_fields(self, element: int, level_at_access: int, swaps: int) -> None:
        """Append one record as raw fields — the hot-loop entry point."""
        self._elements.append(element)
        self._levels.append(level_at_access)
        self._swaps.append(swaps)

    def extend_fields(
        self,
        elements: Sequence[int],
        levels: Sequence[int],
        swaps: Sequence[int],
    ) -> None:
        """Append a whole batch of records given as parallel columns."""
        self._elements.extend(elements)
        self._levels.extend(levels)
        self._swaps.extend(swaps)

    def clear(self) -> None:
        """Drop all stored records."""
        self._elements.clear()
        self._levels.clear()
        self._swaps.clear()

    def copy(self) -> "RequestRecordColumns":
        """Return an independent copy of the columns."""
        clone = RequestRecordColumns()
        clone._elements = list(self._elements)
        clone._levels = list(self._levels)
        clone._swaps = list(self._swaps)
        return clone

    # ----------------------------------------------------------------- access

    def _materialise(self, index: int) -> RequestCost:
        level = self._levels[index]
        return RequestCost(
            element=self._elements[index],
            access_cost=level + 1,
            adjustment_cost=self._swaps[index],
            level_at_access=level,
        )

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RequestCost, List[RequestCost]]:
        if isinstance(index, slice):
            indices = range(*index.indices(len(self._elements)))
            return [self._materialise(i) for i in indices]
        if index < 0:
            index += len(self._elements)
        if not 0 <= index < len(self._elements):
            raise IndexError("record index out of range")
        return self._materialise(index)

    def __iter__(self) -> Iterator[RequestCost]:
        for index in range(len(self._elements)):
            yield self._materialise(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestRecordColumns):
            return (
                self._elements == other._elements
                and self._levels == other._levels
                and self._swaps == other._swaps
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                record == expected for record, expected in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RequestRecordColumns(n={len(self._elements)})"


class CostLedger:
    """Accumulates per-request costs for one algorithm run.

    The ledger has an explicit open/close protocol around each request so that
    the swap primitive can charge adjustment cost incrementally:

    >>> ledger = CostLedger()
    >>> ledger.open_request(element=3, level_at_access=2)
    >>> ledger.charge_swaps(4)
    >>> record = ledger.close_request()
    >>> (record.access_cost, record.adjustment_cost)
    (3, 4)

    Parameters
    ----------
    keep_records:
        When ``True`` (default) every request's costs are kept in
        :attr:`records` (a :class:`RequestRecordColumns` of three integer
        columns); set to ``False`` for long runs where only the aggregate
        totals matter (the per-request history is then dropped to save
        memory).
    """

    __slots__ = (
        "records",
        "keep_records",
        "_total_access",
        "_total_adjustment",
        "_closed_count",
        "_open_element",
        "_open_level",
        "_open_adjustment",
    )

    def __init__(self, keep_records: bool = True) -> None:
        self.records: RequestRecordColumns = RequestRecordColumns()
        self.keep_records = keep_records
        self._total_access = 0
        self._total_adjustment = 0
        self._closed_count = 0
        self._open_element: Optional[ElementId] = None
        self._open_level = 0
        self._open_adjustment = 0

    # ----------------------------------------------------------- per request

    def open_request(self, element: ElementId, level_at_access: int) -> None:
        """Start accounting for a request to ``element`` found at ``level_at_access``."""
        if self._open_element is not None:
            raise CostAccountingError(
                "open_request called while a request is already open "
                f"(element {self._open_element})"
            )
        if level_at_access < 0:
            raise CostAccountingError(
                f"level_at_access must be non-negative, got {level_at_access}"
            )
        self._open_element = element
        self._open_level = level_at_access
        self._open_adjustment = 0

    def charge_swaps(self, count: int = 1) -> None:
        """Charge ``count`` unit-cost swaps to the currently open request."""
        if self._open_element is None:
            raise CostAccountingError("charge_swaps called with no open request")
        if count < 0:
            raise CostAccountingError(f"swap count must be non-negative, got {count}")
        self._open_adjustment += count

    def close_request(self) -> RequestCost:
        """Finish the open request and return its :class:`RequestCost` record."""
        if self._open_element is None:
            raise CostAccountingError("close_request called with no open request")
        record = RequestCost(
            element=self._open_element,
            access_cost=self._open_level + 1,
            adjustment_cost=self._open_adjustment,
            level_at_access=self._open_level,
        )
        self._total_access += record.access_cost
        self._total_adjustment += record.adjustment_cost
        self._closed_count += 1
        if self.keep_records:
            self.records.append_fields(
                self._open_element, self._open_level, self._open_adjustment
            )
        self._open_element = None
        self._open_adjustment = 0
        return record

    def close_request_fast(self) -> None:
        """Finish the open request without materialising a :class:`RequestCost`.

        Fast-path variant of :meth:`close_request` for aggregate-only runs:
        totals and counters are updated exactly as in the full version, but no
        record object is built unless ``keep_records`` demands one.
        """
        if self._open_element is None:
            raise CostAccountingError("close_request called with no open request")
        self._total_access += self._open_level + 1
        self._total_adjustment += self._open_adjustment
        self._closed_count += 1
        if self.keep_records:
            self.records.append_fields(
                self._open_element, self._open_level, self._open_adjustment
            )
        self._open_element = None
        self._open_adjustment = 0

    @property
    def request_open(self) -> bool:
        """Whether a request is currently being accounted."""
        return self._open_element is not None

    # -------------------------------------------------------------- aggregate

    @property
    def n_requests(self) -> int:
        """Number of requests closed so far."""
        return self._closed_count

    @property
    def total_access_cost(self) -> int:
        """Sum of access costs over all closed requests."""
        return self._total_access

    @property
    def total_adjustment_cost(self) -> int:
        """Sum of adjustment (swap) costs over all closed requests."""
        return self._total_adjustment

    @property
    def total_cost(self) -> int:
        """Total cost: access plus adjustment."""
        return self._total_access + self._total_adjustment

    def average_access_cost(self) -> float:
        """Average access cost per request (0.0 if no request was served)."""
        return self._total_access / self._closed_count if self._closed_count else 0.0

    def average_adjustment_cost(self) -> float:
        """Average adjustment cost per request (0.0 if no request was served)."""
        if not self._closed_count:
            return 0.0
        return self._total_adjustment / self._closed_count

    def average_total_cost(self) -> float:
        """Average total cost per request (0.0 if no request was served)."""
        return self.total_cost / self._closed_count if self._closed_count else 0.0

    def copy(self) -> "CostLedger":
        """Return an independent copy carrying the same totals and records.

        Raises :class:`CostAccountingError` while a request is open, because
        half-accounted state cannot be duplicated meaningfully.
        """
        if self._open_element is not None:
            raise CostAccountingError("cannot copy the ledger while a request is open")
        clone = CostLedger(keep_records=self.keep_records)
        clone.records = self.records.copy()
        clone._total_access = self._total_access
        clone._total_adjustment = self._total_adjustment
        clone._closed_count = self._closed_count
        return clone

    def snapshot_totals(self) -> dict:
        """Return a plain-dict summary of the aggregate costs."""
        return {
            "n_requests": self.n_requests,
            "total_access_cost": self._total_access,
            "total_adjustment_cost": self._total_adjustment,
            "total_cost": self.total_cost,
            "average_access_cost": self.average_access_cost(),
            "average_adjustment_cost": self.average_adjustment_cost(),
            "average_total_cost": self.average_total_cost(),
        }

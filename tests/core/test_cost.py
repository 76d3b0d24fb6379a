"""Unit tests for the cost ledger and request cost records."""

from __future__ import annotations

import pytest

from repro.core.cost import CostLedger, RequestCost, RequestRecordColumns
from repro.exceptions import CostAccountingError


class TestRequestCost:
    def test_total_cost(self):
        record = RequestCost(element=3, access_cost=5, adjustment_cost=7, level_at_access=4)
        assert record.total_cost == 12

    def test_record_is_frozen(self):
        record = RequestCost(element=3, access_cost=5, adjustment_cost=7, level_at_access=4)
        with pytest.raises(AttributeError):
            record.access_cost = 1  # type: ignore[misc]


class TestLedgerProtocol:
    def test_open_charge_close(self):
        ledger = CostLedger()
        ledger.open_request(element=2, level_at_access=3)
        ledger.charge_swaps(5)
        record = ledger.close_request()
        assert record.access_cost == 4
        assert record.adjustment_cost == 5
        assert record.element == 2

    def test_double_open_raises(self):
        ledger = CostLedger()
        ledger.open_request(0, 0)
        with pytest.raises(CostAccountingError):
            ledger.open_request(1, 1)

    def test_charge_without_open_raises(self):
        with pytest.raises(CostAccountingError):
            CostLedger().charge_swaps(1)

    def test_close_without_open_raises(self):
        with pytest.raises(CostAccountingError):
            CostLedger().close_request()

    def test_negative_level_raises(self):
        with pytest.raises(CostAccountingError):
            CostLedger().open_request(0, -1)

    def test_negative_swaps_raise(self):
        ledger = CostLedger()
        ledger.open_request(0, 0)
        with pytest.raises(CostAccountingError):
            ledger.charge_swaps(-2)

    def test_request_open_flag(self):
        ledger = CostLedger()
        assert not ledger.request_open
        ledger.open_request(0, 0)
        assert ledger.request_open
        ledger.close_request()
        assert not ledger.request_open


class TestAggregation:
    def _serve(self, ledger: CostLedger, element: int, level: int, swaps: int) -> None:
        ledger.open_request(element, level)
        ledger.charge_swaps(swaps)
        ledger.close_request()

    def test_totals_accumulate(self):
        ledger = CostLedger()
        self._serve(ledger, 0, 2, 3)
        self._serve(ledger, 1, 4, 0)
        assert ledger.n_requests == 2
        assert ledger.total_access_cost == 3 + 5
        assert ledger.total_adjustment_cost == 3
        assert ledger.total_cost == 11

    def test_averages(self):
        ledger = CostLedger()
        self._serve(ledger, 0, 1, 2)
        self._serve(ledger, 1, 3, 4)
        assert ledger.average_access_cost() == pytest.approx(3.0)
        assert ledger.average_adjustment_cost() == pytest.approx(3.0)
        assert ledger.average_total_cost() == pytest.approx(6.0)

    def test_averages_with_no_requests(self):
        ledger = CostLedger()
        assert ledger.average_access_cost() == 0.0
        assert ledger.average_adjustment_cost() == 0.0
        assert ledger.average_total_cost() == 0.0

    def test_keep_records_false_drops_history_but_keeps_totals(self):
        ledger = CostLedger(keep_records=False)
        self._serve(ledger, 0, 2, 3)
        self._serve(ledger, 1, 1, 1)
        assert ledger.records == []
        assert ledger.n_requests == 2
        assert ledger.total_cost == 3 + 3 + 2 + 1

    def test_snapshot_totals(self):
        ledger = CostLedger()
        self._serve(ledger, 0, 2, 3)
        snapshot = ledger.snapshot_totals()
        assert snapshot["n_requests"] == 1
        assert snapshot["total_access_cost"] == 3
        assert snapshot["total_adjustment_cost"] == 3
        assert snapshot["average_total_cost"] == pytest.approx(6.0)


#: (element, level at access, swaps) of three requests.
REQUESTS = [(4, 1, 2), (2, 0, 0), (9, 3, 5)]


def _serve_all(ledger: CostLedger, close) -> None:
    for element, level, swaps in REQUESTS:
        ledger.open_request(element, level)
        ledger.charge_swaps(swaps)
        close(ledger)


class TestFastClose:
    """``close_request_fast``, which every built tree's ``finish_request``
    calls, accounts exactly as ``close_request``."""

    @pytest.mark.parametrize("keep_records", [False, True])
    def test_fast_close_matches_close_request(self, keep_records):
        fast = CostLedger(keep_records=keep_records)
        full = CostLedger(keep_records=keep_records)
        _serve_all(fast, CostLedger.close_request_fast)
        _serve_all(full, CostLedger.close_request)
        assert fast.snapshot_totals() == full.snapshot_totals()
        assert fast.records == full.records
        assert len(fast.records) == (len(REQUESTS) if keep_records else 0)
        assert not fast.request_open

    def test_fast_close_without_open_raises(self):
        ledger = CostLedger()
        with pytest.raises(CostAccountingError):
            ledger.close_request_fast()


class TestLedgerCopy:
    def test_copy_is_independent(self):
        ledger = CostLedger()
        _serve_all(ledger, CostLedger.close_request)
        clone = ledger.copy()
        assert clone.snapshot_totals() == ledger.snapshot_totals()
        assert clone.records == ledger.records
        clone.open_request(1, 2)
        clone.close_request()
        assert ledger.n_requests == len(REQUESTS)
        assert len(ledger.records) == len(REQUESTS)

    def test_copy_while_open_raises(self):
        ledger = CostLedger()
        ledger.open_request(1, 0)
        with pytest.raises(CostAccountingError):
            ledger.copy()


class TestRecordColumns:
    def test_extend_fields_equals_appends(self):
        extended, appended = RequestRecordColumns(), RequestRecordColumns()
        elements, levels, swaps = (list(column) for column in zip(*REQUESTS))
        extended.extend_fields(elements, levels, swaps)
        for element, level, count in REQUESTS:
            appended.append_fields(element, level, count)
        assert extended == appended
        assert (extended.elements, extended.levels, extended.swaps) == (
            elements, levels, swaps
        )

    def test_records_read_as_request_costs(self):
        columns = RequestRecordColumns()
        for element, level, swaps in REQUESTS:
            columns.append_fields(element, level, swaps)
        expected = [
            RequestCost(element, level + 1, swaps, level)
            for element, level, swaps in REQUESTS
        ]
        assert list(columns) == expected
        assert columns == expected
        assert columns[-1] == expected[-1]
        assert columns[1:] == expected[1:]
        with pytest.raises(IndexError):
            columns[len(REQUESTS)]

    def test_copy_and_clear_are_independent(self):
        columns = RequestRecordColumns()
        for element, level, swaps in REQUESTS:
            columns.append_fields(element, level, swaps)
        clone = columns.copy()
        columns.clear()
        assert len(columns) == 0
        assert len(clone) == len(REQUESTS)
        assert clone != columns

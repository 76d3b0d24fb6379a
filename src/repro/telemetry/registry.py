"""The metrics core: counters, gauges, fixed-bucket histograms, one registry.

Zero external dependencies by design (Prometheus client libraries are heavy
and the container may not have them): a :class:`MetricsRegistry` holds named
metric families, each family holds one value row per label combination, and
two export forms cover every consumer —

* :meth:`MetricsRegistry.snapshot` — a plain JSON-friendly dictionary, the
  canonical wire form (the ``metrics`` protocol frame, the JSONL snapshot
  writer, ``repro metrics --json``);
* :func:`render_prometheus` — Prometheus text exposition rendered *from a
  snapshot*, so the HTTP endpoint and the CLI renderer of a scraped frame
  produce identical text.

Thread-safety contract: every mutation takes the family's lock (increments
are a dict update under a ``threading.Lock`` — cheap enough that the
measured overhead of full instrumentation stays under the 2% budget of
``bench_telemetry``), and :meth:`snapshot` reads each family under the same
lock, so readers on other threads (the metrics HTTP server, the asyncio
serve daemon answering a ``metrics`` frame) always see consistent rows.
Nothing ever blocks across an await point.

There is one process-wide default registry (:func:`default_registry`) that
all instrumentation writes to unless a registry is injected explicitly;
tests swap it with :func:`use_registry` and benchmarks measure the
no-telemetry floor by installing a :class:`NullRegistry`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullRegistry",
    "default_registry",
    "render_prometheus",
    "set_default_registry",
    "use_registry",
]


class MetricError(ExperimentError):
    """Raised for metric misuse: bad names, label mismatches, type clashes."""


#: Default histogram bucket upper bounds, in seconds — tuned for the
#: latencies this codebase actually sees (sub-millisecond batch serves up to
#: multi-second distributed trials).  Cumulative ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise MetricError(f"metric name must be a non-empty string, got {name!r}")
    head = name[0]
    if not (head.isalpha() or head == "_"):
        raise MetricError(f"metric name must start with a letter or '_': {name!r}")
    for char in name:
        if not (char.isalnum() or char in "_:"):
            raise MetricError(
                f"metric name {name!r} contains {char!r}; allowed: [a-zA-Z0-9_:]"
            )
    return name


class _Metric:
    """Shared base: one named family with one value row per label tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = str(help)
        self.labels = tuple(labels)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        names = self.labels
        # fast path: every label (or none) passed in declaration order
        if tuple(labels) == names:
            return tuple(map(str, labels.values()))
        if set(labels) != set(names):
            raise MetricError(
                f"metric {self.name!r} takes labels {list(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def bind(self, **labels: object) -> Callable[[float], None]:
        """The writer of one row, its labels resolved once.

        ``family.bind(**labels)(value)`` does what ``family.inc(value,
        **labels)`` (a counter), ``family.set(value, **labels)`` (a gauge)
        or ``family.observe(value, **labels)`` (a histogram) does, under the
        same lock: a hot path resolves its rows once instead of per call.
        Binding writes nothing, so an unwritten row stays out of snapshots.
        """
        return partial(self._write, self._key(labels))

    def _write(self, key: Tuple[str, ...], value: float) -> None:
        raise NotImplementedError

    def _rows(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._values.items())

    def _labels_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labels, key))


class Counter(_Metric):
    """A monotonically increasing count (optionally per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        self._write(self._key(labels), amount)

    def _write(self, key: Tuple[str, ...], amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def total(self) -> float:
        """Sum over every label combination (the unlabelled family total)."""
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> Dict[str, object]:
        return {
            "help": self.help,
            "labels": list(self.labels),
            "values": [
                {"labels": self._labels_dict(key), "value": value}
                for key, value in self._rows()
            ],
        }


class Gauge(_Metric):
    """A value that can go up and down (queue depths, in-flight work)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._write(self._key(labels), value)

    def _write(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    snapshot = Counter.snapshot


class Histogram(_Metric):
    """A fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound.  Internally each row stores
    *per-bucket* counts (not cumulative) plus the running sum and count;
    the snapshot keeps that layout and :func:`render_prometheus` produces
    the cumulative ``_bucket``/``_sum``/``_count`` series Prometheus expects.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be strictly increasing, "
                f"got {list(buckets)}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        self._write(self._key(labels), value)

    def _write(self, key: Tuple[str, ...], value: float) -> None:
        # le is inclusive: bisect_left finds the first bound >= value
        index = bisect_left(self.buckets, value)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                row = self._values[key] = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            row["counts"][index] += 1
            row["sum"] += value
            row["count"] += 1

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            row = self._values.get(key)
            return 0 if row is None else row["count"]

    def sum(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            row = self._values.get(key)
            return 0.0 if row is None else row["sum"]

    def bucket_counts(self, **labels: object) -> List[int]:
        """Per-bucket (non-cumulative) counts, the ``+Inf`` slot last."""
        key = self._key(labels)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                return [0] * (len(self.buckets) + 1)
            return list(row["counts"])

    def snapshot(self) -> Dict[str, object]:
        return {
            "help": self.help,
            "labels": list(self.labels),
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": self._labels_dict(key),
                    "counts": list(row["counts"]),
                    "sum": row["sum"],
                    "count": row["count"],
                }
                for key, row in self._rows()
            ],
        }


class MetricsRegistry:
    """A named collection of metric families, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same family object (so instrumentation sites
    can resolve their instruments eagerly or lazily, whichever reads
    better), while re-asking with a different type, label set or bucket
    layout is a loud :class:`MetricError` — silent divergence between two
    call sites would corrupt the exported series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(
        self, cls, name: str, labels: Sequence[str], factory
    ) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
        if type(metric) is not cls:
            raise MetricError(
                f"metric {name!r} is already registered as a "
                f"{metric.kind}, not a {cls.kind}"
            )
        if metric.labels != tuple(labels):
            raise MetricError(
                f"metric {name!r} is registered with labels "
                f"{list(metric.labels)}, not {list(labels)}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(  # type: ignore[return-value]
            Counter, name, labels, lambda: Counter(name, help, labels)
        )

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(  # type: ignore[return-value]
            Gauge, name, labels, lambda: Gauge(name, help, labels)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, labels, lambda: Histogram(name, help, buckets, labels)
        )
        if metric.buckets != tuple(float(bound) for bound in buckets):
            raise MetricError(
                f"metric {name!r} is registered with buckets "
                f"{list(metric.buckets)}, not {list(buckets)}"
            )
        return metric  # type: ignore[return-value]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly snapshot of every family (the canonical wire form)."""
        with self._lock:
            families = sorted(self._metrics.items())
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        section = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for name, metric in families:
            out[section[metric.kind]][name] = metric.snapshot()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current state."""
        return render_prometheus(self.snapshot())


class _NullInstrument:
    """Accepts every instrument call and does nothing (benchmark floor)."""

    def inc(self, *_args, **_kwargs) -> None:
        pass

    def dec(self, *_args, **_kwargs) -> None:
        pass

    def set(self, *_args, **_kwargs) -> None:
        pass

    def observe(self, *_args, **_kwargs) -> None:
        pass

    def bind(self, **_labels) -> Callable[..., None]:
        return self.inc

    def value(self, **_labels) -> float:
        return 0

    def total(self) -> float:
        return 0

    def count(self, **_labels) -> int:
        return 0

    def sum(self, **_labels) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the zero-telemetry floor.

    Installed (via :func:`use_registry`) by ``bench_telemetry`` to measure
    instrumentation overhead, and available to callers who want telemetry
    off entirely.  Every factory returns a shared do-nothing instrument and
    the snapshot is always empty.
    """

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Sequence[str] = (),
    ):
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


# ------------------------------------------------------- default registry

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry all instrumentation writes to by default."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise MetricError(f"not a MetricsRegistry: {registry!r}")
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily install ``registry`` as the process default (tests)."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


# --------------------------------------------------- Prometheus rendering


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _format_labels(labels: Dict[str, str], extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [(name, str(value)) for name, value in sorted(labels.items())]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def render_prometheus(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Render a registry snapshot as Prometheus text exposition (format 0.0.4).

    Works from the *snapshot* dictionary, not a live registry, so the HTTP
    endpoint (local registry) and ``repro metrics`` (a scraped ``metrics``
    frame) render byte-identical text for the same state.
    """
    lines: List[str] = []
    for name, family in sorted(snapshot.get("counters", {}).items()):
        _render_simple(lines, name, family, "counter")
    for name, family in sorted(snapshot.get("gauges", {}).items()):
        _render_simple(lines, name, family, "gauge")
    for name, family in sorted(snapshot.get("histograms", {}).items()):
        _render_histogram(lines, name, family)
    return "\n".join(lines) + ("\n" if lines else "")


def _render_simple(
    lines: List[str], name: str, family: Dict[str, object], kind: str
) -> None:
    if family.get("help"):
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
    lines.append(f"# TYPE {name} {kind}")
    values: Iterable[Dict[str, object]] = family.get("values", ())
    for row in values:
        labels = _format_labels(row.get("labels", {}))
        lines.append(f"{name}{labels} {_format_value(row['value'])}")


def _render_histogram(lines: List[str], name: str, family: Dict[str, object]) -> None:
    if family.get("help"):
        lines.append(f"# HELP {name} {_escape_help(family['help'])}")
    lines.append(f"# TYPE {name} histogram")
    buckets: List[float] = list(family.get("buckets", ()))
    for row in family.get("values", ()):
        labels = dict(row.get("labels", {}))
        cumulative = 0
        counts = list(row.get("counts", ()))
        for bound, count in zip(buckets, counts):
            cumulative += count
            le = _format_labels(labels, extra=(("le", _format_value(bound)),))
            lines.append(f"{name}_bucket{le} {cumulative}")
        cumulative += counts[len(buckets)] if len(counts) > len(buckets) else 0
        inf = _format_labels(labels, extra=(("le", "+Inf"),))
        lines.append(f"{name}_bucket{inf} {cumulative}")
        lines.append(
            f"{name}_sum{_format_labels(labels)} {_format_value(row.get('sum', 0.0))}"
        )
        lines.append(
            f"{name}_count{_format_labels(labels)} {_format_value(row.get('count', 0))}"
        )

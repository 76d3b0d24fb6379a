"""The traced run: time and counts per layer, from wrappers around public calls.

``--trace 1`` runs the workload's fixed work twice: once untraced, once with
the public functions of each layer wrapped by :class:`Tracer`.  Wrappers live
only in the benchmark; the program is not changed.  Every wrapped call
records one span (id, parent span, layer, name, start, duration, and the
amount of work it did) in memory; spans are written as JSON when the run
ends, under ``.perfbench_traces/`` at the checkout root.  Observations are per
chunk, batch, frame or payload, never per request.

A layer's self time is the time inside its spans minus the time inside the
spans they caused.  What no span covers is the workload's unattributed
remainder (``trace.unattributed_s``).  Every time is in reference-seconds,
scaled by the slices taken during the traced pass.

Layers and the calls that represent them:

==============  ============================================================
``workloads``   ``iter_requests`` of every workload generator (per chunk)
``network``     ``TrafficSpec.iter_trace`` (per chunk),
                ``MultiSourceNetwork`` construction and ``serve_trace_stream``
``algorithms``  ``serve_batch`` and ``prepare`` of every tree algorithm
``sim``         ``execute_payloads``
``plans``       ``repro.run`` and plan-document loading (``plan_from_dict``)
``resilience``  ``payload_key``, ``ResultStore.put`` and ``ResultStore.get``
``dist``        ``encode_frame`` and ``decode_frame_body`` (server side)
``serve``       ``ServeEngine.submit``, ``IngestWriter.append``/``flush``,
                ``read_ingest_log``
==============  ============================================================
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.calib import NOMINAL_S, Calibrator

__all__ = ["LAYERS", "PER_LAYER_UNITS", "Tracer", "traced_run"]

LAYERS = ("workloads", "network", "algorithms", "sim", "plans", "resilience", "dist", "serve")

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.generate_s": "ref-s",
    "workloads.requests": "count",
    "network.trace_s": "ref-s",
    "network.interleave_s": "ref-s",
    "network.build_s": "ref-s",
    "network.trees": "count",
    "network.split_s": "ref-s",
    "algorithms.serve_s": "ref-s",
    "algorithms.batches": "count",
    "algorithms.requests": "count",
    "core.access_cost": "count",
    "core.adjustment_cost": "count",
    "sim.fanout_s": "ref-s",
    "sim.payloads": "count",
    "sim.payload_bytes": "bytes",
    "sim.retries": "count",
    "sim.pool_rebuilds": "count",
    "plans.load_s": "ref-s",
    "plans.run_s": "ref-s",
    "plans.compile_s": "ref-s",
    "resilience.key_s": "ref-s",
    "resilience.put_s": "ref-s",
    "resilience.get_s": "ref-s",
    "resilience.stored": "count",
    "resilience.cache_hits": "count",
    "resilience.store_bytes": "bytes",
    "resilience.resume_s": "ref-s",
    "dist.encode_s": "ref-s",
    "dist.decode_s": "ref-s",
    "dist.frames": "count",
    "dist.wire_bytes": "bytes",
    "serve.engine_s": "ref-s",
    "serve.ingest_s": "ref-s",
    "serve.ingest_bytes": "bytes",
    "serve.batches": "count",
    "serve.busy": "count",
    "serve.unattributed_s": "ref-s",
    "serve.client_late_p99_ms": "ref-ms",
    "serve.replay_read_s": "ref-s",
    "serve.replay_run_s": "ref-s",
    "serve.batch_p50_ms": "ref-ms",
    "serve.batch_p99_ms": "ref-ms",
    "serve.replay_s": "ref-s",
    **{f"{layer}.self_s": "ref-s" for layer in LAYERS},
    "trace.unattributed_s": "ref-s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "calib.ref_ms": "ms",
}

TRACE_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_traces"

# span tuple fields
_ID, _PARENT, _LAYER, _NAME, _START, _DURATION, _CHILDREN, _AMOUNT = range(8)


class Tracer:
    """In-memory spans of one traced pass, keyed by a per-run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn: Callable, args, kwargs,
             amount: Optional[Callable] = None):
        """Run ``fn`` inside a span; a call nested in a span of the same name
        (a subclass calling its base, a generator delegating to another) is
        counted in the outer span only."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, next(self._ids), 0.0]
        parent = stack[-1][1] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][2] += duration
        value = amount(args, result) if amount is not None else 1
        self.spans.append((frame[1], parent, layer, name, start, duration, frame[2], value))
        return result

    # ------------------------------------------------------------ patching

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def rebind(self, original: object, replacement: object) -> None:
        """Replace ``original`` in every loaded module that has bound it
        (``from module import name`` copies the binding)."""
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patch(loaded, key, replacement)

    def wrap_function(self, module: object, attribute: str, layer: str, name: str,
                      amount: Optional[Callable] = None) -> None:
        """Wrap a module-level function wherever a module has bound it."""
        original = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            return self.call(layer, name, original, args, kwargs, amount)

        self.rebind(original, wrapper)

    def wrap_method(self, cls: type, attribute: str, layer: str, name: str,
                    amount: Optional[Callable] = None, iterate: bool = False) -> None:
        """Wrap a method on ``cls`` and every subclass that overrides it.

        With ``iterate=True`` the method returns an iterator and every step
        of it is a span instead of the call itself.
        """
        for owner in _with_subclasses(cls):
            if attribute not in owner.__dict__:
                continue
            original = owner.__dict__[attribute]
            if iterate:
                wrapper = self._iterating(original, layer, name, amount)
            else:
                wrapper = self._calling(original, layer, name, amount)
            self._patch(owner, attribute, wrapper)

    def _calling(self, original, layer, name, amount):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, original, args, kwargs, amount)

        return wrapper

    def _iterating(self, original, layer, name, amount):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            return _TimedIterator(tracer, layer, name, original(*args, **kwargs), amount)

        return wrapper

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def totals(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (layer, name): inclusive seconds, self seconds, calls, amount."""
        out: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0, "amount": 0}
        )
        for span in self.spans:
            entry = out[(span[_LAYER], span[_NAME])]
            entry["total"] += span[_DURATION]
            entry["self"] += span[_DURATION] - span[_CHILDREN]
            entry["calls"] += 1
            entry["amount"] += span[_AMOUNT]
        return out

    def write(self) -> Path:
        TRACE_ROOT.mkdir(parents=True, exist_ok=True)
        path = TRACE_ROOT / f"{self.run_id}.json"
        fields = ("id", "parent", "layer", "name", "start", "duration", "children_s", "amount")
        document = {
            "run_id": self.run_id,
            "spans": [dict(zip(fields, span)) for span in self.spans],
        }
        path.write_text(json.dumps(document))
        return path


class _TimedIterator:
    """An iterator whose every step is a span."""

    def __init__(self, tracer: Tracer, layer: str, name: str, iterator, amount) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.iterator = iter(iterator)
        self.amount = amount

    def __iter__(self):
        return self

    def __next__(self):
        return self.tracer.call(self.layer, self.name, next, (self.iterator,), {}, self.amount)


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _served(_args, served) -> int:
    return int(served)


def _payload_count(args, _results) -> int:
    return len(args[0])


def _chunk_size(_args, chunk) -> int:
    return len(chunk)


def _trace_chunk_size(_args, chunk) -> int:
    return len(chunk[0])


def _frame_bytes(_args, frame) -> int:
    return len(frame)


def _body_bytes(args, _message) -> int:
    return len(args[0])


def _hit(_args, result) -> int:
    return int(result is not None)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls (see the module docstring)."""
    import repro.algorithms.base as algorithms
    import repro.dist.framing as framing
    import repro.network.multi_source as multi_source
    import repro.network.traffic as traffic
    import repro.plans.execute as plans_execute
    import repro.plans.io as plans_io
    import repro.resilience.store as store
    import repro.serve.engine as engine
    import repro.serve.ingest as ingest
    import repro.sim.runner as runner
    import repro.workloads.base as workloads

    tracer.wrap_method(workloads.WorkloadGenerator, "iter_requests", "workloads",
                       "generate", amount=_chunk_size, iterate=True)
    tracer.wrap_method(traffic.TrafficSpec, "iter_trace", "network", "trace",
                       amount=_trace_chunk_size, iterate=True)
    tracer.wrap_method(multi_source.MultiSourceNetwork, "__init__", "network", "build",
                       amount=lambda args, _r: len(args[0].sources))
    tracer.wrap_method(multi_source.MultiSourceNetwork, "serve_trace_stream", "network",
                       "split")
    tracer.wrap_method(algorithms.OnlineTreeAlgorithm, "serve_batch", "algorithms",
                       "serve_batch", amount=_served)
    tracer.wrap_method(algorithms.OnlineTreeAlgorithm, "prepare", "algorithms", "prepare")
    tracer.wrap_function(runner, "execute_payloads", "sim", "fanout",
                         amount=_payload_count)
    tracer.wrap_function(plans_execute, "run", "plans", "run")
    tracer.wrap_function(plans_io, "plan_from_dict", "plans", "load")
    tracer.wrap_function(store, "payload_key", "resilience", "key")
    tracer.wrap_method(store.ResultStore, "put", "resilience", "put",
                       amount=lambda _args, path: path.stat().st_size)
    tracer.wrap_method(store.ResultStore, "get", "resilience", "get", amount=_hit)
    tracer.wrap_function(framing, "encode_frame", "dist", "encode", amount=_frame_bytes)
    tracer.wrap_function(framing, "decode_frame_body", "dist", "decode", amount=_body_bytes)
    tracer.wrap_method(engine.ServeEngine, "submit", "serve", "submit")
    tracer.wrap_method(ingest.IngestWriter, "append", "serve", "ingest_append")
    tracer.wrap_method(ingest.IngestWriter, "flush", "serve", "ingest_flush")
    tracer.wrap_function(ingest, "read_ingest_log", "serve", "replay_read")


def traced_run(workload, calibrator: Calibrator, seconds: float) -> Dict[str, dict]:
    """Untraced then traced pass of the workload's fixed work; per-layer metrics."""
    base = workload.measure(calibrator, seconds, fixed=True)
    run_id = f"{workload.name}-seed{workload.seed}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(run_id)
    counters = _Counters()
    retries, pool_rebuilds = workload.retries, workload.pool_rebuilds
    first_slice = len(calibrator.all_slices)
    install(tracer)
    counters.install(tracer)
    started = time.perf_counter()
    try:
        workload.setup()
        traced = workload.measure(calibrator, seconds, fixed=True)
    finally:
        wall = time.perf_counter() - started
        tracer.restore()
    factor = NOMINAL_S / statistics.harmonic_mean(calibrator.all_slices[first_slice:])
    path = tracer.write()

    totals = tracer.totals()

    def seconds_of(layer: str, name: str, kind: str = "self") -> float:
        return totals[(layer, name)][kind] * factor if (layer, name) in totals else 0.0

    def amount_of(layer: str, name: str) -> float:
        return totals[(layer, name)]["amount"] if (layer, name) in totals else 0

    def calls_of(layer: str, name: str) -> float:
        return totals[(layer, name)]["calls"] if (layer, name) in totals else 0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for (layer, _name), entry in totals.items():
        layer_self[layer] += entry["self"] * factor

    values: Dict[str, float] = {
        "workloads.generate_s": seconds_of("workloads", "generate"),
        "workloads.requests": amount_of("workloads", "generate"),
        "network.trace_s": seconds_of("network", "trace"),
        "network.interleave_s": _interleave_s(workload, traced.units) * factor,
        "network.build_s": seconds_of("network", "build"),
        "network.trees": amount_of("network", "build"),
        "network.split_s": seconds_of("network", "split"),
        "algorithms.serve_s": seconds_of("algorithms", "serve_batch")
        + seconds_of("algorithms", "prepare"),
        "algorithms.batches": calls_of("algorithms", "serve_batch"),
        "algorithms.requests": amount_of("algorithms", "serve_batch"),
        "core.access_cost": counters.access,
        "core.adjustment_cost": counters.adjustment,
        "sim.fanout_s": seconds_of("sim", "fanout", "total"),
        "sim.payloads": amount_of("sim", "fanout"),
        "sim.payload_bytes": counters.payload_bytes,
        "sim.retries": workload.retries - retries,
        "sim.pool_rebuilds": workload.pool_rebuilds - pool_rebuilds,
        "plans.load_s": seconds_of("plans", "load", "total"),
        "plans.run_s": seconds_of("plans", "run", "total"),
        "resilience.key_s": seconds_of("resilience", "key"),
        "resilience.put_s": seconds_of("resilience", "put"),
        "resilience.get_s": seconds_of("resilience", "get"),
        "resilience.stored": calls_of("resilience", "put"),
        "resilience.cache_hits": amount_of("resilience", "get"),
        "resilience.store_bytes": amount_of("resilience", "put"),
        "resilience.resume_s": getattr(workload, "last_resume_ref_s", 0.0),
        "dist.encode_s": seconds_of("dist", "encode"),
        "dist.decode_s": seconds_of("dist", "decode"),
        "dist.frames": calls_of("dist", "encode") + calls_of("dist", "decode"),
        "dist.wire_bytes": amount_of("dist", "encode") + amount_of("dist", "decode"),
        "serve.engine_s": seconds_of("serve", "submit", "total")
        - seconds_of("serve", "ingest_append", "total")
        - seconds_of("serve", "ingest_flush", "total"),
        "serve.ingest_s": seconds_of("serve", "ingest_append", "total")
        + seconds_of("serve", "ingest_flush", "total"),
        "serve.ingest_bytes": getattr(workload, "ingest_bytes", lambda: 0)(),
        "serve.batches": calls_of("serve", "submit"),
        "serve.busy": getattr(workload, "busy", 0),
        "serve.replay_read_s": seconds_of("serve", "replay_read", "total"),
        "serve.replay_run_s": seconds_of("plans", "run", "total")
        if workload.name == "live_serve"
        else 0.0,
        "trace.spans": len(tracer.spans),
        "calib.ref_ms": calibrator.ref_ms,
    }
    values["plans.compile_s"] = values["plans.run_s"] - values["sim.fanout_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    values["trace.unattributed_s"] = wall * factor - sum(layer_self.values())
    values["trace.overhead_pct"] = (base.req_per_s - traced.req_per_s) / base.req_per_s * 100
    # the live endpoint's latency and replay figures come from the untraced pass
    extra = base.extra
    values["serve.batch_p50_ms"] = extra.get("batch_p50_ms", 0.0)
    values["serve.batch_p99_ms"] = extra.get("batch_p99_ms", 0.0)
    values["serve.replay_s"] = extra.get("replay_s", 0.0)
    values["serve.client_late_p99_ms"] = extra.get("client_late_p99_ms", 0.0)
    round_trip_s = traced.wall.get("client_round_trip_s", 0.0) * factor
    values["serve.unattributed_s"] = (
        round_trip_s
        - values["serve.engine_s"]
        - values["serve.ingest_s"]
        - values["dist.encode_s"]
        - values["dist.decode_s"]
        if round_trip_s
        else 0.0
    )
    print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


class _Counters:
    """Ledger totals and pickled payload bytes, gathered beside the spans."""

    def __init__(self) -> None:
        self.access = 0
        self.adjustment = 0
        self.payload_bytes = 0

    def install(self, tracer: Tracer) -> None:
        import repro.algorithms.base as algorithms
        import repro.sim.runner as runner

        counters = self
        inside = threading.local()
        for owner in _with_subclasses(algorithms.OnlineTreeAlgorithm):
            if "serve_batch" not in owner.__dict__:
                continue
            traced = owner.__dict__["serve_batch"]

            def serve_batch(self, requests, _traced=traced):
                # a subclass calling its base serve_batch is one batch
                if getattr(inside, "active", False):
                    return _traced(self, requests)
                ledger = self.network.ledger
                access, adjustment = ledger.total_access_cost, ledger.total_adjustment_cost
                inside.active = True
                try:
                    served = _traced(self, requests)
                finally:
                    inside.active = False
                counters.access += ledger.total_access_cost - access
                counters.adjustment += ledger.total_adjustment_cost - adjustment
                return served

            tracer._patch(owner, "serve_batch", serve_batch)
        fanout = runner.execute_payloads

        def execute_payloads(payloads, *args, **kwargs):
            counters.payload_bytes += sum(len(pickle.dumps(p)) for p in payloads)
            return fanout(payloads, *args, **kwargs)

        tracer.rebind(fanout, execute_payloads)


def _interleave_s(workload, units: int) -> float:
    """Wall seconds to drain the multisource interleaver standalone, ``units`` times."""
    plan = getattr(workload, "plan", None)
    traffic = getattr(plan, "traffic", None)
    if traffic is None:
        return 0.0
    from repro.network.traffic import iter_interleaving

    seeded = traffic.with_seed(plan.config.base_seed)
    started = time.perf_counter()
    for _ in range(units):
        for _source in iter_interleaving(
            seeded.interleaving,
            seeded.source_ids(),
            plan.config.n_requests,
            seeded.seed,
            seeded.weight_dict() or None,
        ):
            pass
    return time.perf_counter() - started

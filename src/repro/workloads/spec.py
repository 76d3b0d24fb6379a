"""Immutable workload specifications and the kind registry.

A :class:`WorkloadSpec` is a frozen, picklable, hashable description of a
workload generator: a ``kind`` naming a registered workload class, a tuple of
``(name, value)`` parameter pairs and a ``seed``.  Specs are the unit that
crosses process boundaries: experiment runners ship *specs* to pool workers,
which call :func:`build_workload` and stream requests locally, instead of
pickling whole materialised request sequences (which dominates fan-out cost at
paper scale — 10^6 requests per trial).

The spec protocol replaces ad-hoc mutation of generator objects:

* construction is the only way RNG state comes into existence — a spec plus
  :func:`build_workload` always yields a generator in its pristine seeded
  state, so there is no reseeding protocol to get subtly wrong;
* :meth:`repro.workloads.base.WorkloadGenerator.to_spec` is the inverse:
  every registered generator can describe itself as the spec that rebuilds it.

Workload modules register a builder for their kind at import time via
:func:`register_workload`; :func:`build_workload` lazily imports
:mod:`repro.workloads` on a registry miss so worker processes need no import
ceremony.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import WorkloadError

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "WorkloadSpec",
    "check_kind",
    "check_universe",
    "freeze_params",
    "register_workload",
    "build_workload",
    "registered_kinds",
    "thaw_value",
]

#: Number of requests generated per streaming chunk, the one chunk size every
#: plan run streams at (no result depends on it).  Large enough to amortise
#: per-chunk overhead (kernel calls, loop setup), small enough that a worker
#: never holds more than a sliver of a 10^6-request sequence.
DEFAULT_CHUNK_SIZE = 65_536


def _freeze(value: object) -> object:
    """Recursively convert ``value`` into an immutable, hashable equivalent.

    The canonical freezing convention of the whole spec/plan layer:
    :class:`WorkloadSpec`, :class:`repro.plans.RunConfig` and the plan
    objects all freeze through here (via :func:`freeze_params`), so equality
    and hashing stay bit-compatible across layers.
    (:class:`repro.algorithms.registry.AlgorithmSpec` keeps a verbatim local
    copy because the algorithms package must not import workloads —
    ``workloads.adversarial`` imports algorithm modules.)
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


def freeze_params(params: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    """Freeze a parameter mapping into the canonical sorted pair tuple."""
    return tuple(sorted((str(name), _freeze(value)) for name, value in params.items()))


def thaw_value(value: object) -> object:
    """Inverse of :func:`_freeze` for serialisation: tuples become lists.

    Nested :class:`WorkloadSpec` values recurse through their own
    :meth:`WorkloadSpec.to_dict`.
    """
    if isinstance(value, WorkloadSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [thaw_value(item) for item in value]
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """Immutable description of a workload: ``{kind, params, seed}``.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so that
    two specs describing the same workload compare (and hash) equal.  Values
    may be scalars, tuples or nested :class:`WorkloadSpec` objects (e.g. a
    temporal workload's base).
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    seed: Optional[int] = None

    @classmethod
    def create(cls, kind: str, seed: Optional[int] = None, **params: object) -> "WorkloadSpec":
        """Build a spec from keyword parameters, freezing mutable values."""
        return cls(kind=kind, params=freeze_params(params), seed=seed)

    def param_dict(self) -> Dict[str, object]:
        """Return the parameters as a plain dictionary."""
        return dict(self.params)

    def get(self, name: str, default: object = None) -> object:
        """Return one parameter value (or ``default``)."""
        return self.param_dict().get(name, default)

    def build(self):
        """Construct the described generator (shorthand for :func:`build_workload`)."""
        return build_workload(self)

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation (nested specs recurse)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "params": {name: thaw_value(value) for name, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (or equivalent JSON).

        The inverse of :meth:`to_dict`: JSON lists refreeze to tuples and
        parameter values shaped like spec documents (mappings with ``kind``
        and ``params`` keys, e.g. a temporal workload's base)
        revive as nested :class:`WorkloadSpec` objects, so a spec survives a
        JSON round-trip *equal* to the original.
        """
        if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
            raise WorkloadError(f"not a workload-spec document: {data!r}")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise WorkloadError(f"workload spec params must be an object, got {params!r}")

        def revive(value: object) -> object:
            if isinstance(value, dict) and "kind" in value and "params" in value:
                return cls.from_dict(value)
            if isinstance(value, list):
                return [revive(item) for item in value]
            return value

        return cls.create(
            data["kind"],
            seed=data.get("seed"),
            **{name: revive(value) for name, value in params.items()},
        )

    def with_seed(self, seed: Optional[int]) -> "WorkloadSpec":
        """Return a copy of this spec carrying ``seed`` (params unchanged).

        The one-liner the plan layer leans on: a plan stores a seedless
        workload *template* and stamps the per-trial seed onto it here.
        The kind and params are already frozen, so the copy's fields are
        set as the constructor sets them, without calling it.
        """
        stamped = object.__new__(WorkloadSpec)
        object.__setattr__(stamped, "kind", self.kind)
        object.__setattr__(stamped, "params", self.params)
        object.__setattr__(stamped, "seed", seed)
        return stamped


#: A builder turns ``(params, seed)`` back into a generator instance.
WorkloadBuilder = Callable[[Dict[str, object], Optional[int]], object]

_REGISTRY: Dict[str, WorkloadBuilder] = {}

#: Bumped on every registration.  Long-lived worker pools fork a snapshot of
#: this module's state; :mod:`repro.sim.parallel` keys its persistent pool on
#: this counter so kinds registered after the pool was created still reach
#: the workers (the pool is rebuilt, re-forking current state).
_REGISTRY_VERSION = 0

_CORE_LOADED = False


def register_workload(kind: str) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
    """Class-module decorator registering a builder for ``kind``."""

    def decorate(builder: WorkloadBuilder) -> WorkloadBuilder:
        global _REGISTRY_VERSION
        _REGISTRY[kind] = builder
        _REGISTRY_VERSION += 1
        return builder

    return decorate


def registry_version() -> int:
    """Return the registration counter (changes whenever a kind is added)."""
    return _REGISTRY_VERSION


def registered_kinds() -> List[str]:
    """Return the sorted list of registered workload kinds."""
    _ensure_registry()
    return sorted(_REGISTRY)


#: The modules whose imports register the core workload kinds.
_CORE_MODULES = (
    "repro.workloads.adversarial",
    "repro.workloads.base",
    "repro.workloads.composite",
    "repro.workloads.corpus",
    "repro.workloads.markov",
    "repro.workloads.temporal",
    "repro.workloads.trace_io",
    "repro.workloads.uniform",
    "repro.workloads.zipf",
)


def _ensure_registry() -> None:
    """Import the modules that register the core kinds, once.

    Guarded by its own flag (not ``if not _REGISTRY``) so a custom kind
    registered before first use does not mask the core kinds.
    """
    global _CORE_LOADED
    if not _CORE_LOADED:
        _CORE_LOADED = True
        for module in _CORE_MODULES:
            importlib.import_module(module)


def check_kind(kind: str) -> str:
    """Validate that ``kind`` is registered, without building anything.

    Raises :class:`~repro.exceptions.WorkloadError` naming the bad key and
    listing every registered kind — the eager-validation hook used by the
    plan layer so an unresolvable plan fails at construction, not mid-run.
    """
    _ensure_registry()
    if kind not in _REGISTRY:
        raise WorkloadError(
            f"unknown workload kind {kind!r}; registered kinds: {registered_kinds()}"
        )
    return kind


def check_universe(spec: WorkloadSpec, expected: int, owner: str) -> WorkloadSpec:
    """Validate a spec's universe against ``expected`` nodes.

    The shared eager check of every layer that binds workload specs to a tree
    of a known size (trial plans, traffic specs): the spec's ``n_elements``
    parameter — when present — must equal the tree size.  ``owner`` names the
    validating document in the error message.  Callers check the kind
    separately via :func:`check_kind` (the two raise differently-typed errors
    in the plan layer).
    """
    universe = spec.get("n_elements")
    if universe is not None and universe != expected:
        raise WorkloadError(
            f"{owner}: workload universe {universe} does not match "
            f"the {expected}-node tree"
        )
    return spec


def build_workload(spec: WorkloadSpec):
    """Construct a pristine generator from ``spec``.

    The returned generator is exactly what the spec's original constructor
    call produced: same parameters, same seed, untouched RNG streams.
    """
    builder = _REGISTRY.get(spec.kind)  # a registered kind needs no check
    if builder is None:
        builder = _REGISTRY[check_kind(spec.kind)]
    return builder(spec.param_dict(), spec.seed)

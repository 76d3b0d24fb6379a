"""Algorithm registry, declarative algorithm specs and the factory.

Experiments refer to algorithms by their registry name (the short labels used
in the paper's figures): ``rotor-push``, ``random-push``, ``move-half``,
``max-push``, ``static-oblivious``, ``static-opt`` and the extra baseline
``move-to-front``.  This module maps those names to classes and offers a
one-call factory that builds an algorithm instance on a fresh tree with the
paper's random initial placement.

:class:`AlgorithmSpec` is the algorithm half of the declarative plan layer
(:mod:`repro.plans`): an immutable, hashable ``{name, params}`` pair that is
validated against this registry at construction, mirrors
:class:`repro.workloads.spec.WorkloadSpec` on the workload side, and is what
:class:`repro.sim.runner.TrialPayload` ships across process boundaries.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type, Union

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.max_push import MaxPush
from repro.algorithms.move_half import MoveHalf
from repro.algorithms.move_to_front import MoveToFrontTree
from repro.algorithms.random_push import RandomPush
from repro.algorithms.rotor_push import RotorPush
from repro.algorithms.static_oblivious import StaticOblivious
from repro.algorithms.static_opt import StaticOpt
from repro.core.draws import seeded_kernel
from repro.exceptions import AlgorithmError

if TYPE_CHECKING:
    from repro.algorithms.cascade_kernel import CascadeKernel

__all__ = [
    "ALGORITHMS",
    "PAPER_ALGORITHMS",
    "SELF_ADJUSTING_ALGORITHMS",
    "AlgorithmSpec",
    "available_algorithms",
    "chunk_function",
    "get_algorithm_class",
    "make_algorithm",
    "seeded_serving",
]

#: All registered algorithm classes, keyed by registry name.
ALGORITHMS: Dict[str, Type[OnlineTreeAlgorithm]] = {
    RotorPush.name: RotorPush,
    RandomPush.name: RandomPush,
    MoveHalf.name: MoveHalf,
    MaxPush.name: MaxPush,
    StaticOblivious.name: StaticOblivious,
    StaticOpt.name: StaticOpt,
    MoveToFrontTree.name: MoveToFrontTree,
}

#: The six algorithms compared in the paper's empirical section (Section 6).
PAPER_ALGORITHMS: List[str] = [
    RotorPush.name,
    RandomPush.name,
    MoveHalf.name,
    MaxPush.name,
    StaticOblivious.name,
    StaticOpt.name,
]

#: The four self-adjusting algorithms (used by the Q1 cost-difference plots).
SELF_ADJUSTING_ALGORITHMS: List[str] = [
    RotorPush.name,
    RandomPush.name,
    MoveHalf.name,
    MaxPush.name,
]


def available_algorithms() -> List[str]:
    """Return all registry names, in a stable order."""
    return list(ALGORITHMS)


def get_algorithm_class(name: str) -> Type[OnlineTreeAlgorithm]:
    """Return the algorithm class registered under ``name``."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(ALGORITHMS)}"
        ) from None


def _freeze(value: object) -> object:
    """Recursively convert ``value`` into an immutable, hashable equivalent.

    A verbatim copy of the canonical ``_freeze`` in
    :mod:`repro.workloads.spec` (lists/tuples become tuples, dictionaries
    become sorted ``(key, value)`` tuples, scalars pass through), kept local
    because the algorithms package must not import workloads —
    :mod:`repro.workloads.adversarial` imports algorithm modules, so the
    reverse import would create a package cycle.  Any change must land in
    both places; the plan round-trip tests pin the shared behaviour.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class AlgorithmSpec:
    """Immutable description of an algorithm choice: ``{name, params}``.

    ``name`` must be a registered algorithm name — unknown names raise
    :class:`~repro.exceptions.AlgorithmError` *at construction*, naming the
    bad key and listing every registered algorithm.  ``params`` holds extra
    constructor keyword arguments (e.g. ``exact_swaps``) as a sorted tuple of
    ``(name, value)`` pairs so that equal specs compare and hash equal.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        get_algorithm_class(self.name)  # validates eagerly, error lists names
        frozen = _freeze(dict(self.params))
        if frozen != self.params:
            object.__setattr__(self, "params", frozen)

    @classmethod
    def create(cls, name: str, **params: object) -> "AlgorithmSpec":
        """Build a spec from keyword parameters, freezing mutable values."""
        return cls(name=name, params=_freeze(params))

    @classmethod
    def coerce(cls, value: Union[str, "AlgorithmSpec"]) -> "AlgorithmSpec":
        """Return ``value`` as a spec (bare registry names are wrapped)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        raise AlgorithmError(
            f"expected an algorithm name or AlgorithmSpec, got {value!r}"
        )

    def param_dict(self) -> Dict[str, object]:
        """Return the parameters as a plain dictionary."""
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-friendly representation."""

        def thaw(value: object) -> object:
            if isinstance(value, tuple):
                return [thaw(item) for item in value]
            return value

        return {"name": self.name, "params": {k: thaw(v) for k, v in self.params}}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AlgorithmSpec":
        """Rebuild a spec from :meth:`to_dict` output (or equivalent JSON)."""
        if not isinstance(data, dict) or not isinstance(data.get("name"), str):
            raise AlgorithmError(f"not an algorithm-spec document: {data!r}")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise AlgorithmError(
                f"algorithm spec params must be an object, got {params!r}"
            )
        return cls.create(data["name"], **params)

    def build(self, **factory_kwargs) -> OnlineTreeAlgorithm:
        """Construct the described algorithm (shorthand for :func:`make_algorithm`)."""
        return make_algorithm(self, **factory_kwargs)


def make_algorithm(
    name: Union[str, AlgorithmSpec],
    n_nodes: Optional[int] = None,
    depth: Optional[int] = None,
    placement_seed: Optional[int] = None,
    seed: Optional[int] = None,
    keep_records: bool = True,
    enforce_marking: bool = False,
    **kwargs,
) -> OnlineTreeAlgorithm:
    """Build an algorithm instance on a fresh randomly-placed tree.

    Parameters
    ----------
    name:
        Registry name (see :data:`ALGORITHMS`) or an :class:`AlgorithmSpec`,
        whose params become constructor keyword arguments (explicit ``kwargs``
        win over spec params on a clash).
    n_nodes, depth:
        Tree size; give exactly one of the two.
    placement_seed:
        Seed of the uniformly random initial placement.
    seed:
        Seed of the algorithm's own randomness (only used by Random-Push; it is
        ignored by deterministic algorithms so callers can pass it uniformly).
    keep_records:
        Whether per-request cost records are retained.
    enforce_marking:
        Whether the swap marking discipline is enforced at runtime.
    kwargs:
        Forwarded to the algorithm constructor (e.g. ``exact_swaps``).
    """
    if isinstance(name, AlgorithmSpec):
        kwargs = {**name.param_dict(), **kwargs}
        name = name.name
    cls = get_algorithm_class(name)
    if seed is not None and cls is RandomPush:
        kwargs = dict(kwargs, seed=seed)
    return cls.for_tree(
        n_nodes=n_nodes,
        depth=depth,
        placement_seed=placement_seed,
        keep_records=keep_records,
        enforce_marking=enforce_marking,
        **kwargs,
    )


def chunk_function(spec: AlgorithmSpec) -> Optional[str]:
    """The kernel chunk function that may serve ``spec`` without a tree.

    ``None`` for an algorithm without one, or a spec with a parameter the
    kernel does not model.  Only ``exact_swaps`` is modelled: it selects how
    the checked reference path realises a push-down, which the kernel
    ignores (both realisations give the same tree and costs).  Other specs
    take the tree path, which builds the algorithm, or rejects the
    parameter, as before.
    """
    cls = get_algorithm_class(spec.name)
    if cls.kernel is None:
        return None
    if any(
        name != "exact_swaps" or not _accepts_exact_swaps(cls) for name, _ in spec.params
    ):
        return None
    return cls.kernel


@lru_cache(maxsize=None)
def _accepts_exact_swaps(cls: Type[OnlineTreeAlgorithm]) -> bool:
    """Whether ``cls``'s constructor takes ``exact_swaps`` (read once per
    class: a signature costs about 0.1 ms to read)."""
    return "exact_swaps" in inspect.signature(cls).parameters


def seeded_serving(
    spec: AlgorithmSpec, n_nodes: int, placement_seed, algorithm_seed
) -> Optional[Tuple["CascadeKernel", str]]:
    """The kernel and chunk function that serve ``spec`` on a seeded tree, or ``None``.

    The one dispatcher of the tree-free paths: a single-source trial
    (:func:`repro.sim.engine.simulate_stream`) and a network-plan
    source (:func:`repro.network.multi_source.serve_source_by_source`)
    each become one :meth:`~repro.algorithms.cascade_kernel.CascadeKernel.serve_seeded`
    call, and a live source (:meth:`repro.serve.engine.ServeEngine.bind`)
    keeps one resident :class:`~repro.algorithms.cascade_kernel.SeededTrees`,
    when ``spec`` has a :func:`chunk_function`, ``n_nodes`` is a
    complete-tree size, ``placement_seed`` is an exact ``int`` (and so is
    ``algorithm_seed`` for Random-Push, the one algorithm that reads it:
    :func:`make_algorithm` ignores it for the others) and the kernel may
    draw the tree's placement from ``placement_seed``
    (:func:`repro.core.draws.seeded_kernel`, which also requires its
    random-number checks to have passed) and serves that function.
    ``None`` sends the caller to the tree path, the reference.
    """
    function = chunk_function(spec)
    if (
        function is None
        or (function == "random_push" and type(algorithm_seed) is not int)
        or type(n_nodes) is not int
        or n_nodes & (n_nodes + 1)
    ):
        return None
    kernel = seeded_kernel(placement_seed, n_nodes, n_nodes)
    if kernel is None or not kernel.serves(function):
        return None
    return kernel, function

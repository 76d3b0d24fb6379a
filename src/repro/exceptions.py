"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses indicate which subsystem
detected the problem (tree geometry, element mapping, rotor state, cost
accounting, workload generation or experiment configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TreeStructureError(ReproError):
    """Raised when a tree is constructed or indexed inconsistently.

    Examples include a node count that does not correspond to a complete binary
    tree, a node index outside ``[0, n)``, or asking for the parent of the root.
    """


class MappingError(ReproError):
    """Raised when the element-to-node bijection is violated or misused.

    The library maintains a bijection ``nd : E -> T`` between elements and tree
    nodes; any operation that would break it (duplicate placement, unknown
    element, mismatched sizes) raises this error.
    """


class RotorStateError(ReproError):
    """Raised for invalid rotor-pointer state or rotor operations.

    For instance toggling the pointer of a leaf node, or querying the global
    path of a tree whose rotor state has a different shape.
    """


class SwapError(ReproError):
    """Raised when a swap operation is not allowed.

    Swaps must involve two adjacent nodes (parent and child); when the marking
    discipline is enforced, at least one endpoint must already be marked.
    """


class CostAccountingError(ReproError):
    """Raised when cost bookkeeping is used inconsistently.

    For example closing a request record twice, or charging adjustment cost
    outside of an open request.
    """


class AlgorithmError(ReproError):
    """Raised when an online algorithm is misconfigured or misused.

    Typical causes: requesting an element outside the element universe, or
    running an offline algorithm (such as Static-Opt) without preparing it with
    the request sequence first.
    """


class WorkloadError(ReproError):
    """Raised when a workload generator receives invalid parameters.

    For example a repeat probability outside ``[0, 1]``, a non-positive request
    count, or a Zipf exponent that is not strictly positive.
    """


class ExperimentError(ReproError):
    """Raised when an experiment or benchmark harness is configured incorrectly."""


class PlanError(ReproError):
    """Raised for invalid experiment plans (see :mod:`repro.plans`).

    Covers malformed plan documents (missing keys, wrong types), plans that
    reference unknown algorithm or workload registry names, and plan-level
    configuration conflicts."""


class FaultInjectionError(ReproError):
    """Raised by a deliberately injected transient fault (see
    :mod:`repro.resilience.faults`).

    The fault-injection harness uses this type for its ``"exception"`` mode so
    that tests can distinguish an injected failure from a genuine bug; the
    executor treats it like any other transient worker exception (retried
    under the active :class:`repro.resilience.RetryPolicy`).
    """


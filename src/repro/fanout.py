"""The syntax of the fan-out knobs ``n_jobs`` and ``executor``, importing no layer.

A :class:`repro.plans.RunConfig` checks them when built, so a process that
only reads plan documents loads neither the pool (:mod:`repro.sim.parallel`)
nor the wire protocol (:mod:`repro.dist.protocol`), which re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ExperimentError

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_TIMEOUT",
    "ExecutorSpec",
    "check_executor",
    "check_n_jobs",
]

#: Seconds a lease stays valid without a heartbeat before it expires.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Seconds between worker heartbeats while a payload is computing.  Kept a
#: small fraction of the lease timeout so one dropped heartbeat never
#: expires a healthy lease.
DEFAULT_HEARTBEAT_INTERVAL = 1.0


def check_n_jobs(n_jobs: Optional[int]) -> Optional[int]:
    """Validate ``n_jobs`` (``0`` is ambiguous), never resolving a CPU count."""
    if n_jobs is not None and n_jobs == 0:
        raise ExperimentError("n_jobs must be positive or negative, not 0")
    return n_jobs


@dataclass(frozen=True)
class ExecutorSpec:
    """Parsed form of an executor address string.

    The string format — carried verbatim in ``RunConfig.executor`` so plans
    stay JSON round-trippable — is::

        tcp://HOST:PORT[,HOST:PORT...][?lease=SECONDS&heartbeat=SECONDS]

    ``workers`` lists the daemon addresses the coordinator will connect to;
    ``lease_timeout`` is how long a lease survives without a heartbeat;
    ``heartbeat_interval`` is the cadence the coordinator asks workers to
    heartbeat at (shipped inside each ``lease`` message, so the fleet needs
    no configuration of its own).
    """

    workers: Tuple[Tuple[str, int], ...]
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL

    def __post_init__(self) -> None:
        if not self.workers:
            raise ExperimentError("executor address lists no workers")
        if not self.lease_timeout > 0:
            raise ExperimentError(
                f"lease timeout must be positive, got {self.lease_timeout!r}"
            )
        if not self.heartbeat_interval > 0:
            raise ExperimentError(
                f"heartbeat interval must be positive, got "
                f"{self.heartbeat_interval!r}"
            )

    @classmethod
    def parse(cls, address: str) -> "ExecutorSpec":
        """Parse an executor address string, validating scheme and ports."""
        if not isinstance(address, str) or not address:
            raise ExperimentError(f"not an executor address: {address!r}")
        split = urlsplit(address)
        if split.scheme != "tcp":
            raise ExperimentError(
                f"unsupported executor scheme {split.scheme!r} in {address!r}; "
                "only 'tcp://host:port[,host:port...]' is supported"
            )
        workers = []
        for entry in (split.netloc or "").split(","):
            host, _, port = entry.rpartition(":")
            if not host or not port.isdigit():
                raise ExperimentError(
                    f"bad worker address {entry!r} in {address!r}; expected "
                    "HOST:PORT"
                )
            workers.append((host, int(port)))
        options = parse_qs(split.query)
        unknown = sorted(set(options) - {"lease", "heartbeat"})
        if unknown:
            raise ExperimentError(
                f"unknown executor options {unknown} in {address!r}; "
                "supported: lease, heartbeat"
            )

        def last_float(name: str, default: float) -> float:
            values = options.get(name)
            if not values:
                return default
            try:
                return float(values[-1])
            except ValueError:
                raise ExperimentError(
                    f"executor option {name}={values[-1]!r} is not a number"
                ) from None

        return cls(
            workers=tuple(workers),
            lease_timeout=last_float("lease", DEFAULT_LEASE_TIMEOUT),
            heartbeat_interval=last_float("heartbeat", DEFAULT_HEARTBEAT_INTERVAL),
        )


def check_executor(address: Optional[str]) -> Optional[str]:
    """Eagerly validate an executor address (``None`` passes through).

    Plan documents are validated at construction, possibly on a machine that
    cannot reach the fleet — so only the address format is checked, never
    connectivity (exactly like ``check_n_jobs`` never checks the CPU count).
    """
    if address is not None:
        ExecutorSpec.parse(address)
    return address

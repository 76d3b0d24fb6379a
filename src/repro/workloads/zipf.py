"""Spatial-locality workloads drawn from a Zipf distribution.

Q3 of the paper controls spatial locality by sampling requests from a Zipf
(discrete power-law) distribution over the element universe: element ``k``
(1-based weight index) has probability proportional to ``k**(-a)``, where the
exponent ``a`` tunes the skew.  Larger ``a`` concentrates requests on a smaller
subset of elements and lowers the empirical entropy (the paper reports
entropies 11.07 ... 1.92 for ``a`` between 1.001 and 2.2 at 65,535 elements).

To decouple the skew from the element identifiers (the initial placement is
random anyway), the mapping from weight index to element identifier can be a
seeded random permutation.

The CDF is built once per ``(n, a)`` by :func:`zipf_table` and shared.
The stream is ``numpy.random.default_rng(seed)``'s, drawn without NumPy:
the identifier permutation first, then one ``random()`` per request, whose
rank is the number of CDF entries at or below it, which is what
``Generator.choice(n, count, p=…)`` draws.  The C kernel
(:mod:`repro.algorithms.cascade_kernel`) draws it from its port of
``SeedSequence`` and PCG64, as ``array('q')`` chunks.  :class:`PCG64`, the
port's pure-Python reference, checks it before its first use
(``rng_checks["zipf"]``) and draws the stream, as lists, when no kernel is
loaded or the check failed.  Every environment draws the same requests.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import random
from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.draws import kernel_module
from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import WorkloadGenerator, check_chunk_size, chunk_counts
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec, register_workload

if TYPE_CHECKING:
    from repro.algorithms.cascade_kernel import CascadeKernel

__all__ = ["PCG64", "ZipfWorkload", "zipf_kernel", "zipf_probabilities", "zipf_table"]

#: Number of ``(n, a)`` tables kept.  The paper's grids use at most five
#: exponents per size; a 65,535-element table is about 2.5 MiB.
ZIPF_TABLES = 8


def zipf_table(n_elements: int, exponent: float) -> Tuple[Tuple[float, ...], array]:
    """Return the Zipf probability vector ``p_k ∝ k**(-a)`` and its CDF.

    Matches the probability mass function quoted in the paper's methodology:
    ``f(k, a) = 1 / (k**a * sum_i i**(-a))``.  Shared per ``(n, a)``: a tuple
    and an ``array('d')`` that no caller may write (the kernel reads its
    address).  The arithmetic is NumPy's, in its order: libm ``pow``, the
    pairwise sum, ``p / sum``, a sequential cumsum divided by its last entry
    (``Generator.choice``'s CDF).  It equals NumPy's CDF bit for bit where
    NumPy's vectorised ``pow`` rounds as libm does, as on every ``(n, a)``
    the experiments use.
    """
    if n_elements <= 0:
        raise WorkloadError(f"n_elements must be positive, got {n_elements}")
    if exponent <= 0:
        raise WorkloadError(f"Zipf exponent must be positive, got {exponent}")
    return _zipf_table(int(n_elements), float(exponent))


@functools.lru_cache(maxsize=ZIPF_TABLES)
def _zipf_table(n_elements: int, exponent: float) -> Tuple[Tuple[float, ...], array]:
    weights = [rank ** -exponent for rank in range(1, n_elements + 1)]
    total = _pairwise_sum(weights, 0, n_elements)
    probabilities = tuple([weight / total for weight in weights])
    cumulative = list(itertools.accumulate(probabilities))
    last = cumulative[-1]
    return probabilities, array("d", [value / last for value in cumulative])


def _pairwise_sum(values: List[float], start: int, count: int) -> float:
    """NumPy's pairwise ``add.reduce`` of ``values[start:start + count]``.

    Fewer than 8 values add in order; up to 128 add in 8 interleaved lanes,
    then the lanes pairwise and the rest in order; more split in two at a
    multiple of 8.  ``reduce`` adds in order (``sum`` compensates on 3.12).
    """
    add, end = operator.add, start + count
    if count < 8:
        return functools.reduce(add, values[start:end], 0.0)
    if count > 128:
        mid = count // 2 - count // 2 % 8
        return _pairwise_sum(values, start, mid) + _pairwise_sum(values, start + mid, count - mid)
    stop = end - count % 8
    r = [functools.reduce(add, values[start + lane:stop:8]) for lane in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(add, values[stop:end], total)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_hashmix(value: int, hash_const: List[int]) -> int:
    value ^= hash_const[0]
    hash_const[0] = hash_const[0] * 0x931E8875 & _MASK32
    value = value * hash_const[0] & _MASK32
    return value ^ (value >> 16)


def _seed_mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ (result >> 16)


class PCG64:
    """``numpy.random.default_rng(seed)`` for an ``int`` seed of at least 0.

    The reference of the kernel's port, in its steps (see the comment above
    ``pcg64_seed`` in ``cascade_kernel.c``): ``SeedSequence``'s hashmix and
    mix, ``generate_state``, then PCG64's XSL-RR outputs and buffered
    32-bit halves.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed: int) -> None:
        key = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hash_const = [0x43B0D7E5]
        pool = [_seed_hashmix(key[i] if i < len(key) else 0, hash_const) for i in range(4)]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = _seed_mix(pool[i_dst], _seed_hashmix(pool[i_src], hash_const))
        for word in key[4:]:
            for i_dst in range(4):
                pool[i_dst] = _seed_mix(pool[i_dst], _seed_hashmix(word, hash_const))
        state = []
        hash_const = 0x8B51F9DD
        for i in range(8):
            value = pool[i & 3] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            state.append(value ^ (value >> 16))
        words = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
        self.state = 0
        self.inc = (words[2] << 64 | words[3]) << 1 & _MASK128 | 1
        self.has_uint32 = False
        self.uinteger = 0
        self.next64()
        self.state = (self.state + (words[0] << 64 | words[1])) & _MASK128
        self.next64()

    def next64(self) -> int:
        state = self.state = (self.state * _PCG_MULTIPLIER + self.inc) & _MASK128
        folded = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        return ((folded >> rotation) | (folded << (64 - rotation))) & _MASK64

    def next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = False
            return self.uinteger
        value = self.next64()
        self.has_uint32 = True
        self.uinteger = value >> 32
        return value & _MASK32

    def permutation(self, n: int) -> List[int]:
        """``Generator.permutation(n)``: ``range(n)`` shuffled from the last
        position down, each swap partner ``random_interval(i)`` (masked
        draws, 32-bit while ``i`` fits, until one is at most ``i``)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self.next32 if i <= _MASK32 else self.next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def random(self, count: int) -> List[float]:
        """``Generator.random(count)``: the top 53 bits of each output."""
        return [(self.next64() >> 11) * (1.0 / 9007199254740992.0) for _ in range(count)]

    def zipf(
        self, cdf: Sequence[float], identifiers: Optional[Sequence[int]], count: int
    ) -> List[int]:
        """``count`` draws of the kernel's ``zipf_fill``: each ``random()``'s
        rank in ``cdf`` (entries at or below it), mapped through
        ``identifiers`` unless that is ``None``."""
        ranks = [bisect.bisect_right(cdf, draw) for draw in self.random(count)]
        if identifiers is None:
            return ranks
        return [identifiers[rank] for rank in ranks]


def zipf_kernel() -> Optional["CascadeKernel"]:
    """The loaded kernel if its PCG64 port draws what :class:`PCG64` draws."""
    kernel = kernel_module().load()
    if kernel is None or not kernel.zipf_port_matches:
        return None
    return kernel


def zipf_probabilities(n_elements: int, exponent: float) -> Tuple[float, ...]:
    """Return the shared Zipf probability vector (see :func:`zipf_table`)."""
    return zipf_table(n_elements, exponent)[0]


class ZipfWorkload(WorkloadGenerator):
    """Independent requests drawn from a Zipf distribution with exponent ``a``.

    Parameters
    ----------
    n_elements:
        Size of the element universe.
    exponent:
        The skew parameter ``a > 0``; the paper uses values in
        ``{1.001, 1.3, 1.6, 1.9, 2.2}``.
    seed:
        Seed of the ``default_rng`` stream (sampling and the identifier
        permutation): an ``int`` of at least 0, or ``None`` for 128 bits
        from :class:`random.SystemRandom`.
    permute_identifiers:
        When ``True`` (default) the Zipf weight ranks are mapped to element
        identifiers through a random permutation, so that popular elements are
        spread over the identifier space rather than being 0, 1, 2, ...
    """

    name = "zipf"

    def __init__(
        self,
        n_elements: int,
        exponent: float,
        seed: Optional[int] = None,
        permute_identifiers: bool = True,
    ) -> None:
        super().__init__(n_elements, seed)
        self.exponent = float(exponent)
        self.permute_identifiers = permute_identifiers
        self._probabilities, self._cumulative = zipf_table(n_elements, self.exponent)
        seed = operator.index(random.SystemRandom().getrandbits(128) if seed is None else seed)
        if seed < 0:
            raise WorkloadError(f"Zipf seeds must be non-negative, got {seed}")
        # the generator state and the permutation: one kernel call, or PCG64
        self._kernel = zipf_kernel()
        if self._kernel is not None:
            self._pcg, self._identifier_of_rank = self._kernel.zipf_generator(
                seed, n_elements, permute_identifiers
            )
        else:
            self._pcg = PCG64(seed)
            self._identifier_of_rank = (
                self._pcg.permutation(n_elements) if permute_identifiers else None
            )

    def _new_rng(self) -> None:
        return None  # requests come from the default_rng stream only

    def _draw(self, count: int) -> Sequence[int]:
        """The next ``count`` identifiers: the kernel's ``array('q')``, or a list."""
        if self._kernel is not None:
            return self._kernel.zipf_draws(
                self._pcg, self._cumulative.buffer_info()[0], self.n_elements,
                self._identifier_of_rank, count,
            )
        return self._pcg.zipf(self._cumulative, self._identifier_of_rank, count)

    def generate(self, n_requests: int) -> List[ElementId]:
        """Return ``n_requests`` independent Zipf-distributed element identifiers."""
        self._check_length(n_requests)
        return list(self._draw(n_requests))

    def iter_requests(
        self, n_requests: int, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Sequence[ElementId]]:
        """Stream natively: the stream draws one variate per request, so
        chunked draws concatenate to exactly one full-size draw.  A chunk
        the kernel drew is its ``array('q')``, else a list."""
        self._check_length(n_requests)
        check_chunk_size(chunk_size)
        yield from map(self._draw, chunk_counts(n_requests, chunk_size))

    def to_spec(self) -> WorkloadSpec:
        return WorkloadSpec.create(
            "zipf",
            seed=self.seed,
            n_elements=self.n_elements,
            exponent=self.exponent,
            permute_identifiers=self.permute_identifiers,
        )

    def probability_of_rank(self, rank: int) -> float:
        """Return the sampling probability of the ``rank``-th most popular element."""
        if not 1 <= rank <= self.n_elements:
            raise WorkloadError(
                f"rank must lie in [1, {self.n_elements}], got {rank}"
            )
        return float(self._probabilities[rank - 1])

    def parameters(self):
        params = super().parameters()
        params["exponent"] = self.exponent
        params["permute_identifiers"] = self.permute_identifiers
        return params


@register_workload("zipf")
def _build_zipf(params: Dict[str, object], seed: Optional[int]) -> ZipfWorkload:
    return ZipfWorkload(
        int(params["n_elements"]),
        float(params["exponent"]),
        seed=seed,
        permute_identifiers=bool(params.get("permute_identifiers", True)),
    )

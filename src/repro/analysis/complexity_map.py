"""Trace-complexity map (temporal vs non-temporal complexity).

Figure 6 of the paper positions each corpus-derived trace on the *complexity
map* introduced by Avin, Ghobadi, Griner and Schmid ("On the complexity of
traffic traces and implications", SIGMETRICS 2020): a two-dimensional plot of
*temporal complexity* against *non-temporal complexity*, both estimated from
the sizes of compressed representations of the trace.

This module implements the compression-based estimators:

* the trace is serialised to bytes (fixed-width element identifiers);
* ``c_original`` is the compressed size of the trace itself;
* ``c_shuffled`` is the compressed size of a random permutation of the trace,
  which preserves frequencies but destroys temporal structure;
* ``c_uniform`` is the compressed size of an i.i.d. uniform trace over the same
  universe and of the same length, which has neither temporal nor frequency
  structure.

The *temporal complexity* is ``c_original / c_shuffled`` (1 means no temporal
structure beyond frequencies; smaller means more temporal structure), and the
*non-temporal complexity* is ``c_shuffled / c_uniform`` (1 means a uniform
frequency distribution; smaller means more skew).  Both are clipped to
``[0, 1]``.  These are the same quantities, up to normalisation constants, as
the ones used in the paper's Figure 6, and they land corpus-like traces in the
same qualitative region (moderate temporal, high non-temporal complexity).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import WorkloadError
from repro.types import ElementId

__all__ = ["ComplexityPoint", "trace_complexity"]


@dataclass(frozen=True)
class ComplexityPoint:
    """Position of a trace on the complexity map.

    Attributes
    ----------
    temporal_complexity:
        ``c_original / c_shuffled`` clipped to ``[0, 1]``.
    non_temporal_complexity:
        ``c_shuffled / c_uniform`` clipped to ``[0, 1]``.
    compressed_original, compressed_shuffled, compressed_uniform:
        The raw compressed byte sizes behind the two ratios.
    """

    temporal_complexity: float
    non_temporal_complexity: float
    compressed_original: int
    compressed_shuffled: int
    compressed_uniform: int


def _encode(sequence: Sequence[ElementId], width: int) -> bytes:
    return b"".join(int(element).to_bytes(width, "big") for element in sequence)


def _width_for(sequence: Sequence[ElementId]) -> int:
    maximum = max(sequence, default=0)
    width = 1
    while maximum >= 1 << (8 * width):
        width += 1
    return width


def trace_complexity(
    sequence: Sequence[ElementId],
    universe_size: Optional[int] = None,
    seed: int = 0,
    compression_level: int = 6,
) -> ComplexityPoint:
    """Return the complexity-map coordinates of ``sequence``.

    Parameters
    ----------
    sequence:
        The trace to analyse (must be non-empty).
    universe_size:
        Size of the element universe used for the uniform reference trace;
        defaults to the number of distinct elements in the trace.
    seed:
        Seed of the shuffling and of the uniform reference trace, so the
        estimate is reproducible.
    compression_level:
        zlib compression level (1-9).
    """
    if not sequence:
        raise WorkloadError("cannot compute the complexity of an empty trace")
    if universe_size is None:
        universe_size = len(set(sequence))
    if universe_size <= 0:
        raise WorkloadError(f"universe_size must be positive, got {universe_size}")

    rng = random.Random(seed)
    width = max(_width_for(sequence), _width_for([universe_size - 1]))

    original = list(sequence)
    shuffled = list(sequence)
    rng.shuffle(shuffled)
    uniform = [rng.randrange(universe_size) for _ in range(len(sequence))]

    c_original = len(zlib.compress(_encode(original, width), compression_level))
    c_shuffled = len(zlib.compress(_encode(shuffled, width), compression_level))
    c_uniform = len(zlib.compress(_encode(uniform, width), compression_level))

    temporal = min(1.0, c_original / c_shuffled) if c_shuffled else 1.0
    non_temporal = min(1.0, c_shuffled / c_uniform) if c_uniform else 1.0
    return ComplexityPoint(
        temporal_complexity=temporal,
        non_temporal_complexity=non_temporal,
        compressed_original=c_original,
        compressed_shuffled=c_shuffled,
        compressed_uniform=c_uniform,
    )

"""Bulk draws from a ``random.Random``, on the C kernel when that pays.

The request streams and the initial placements draw hundreds of thousands
of values from ``random.Random`` one Python call at a time.  Each helper
here returns exactly the values that loop returns, and leaves the generator
in exactly the state the loop leaves, but hands large enough draws to the
Mersenne Twister port of :mod:`repro.algorithms.cascade_kernel`.  The
request draws hand over what the kernel drew as they find it, an
``array('q')`` of requests or an ``array('d')`` of uniforms, where the loop
returns a list; :func:`shuffled_range` returns a list, as placements are.

The kernel draws only when all of these hold: ``rng`` is a plain
``random.Random`` (a subclass may override ``random`` or ``_randbelow``),
the kernel is loaded, its load-time check against ``random.Random`` passed,
and at least :data:`KERNEL_MIN_DRAWS` values are asked for.  Below that the
state copy in and out of the kernel (about 65 µs) costs more than the
Python loop saves.  :func:`seeded_kernel` applies the same rules to draws
the kernel makes from a bare ``int`` seed, as ``random.Random(seed)`` would:
the initial placements of :meth:`repro.core.state.TreeNetwork.with_random_placement`
and of the seeded trees (:func:`repro.algorithms.registry.seeded_serving`).
Those copy no generator state, so their floor is the lower
:data:`SEEDED_KERNEL_MIN_DRAWS`.

``random()`` draws (:func:`uniforms`, and the temporal repeat rule of
:func:`repeat_rule`, which the kernel runs on the draws as it makes them)
have a second way in that copies no state: ``rng.getrandbits(64 * count)``
leaves ``rng`` exactly where ``count`` calls of ``random()`` leave it, and
its 32-bit words, two a draw, are those calls' outputs.  The kernel turns
the words into the draws.  That pays from :data:`WORD_MIN_DRAWS` draws on;
from :data:`WORD_DRAWS_CROSSOVER` on, building the ``getrandbits`` integer
costs more than the state copy, which takes over.

Nothing here imports the kernel, or compiles it, before the first draw that
large.  The Zipf stream (``numpy.random.default_rng``'s, on a PCG64 port
checked against its pure-Python reference) is not drawn here: it has its
own gate, :func:`repro.workloads.zipf.zipf_kernel`.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.algorithms.cascade_kernel import CascadeKernel

__all__ = [
    "KERNEL_MIN_DRAWS",
    "SEEDED_KERNEL_MIN_DRAWS",
    "WORD_DRAWS_CROSSOVER",
    "WORD_MIN_DRAWS",
    "kernel_module",
    "randranges",
    "repeat_rule",
    "seeded_kernel",
    "shuffled_range",
    "uniforms",
]

#: The fewest values (requests, uniforms or shuffled positions) that one
#: call hands to the kernel.
KERNEL_MIN_DRAWS = 256

#: The fewest ``random()`` draws :func:`uniforms` and :func:`repeat_rule`
#: hand to the kernel.  Below :data:`WORD_DRAWS_CROSSOVER` they go as raw
#: words of one ``getrandbits`` call, with no generator state to copy, so
#: they pay from a few dozen draws on.  On a 2-vCPU x86-64 container
#: (Python 3.11), the Python loop against the word path: 1.5 vs 2.0 µs at
#: 16 draws, 4.2 vs 3.5 µs at 48.
WORD_MIN_DRAWS = 32

#: The fewest ``random()`` draws that copy the generator state into the
#: kernel instead of taking raw words.  On the same container, words
#: against a state copy: 40 vs 61 µs at 1,536 draws, 65 vs 65 µs at 2,048,
#: 108 vs 85 µs at 4,096 (the ``getrandbits`` integer grows with the count,
#: the state copy does not).
WORD_DRAWS_CROSSOVER = 2_048

#: The fewest values one seeded draw (:func:`seeded_kernel`) hands to the
#: kernel.  On a 2-vCPU x86-64 container (Python 3.11), kernel vs Python: a
#: placement miss 31 vs 137 µs at 255 nodes and 21 vs 30 µs at 15.
SEEDED_KERNEL_MIN_DRAWS = 16


def seeded_kernel(seed, count: int, bound: int = 1) -> Optional["CascadeKernel"]:
    """The loaded kernel if it may draw ``count`` values below ``bound`` from ``seed``.

    ``seed`` must be an ``int`` (not ``None``, a bool or an ``int``
    subclass): the kernel keys its generator from the seed's value exactly
    as ``random.Random(seed)`` does.
    """
    if type(seed) is not int or count < SEEDED_KERNEL_MIN_DRAWS:
        return None
    return _checked_kernel(bound)


def _word_kernel(rng, count: int) -> Optional["CascadeKernel"]:
    """The loaded kernel if it may make ``count`` of ``rng``'s ``random()`` draws."""
    if type(rng) is not random.Random or count < WORD_MIN_DRAWS:
        return None
    return _checked_kernel(1)


def _kernel(rng, count: int, bound: int = 1) -> Optional["CascadeKernel"]:
    """The loaded kernel if it may draw ``count`` values below ``bound`` from ``rng``."""
    if type(rng) is not random.Random or count < KERNEL_MIN_DRAWS:
        return None
    return _checked_kernel(bound)


def _checked_kernel(bound: int) -> Optional["CascadeKernel"]:
    """The loaded kernel if its self-check passed and ``bound`` fits its draws."""
    cascade_kernel = kernel_module()
    if type(bound) is not int or not 1 <= bound < cascade_kernel.RNG_BOUND_LIMIT:
        return None
    kernel = cascade_kernel.load()
    if kernel is None or not kernel.rng_port_matches:
        return None
    return kernel


@lru_cache(maxsize=None)
def kernel_module():
    """:mod:`repro.algorithms.cascade_kernel`, imported on the first call only
    (an import statement in a function runs on every call)."""
    from repro.algorithms import cascade_kernel

    return cascade_kernel


def randranges(rng, n: int, count: int) -> Sequence[int]:
    """``count`` draws of ``rng.randrange(n)``: a list, or the kernel's ``array('q')``."""
    kernel = _kernel(rng, count, n)
    if kernel is None:
        return [rng.randrange(n) for _ in range(count)]
    return kernel.randranges(rng, n, count)


def uniforms(rng, count: int) -> Sequence[float]:
    """``count`` draws of ``rng.random()``: a list, or an ``array('d')``."""
    kernel = _word_kernel(rng, count)
    if kernel is None:
        rng_random = rng.random
        return [rng_random() for _ in range(count)]
    if count < WORD_DRAWS_CROSSOVER:
        return kernel.word_uniforms(rng, count)
    return kernel.uniforms(rng, count)


def repeat_rule(
    rng, values: Sequence[int], start: int, previous: int, probability: float,
    in_place: bool = False,
) -> Sequence[int]:
    """``values`` after the temporal repeat rule from position ``start`` on.

    In order, each position ``i >= start`` draws one ``rng.random()`` and,
    when the draw is below ``probability``, takes the value before it
    (``previous`` for ``values[start]``).  The kernel runs the rule on an
    ``array('q')``, which it returns, when it may draw the uniforms (see
    :func:`uniforms`), ``values`` and ``previous`` are ints and
    ``probability`` is a float or an int; otherwise the result is a list.
    ``values`` itself is left as it is, unless ``in_place`` is true and it
    is an ``array('q')`` (a chunk its caller owns, fresh from a kernel
    draw): the kernel then rewrites it where it lies.
    """
    count = len(values) - start
    kernel = _word_kernel(rng, count)
    if kernel is not None and type(previous) is int and type(probability) in (float, int):
        if in_place and type(values) is array and values.typecode == "q":
            buffer = values
        else:
            try:
                buffer = array("q", values)
            except (TypeError, OverflowError):
                buffer = None
        if buffer is not None:
            words = count < WORD_DRAWS_CROSSOVER
            kernel.repeat(rng, buffer, start, previous, float(probability), words)
            return buffer
    result = list(values)
    for index, draw in enumerate(uniforms(rng, count), start=start):
        if draw < probability:
            result[index] = previous
        previous = result[index]
    return result


def shuffled_range(rng, n: int) -> List[int]:
    """``list(range(n))`` after ``rng.shuffle``."""
    kernel = _kernel(rng, n, n)
    if kernel is None:
        placement = list(range(n))
        rng.shuffle(placement)
        return placement
    return kernel.shuffled_range(rng, n).tolist()

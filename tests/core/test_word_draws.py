"""``uniforms`` and the temporal repeat rule on raw Mersenne Twister words.

:func:`repro.core.draws.uniforms` and :func:`repro.core.draws.repeat_rule`
hand ``WORD_MIN_DRAWS`` to ``WORD_DRAWS_CROSSOVER - 1`` draws to the kernel
as the words of one ``getrandbits`` call, and larger draws with the
generator state copied in and out.  These tests pin both against the
``random()`` loop (values and the generator state after), pin that a
``random.Random`` subclass never leaves the loop, and pin that chunked
temporal and combined-locality streams equal their materialised twins at
chunk sizes on both sides of the floors.  What the kernel ran the repeat
rule on comes back as its ``array('q')``; the loop returns a list.
"""

from __future__ import annotations

import itertools
import random
from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.core import draws
from repro.core.draws import WORD_DRAWS_CROSSOVER, WORD_MIN_DRAWS
from repro.workloads import CombinedLocalityWorkload, TemporalWorkload

COUNTS = sorted(
    {0, 1, 2, 119, 255, 256, WORD_DRAWS_CROSSOVER - 1, WORD_DRAWS_CROSSOVER,
     WORD_DRAWS_CROSSOVER + 1, 4_096}
)
SEEDS = [0, 5, 2**70 + 3, 123456789]
PROBABILITIES = [0, 0.5, 1.0]


@pytest.fixture(params=["kernel", "no-kernel"])
def kernel_calls(request, monkeypatch):
    """The kernel draw methods called with the kernel on; ``None`` with it off."""
    if request.param == "no-kernel":
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        return None
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the kernel's draws need a C compiler and a matching port")
    calls = []
    for name in ("uniforms", "word_uniforms", "repeat"):

        def counting(*arguments, _draw=getattr(loaded, name), _name=name):
            calls.append((_name, arguments[-1] if _name == "repeat" else None))
            return _draw(*arguments)

        monkeypatch.setattr(loaded, name, counting)
    return calls


def expected_path(count):
    """The kernel call :mod:`repro.core.draws` makes for ``count`` draws."""
    if count < WORD_MIN_DRAWS:
        return None
    return "words" if count < WORD_DRAWS_CROSSOVER else "state"


def reference_repeat(rng, values, start, previous, probability):
    result = list(values)
    for index in range(start, len(result)):
        if rng.random() < probability:
            result[index] = previous
        previous = result[index]
    return result


@pytest.mark.parametrize("count", COUNTS)
def test_uniforms_equal_the_random_loop(kernel_calls, count):
    for seed in SEEDS:
        drawn_rng, loop_rng = random.Random(seed), random.Random(seed)
        drawn_rng.random()  # start mid-state: the index is not 624
        loop_rng.random()
        drawn = draws.uniforms(drawn_rng, count)
        assert list(drawn) == [loop_rng.random() for _ in range(count)]
        assert drawn_rng.getstate() == loop_rng.getstate()
        assert drawn_rng.random() == loop_rng.random()
    if kernel_calls is not None:
        path = expected_path(count)
        names = {"words": "word_uniforms", "state": "uniforms", None: None}
        assert {name for name, _ in kernel_calls} <= {names[path]}
        assert bool(kernel_calls) == (path is not None)


@pytest.mark.parametrize("count", COUNTS)
def test_repeat_rule_equals_the_random_loop(kernel_calls, count):
    drawn_type = list if kernel_calls is None or expected_path(count) is None else array
    for seed, probability in itertools.product(SEEDS, PROBABILITIES):
        values = list(random.Random(seed).choices(range(50), k=count + 1))
        kept = list(values)
        drawn_rng, loop_rng = random.Random(seed), random.Random(seed)
        drawn = draws.repeat_rule(drawn_rng, values, 1, values[0], probability)
        assert list(drawn) == reference_repeat(loop_rng, values, 1, values[0], probability)
        assert type(drawn) is drawn_type and values == kept
        assert drawn_rng.getstate() == loop_rng.getstate()
        # from position 0 the value before the chunk comes from outside it
        drawn = draws.repeat_rule(drawn_rng, values[1:], 0, -7, probability)
        assert list(drawn) == reference_repeat(loop_rng, values[1:], 0, -7, probability)
        assert type(drawn) is drawn_type
        assert drawn_rng.getstate() == loop_rng.getstate()
    if kernel_calls is not None:
        path = expected_path(count)
        assert {words for _, words in kernel_calls} <= {path == "words"}
        assert bool(kernel_calls) == (path is not None)


def test_repeat_rule_keeps_values_the_kernel_cannot_hold():
    """Non-int values and an exotic probability stay on the Python loop."""
    values = [f"e{index}" for index in range(300)]
    drawn_rng, loop_rng = random.Random(3), random.Random(3)
    assert draws.repeat_rule(drawn_rng, values, 1, values[0], 0.5) == reference_repeat(
        loop_rng, values, 1, values[0], 0.5
    )
    from fractions import Fraction

    numbers = list(range(300))
    assert draws.repeat_rule(drawn_rng, numbers, 0, -1, Fraction(1, 3)) == (
        reference_repeat(loop_rng, numbers, 0, -1, Fraction(1, 3))
    )
    assert drawn_rng.getstate() == loop_rng.getstate()


class _Subclass(random.Random):
    """A subclass whose ``random`` is its own: raw words would not be its draws."""

    def random(self):
        return 1.0 - super().random()


@pytest.mark.parametrize("count", [WORD_MIN_DRAWS, 119, WORD_DRAWS_CROSSOVER + 1])
def test_a_random_subclass_never_takes_the_kernel(monkeypatch, count):
    loaded = cascade_kernel.load()
    if loaded is not None:
        for name in ("uniforms", "word_uniforms", "repeat"):

            def refuse(*arguments, _name=name):
                raise AssertionError(f"{_name} drew for a random.Random subclass")

            monkeypatch.setattr(loaded, name, refuse)
    drawn_rng, loop_rng = _Subclass(9), _Subclass(9)
    assert list(draws.uniforms(drawn_rng, count)) == [loop_rng.random() for _ in range(count)]
    values = list(range(count + 1))
    assert draws.repeat_rule(drawn_rng, values, 1, 0, 0.5) == reference_repeat(
        loop_rng, values, 1, 0, 0.5
    )
    assert drawn_rng.getstate() == loop_rng.getstate()


STREAM_FACTORIES = {
    "temporal": lambda p: TemporalWorkload(1_023, p, seed=17),
    "combined-locality": lambda p: CombinedLocalityWorkload(1_023, 1.4, p, seed=17),
}
@pytest.mark.parametrize("chunk_size", [1, 97, 4_096])
@pytest.mark.parametrize("probability", PROBABILITIES)
@pytest.mark.parametrize("kind", sorted(STREAM_FACTORIES))
def test_chunked_stream_equals_materialised(kernel_calls, kind, probability, chunk_size):
    n_requests = 5_000
    factory = STREAM_FACTORIES[kind]
    materialised = factory(probability).generate(n_requests)
    chunks = list(factory(probability).iter_requests(n_requests, chunk_size))
    assert [len(chunk) for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    # a chunk is the kernel's array('q') exactly when the kernel ran the rule
    for position, chunk in enumerate(chunks):
        draws_made = len(chunk) - (position == 0)
        ran = kernel_calls is not None and expected_path(draws_made) is not None
        assert type(chunk) is (array if ran else list)
    streamed = list(itertools.chain.from_iterable(chunks))
    assert streamed == materialised
    if probability == 1.0:  # every draw is below 1: the first request repeats
        assert streamed == streamed[:1] * n_requests


@pytest.mark.parametrize("entry_point", ["word_uniforms", "repeat"])
def test_a_diverging_word_draw_fails_the_draws_check(monkeypatch, entry_point):
    loaded = cascade_kernel.load()
    if loaded is None:
        pytest.skip("no cascade kernel")
    original = getattr(cascade_kernel.CascadeKernel, entry_point)

    def diverging(self, rng, values, *arguments):
        drawn = original(self, rng, values, *arguments)
        target = drawn if entry_point == "word_uniforms" else values
        target[-1] = target[-1] + 1
        return drawn

    monkeypatch.setattr(cascade_kernel.CascadeKernel, entry_point, diverging)
    kernel = cascade_kernel.CascadeKernel(loaded.path)
    assert kernel.rng_checks["draws"] is False
    assert not kernel.rng_port_matches and not kernel.serves("random_push")

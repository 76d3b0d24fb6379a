"""Streaming equals materialised across the kernel's draw threshold.

:mod:`repro.core.draws` hands a draw of at least ``KERNEL_MIN_DRAWS`` values
(``WORD_MIN_DRAWS`` for ``random()`` draws and the repeat rule) to the C
kernel's Mersenne Twister and leaves shorter ones on the ``random`` loops,
so a chunked stream mixes both whenever its chunks straddle the threshold.  These tests pin that ``iter_requests(n, chunk)`` still
concatenates to ``generate(n)`` at chunk sizes around the threshold, with
the kernel on and off, that a chunk is the kernel's ``array('q')`` exactly
when the kernel drew it, and that both equal the stream the ``random``
loops alone draw.
"""

from __future__ import annotations

from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.core.draws import KERNEL_MIN_DRAWS, WORD_MIN_DRAWS
from repro.workloads import CombinedLocalityWorkload, TemporalWorkload, UniformWorkload

N_ELEMENTS = 1023
N_REQUESTS = 20_500
CHUNK_SIZES = [1, KERNEL_MIN_DRAWS - 1, KERNEL_MIN_DRAWS, KERNEL_MIN_DRAWS + 1, 20_000]

FACTORIES = {
    "uniform": lambda: UniformWorkload(N_ELEMENTS, seed=13),
    "temporal": lambda: TemporalWorkload(N_ELEMENTS, 0.5, seed=13),
    "combined-locality": lambda: CombinedLocalityWorkload(
        N_ELEMENTS, 1.3, 0.5, seed=13
    ),
}


@pytest.fixture(scope="module")
def python_streams():
    """``generate(N_REQUESTS)`` per kind, drawn by the ``random`` loops alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade_kernel, "load", lambda: None)
        return {kind: factory().generate(N_REQUESTS) for kind, factory in FACTORIES.items()}


@pytest.fixture(params=["kernel", "no-kernel"])
def kernel_draws(request, monkeypatch):
    """The kernel draw calls made with the kernel on; ``None`` with it off."""
    if request.param == "no-kernel":
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
        return None
    loaded = cascade_kernel.load()
    if loaded is None or not loaded.rng_port_matches:
        pytest.skip("the kernel's draws need a C compiler and a matching port")
    calls = []
    for name in ("randranges", "uniforms", "word_uniforms", "repeat"):

        def counting(*arguments, _draw=getattr(loaded, name), _name=name):
            calls.append(_name)
            return _draw(*arguments)

        monkeypatch.setattr(loaded, name, counting)
    return calls


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_generate_matches_the_random_loops(kind, kernel_draws, python_streams):
    assert FACTORIES[kind]().generate(N_REQUESTS) == python_streams[kind]
    if kernel_draws is not None:
        assert kernel_draws


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_chunked_stream_equals_generate(kind, chunk_size, kernel_draws, python_streams):
    chunks = list(FACTORIES[kind]().iter_requests(N_REQUESTS, chunk_size))
    streamed = [element for chunk in chunks for element in chunk]
    assert streamed == python_streams[kind]
    assert [len(chunk) for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    # every chunk of at least KERNEL_MIN_DRAWS requests draws some values
    # in C; the repeat rule's draws go there from WORD_MIN_DRAWS on
    floor = KERNEL_MIN_DRAWS if kind == "uniform" else WORD_MIN_DRAWS
    if kernel_draws is not None:
        assert bool(kernel_draws) == (chunk_size >= floor)
    drew = kernel_draws is not None and chunk_size >= floor
    assert type(chunks[0]) is (array if drew else list)

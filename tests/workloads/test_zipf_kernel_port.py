"""The kernel's port of ``numpy.random.default_rng`` and the Zipf draws on it.

With NumPy importable, a ``ZipfWorkload`` with an ``int`` seed of at least
0 builds its generator state and identifier permutation in one kernel call
and draws each chunk in another, once the port has passed its check against
NumPy (run on first use).  These tests pin every draw of that port
to NumPy itself (``permutation``, ``random(k)`` and the shared-CDF Zipf
chunks), and pin that every way off the port (``seed=None``, a failed
load-time check, no kernel, no NumPy) draws the NumPy path's stream or, for
no NumPy, never touches the port.  The port's chunks are its
``array('q')`` buffers; the NumPy generator's are lists.
"""

from __future__ import annotations

import itertools
import shutil
from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.core import backend as backend_mod
from repro.workloads import ZipfWorkload
from repro.workloads.zipf import zipf_kernel, zipf_table

SIZES = [255, 1_023, 4_095, 65_535]
EXPONENTS = [1.001, 1.4, 2.2]
SEEDS = [0, 1, 2**32, 2**63 - 1, 2**64 + 5]
COUNTS = [1, 120, 4_096]

HAS_COMPILER = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
needs_numpy = pytest.mark.skipif(not backend_mod.HAS_NUMPY, reason="needs NumPy")


@pytest.fixture
def port():
    """The loaded kernel, when its Zipf port passed its check against NumPy."""
    loaded = cascade_kernel.load()
    if loaded is None:
        if HAS_COMPILER:
            pytest.fail("a C compiler is on PATH but the cascade kernel did not load")
        pytest.skip("no C compiler on PATH")
    if not loaded.zipf_port_matches:
        pytest.fail("the kernel's PCG64 port disagrees with numpy.random.default_rng")
    return loaded


def numpy_chunks(n_elements, exponent, seed, permute):
    """The NumPy path's chunks of ``COUNTS`` requests, in order, as int64 arrays."""
    np = backend_mod.np
    cdf = zipf_table(n_elements, exponent)[1]
    rng = np.random.default_rng(seed)
    identifiers = rng.permutation(n_elements) if permute else np.arange(n_elements)
    return [
        identifiers[cdf.searchsorted(rng.random(count), side="right")]
        for count in COUNTS
    ]


def workload_chunks(workload):
    """``COUNTS`` requests drawn in turn from ``workload``, one chunk each."""
    return [next(workload.iter_requests(count, count)) for count in COUNTS]


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_port_draws_numpy_permutation_and_random(port, n_elements, seed):
    np = backend_mod.np
    expected = np.random.default_rng(seed)
    state, identifiers = port.zipf_generator(seed, n_elements, True)
    assert identifiers.tolist() == expected.permutation(n_elements).tolist()
    for count in COUNTS:
        assert port.pcg64_uniforms(state, count).tolist() == expected.random(count).tolist()
    state, identifiers = port.zipf_generator(seed, n_elements, False)
    assert identifiers is None
    assert port.pcg64_uniforms(state, 5).tolist() == (
        np.random.default_rng(seed).random(5).tolist()
    )


@needs_numpy
@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_zipf_chunks_equal_the_numpy_stream(port, n_elements, exponent):
    np = backend_mod.np
    for seed, permute in itertools.product(SEEDS, (True, False)):
        expected = numpy_chunks(n_elements, exponent, seed, permute)
        workload = ZipfWorkload(n_elements, exponent, seed=seed, permute_identifiers=permute)
        assert workload._kernel is port
        chunks = workload_chunks(workload)
        assert [list(chunk) for chunk in chunks] == [
            reference.tolist() for reference in expected
        ]
        assert all(type(chunk) is array and chunk.typecode == "q" for chunk in chunks)
        generated = ZipfWorkload(
            n_elements, exponent, seed=seed, permute_identifiers=permute
        ).generate(sum(COUNTS))
        assert generated == np.concatenate(expected).tolist()


def assert_numpy_path(workload, seed):
    """``workload`` draws from a NumPy generator, and what the port would draw."""
    assert workload._kernel is None and workload._np_rng is not None
    expected = numpy_chunks(workload.n_elements, workload.exponent, seed, True)
    chunks = workload_chunks(workload)
    assert chunks == [reference.tolist() for reference in expected]
    assert all(type(chunk) is list for chunk in chunks)


@needs_numpy
def test_seed_none_takes_the_numpy_generator(port, monkeypatch):
    np = backend_mod.np
    seeds = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    workload = ZipfWorkload(1_023, 1.4, seed=None)
    assert seeds == [None]
    assert workload._kernel is None and workload._np_rng is not None
    assert zipf_kernel(None) is None


@needs_numpy
@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seeds_raise_as_numpy_does(port, seed):
    with pytest.raises(ValueError):
        backend_mod.np.random.default_rng(seed)
    assert zipf_kernel(seed) is None
    with pytest.raises(ValueError):
        ZipfWorkload(255, 1.4, seed=seed)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_failed_zipf_check_takes_the_numpy_generator(port, monkeypatch, seed):
    monkeypatch.setattr(cascade_kernel.CascadeKernel, "_zipf_matches", lambda self: False)
    failed = cascade_kernel.CascadeKernel(port.path)
    assert "zipf" not in failed.rng_checks  # checked on first use, not at load
    assert failed.zipf_port_matches is False and failed.rng_checks["zipf"] is False
    # the Zipf check gates only the Zipf draws
    assert failed.rng_port_matches and failed.serves("random_push")
    monkeypatch.setattr(cascade_kernel, "load", lambda: failed)
    assert zipf_kernel(seed) is None
    assert_numpy_path(ZipfWorkload(1_023, 1.4, seed=seed), seed)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_hidden_kernel_takes_the_numpy_generator(monkeypatch, seed):
    monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    assert zipf_kernel(seed) is None
    assert_numpy_path(ZipfWorkload(1_023, 1.4, seed=seed), seed)


def test_no_numpy_leg_never_takes_the_port(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
    assert zipf_kernel(5) is None
    loaded = cascade_kernel.load()
    if loaded is not None:
        calls = []
        for name in ("zipf_generator", "zipf_draws", "pcg64_uniforms"):

            def spying(*arguments, _name=name):
                calls.append(_name)
                raise AssertionError(f"{_name} called without NumPy")

            monkeypatch.setattr(loaded, name, spying)
        unchecked = cascade_kernel.CascadeKernel(loaded.path)
        assert unchecked.zipf_port_matches is False
        assert "zipf" not in unchecked.rng_checks
    workload = ZipfWorkload(1_023, 1.4, seed=5)
    chunks = list(workload.iter_requests(300, 120))
    assert workload._kernel is None and workload._np_rng is None
    assert [len(chunk) for chunk in chunks] == [120, 120, 60]
    if loaded is not None:
        assert calls == []


@needs_numpy
@pytest.mark.parametrize("entry_point", ["zipf_generator", "zipf_draws", "pcg64_uniforms"])
def test_a_diverging_zipf_entry_point_fails_only_the_zipf_check(
    port, monkeypatch, entry_point
):
    original = getattr(cascade_kernel.CascadeKernel, entry_point)

    def diverging(self, *arguments):
        drawn = original(self, *arguments)
        out = drawn[1] if entry_point == "zipf_generator" else drawn
        out[-1] = out[0] if entry_point != "pcg64_uniforms" else out[-1] / 2
        return drawn

    monkeypatch.setattr(cascade_kernel.CascadeKernel, entry_point, diverging)
    kernel = cascade_kernel.CascadeKernel(port.path)
    assert kernel.zipf_port_matches is False
    assert kernel.rng_port_matches

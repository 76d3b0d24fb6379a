"""The Zipf stream: ``numpy.random.default_rng(seed)``'s, in every environment.

The stream has two implementations: the kernel's C port of ``SeedSequence``
and PCG64, and its pure-Python reference :class:`repro.workloads.zipf.PCG64`,
which draws when no kernel is loaded and which the port is checked against
before its first use.  These tests pin both to values taken from NumPy, so
they run unchanged where NumPy is not importable; pin the port to the
reference on more seeds and sizes; and pin that every way off the port (a
failed check, no kernel) draws the same identifiers.  The port's chunks are
its ``array('q')`` buffers; the reference's are lists.  Where NumPy is
importable, both are also compared with ``default_rng`` itself.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import shutil
from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.exceptions import WorkloadError
from repro.workloads import ZipfWorkload
from repro.workloads.zipf import PCG64, zipf_kernel, zipf_table

try:
    import numpy
except ImportError:
    numpy = None

SIZES = [255, 1_023, 4_095, 65_535]
EXPONENTS = [1.001, 1.4, 2.2]
SEEDS = [0, 1, 2**32, 2**63 - 1, 2**64 + 5, 2**73 + 12_345]
COUNTS = [1, 120, 4_096]

HAS_COMPILER = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
needs_numpy = pytest.mark.skipif(numpy is None, reason="needs NumPy")

#: Taken from NumPy 2.4, per seed of ``default_rng(seed)``, each from a
#: fresh generator: ``bit_generator.random_raw(3)``; ``permutation(5)``;
#: ``permutation(1023)`` (its first six values and the sha256 of its
#: comma-joined values) and then ``random(3)`` (as ``float.hex``); the
#: identifiers of the first 10 requests of ``ZipfWorkload(1023, 1.4, seed)``;
#: and the first 10 of ``ZipfWorkload(255, 2.2, seed, permute_identifiers=False)``.
PINNED = {
    0: {
        "next64": [11749869230777074271, 4976686463289251617, 755828109848996024],
        "permutation_5": [2, 4, 3, 0, 1],
        "permutation_1023_head": [84, 752, 296, 982, 863, 470],
        "permutation_1023_sha256": "c7aa79887f3bd9ff4b580003fd6e42fd1c702ee854f440c364ddedbf7b39ce26",
        "random": ["0x1.1f884adfbe0a2p-1", "0x1.31d7491b5799ep-1", "0x1.b785e59b6f638p-1"],
        "zipf_1023_1.4": [982, 863, 8, 752, 519, 296, 901, 643, 837, 951],
        "ranks_255_2.2": [0, 0, 0, 0, 1, 4, 0, 1, 0, 5],
    },
    1: {
        "next64": [9441442522235856127, 17532960557476522086, 2659275481604167885],
        "permutation_5": [4, 0, 1, 2, 3],
        "permutation_1023_head": [69, 67, 662, 324, 637, 559],
        "permutation_1023_sha256": "ff3c35baecfbc64ecd07e4a7179e3d972a0cde01cb46cb7c87be961a717a0e9a",
        "random": ["0x1.21622b9f81000p-5", "0x1.26495d1ebbc30p-5", "0x1.6fbdc4c4f2990p-5"],
        "zipf_1023_1.4": [69, 69, 69, 476, 69, 69, 547, 69, 208, 67],
        "ranks_255_2.2": [0, 6, 0, 6, 0, 0, 2, 0, 0, 0],
    },
    2**32: {
        "next64": [16412783775159424549, 10277383025879800780, 14774146505460541886],
        "permutation_5": [1, 4, 3, 0, 2],
        "permutation_1023_head": [786, 934, 565, 937, 116, 89],
        "permutation_1023_sha256": "9efce22158f9da3eee59470b65aee0485c8c7eac191ad030e6045407633c2b91",
        "random": ["0x1.2b56564732710p-3", "0x1.ecf7b94dc01aep-1", "0x1.045b13ec8b7aep-2"],
        "zipf_1023_1.4": [786, 805, 786, 937, 786, 786, 786, 937, 704, 894],
        "ranks_255_2.2": [3, 0, 1, 7, 0, 0, 1, 0, 1, 0],
    },
    2**64 + 5: {
        "next64": [13699624189639919438, 7212933818401888033, 12639912000726136506],
        "permutation_5": [4, 0, 2, 3, 1],
        "permutation_1023_head": [433, 225, 966, 596, 733, 600],
        "permutation_1023_sha256": "26839f6fe0f1a13d83b074a5277ac8abf22f1f4d6de3bdda1f3f3b43e6149c63",
        "random": ["0x1.fc7d5dca38880p-6", "0x1.d1106a8dfa9efp-1", "0x1.187874d150728p-4"],
        "zipf_1023_1.4": [433, 564, 433, 966, 966, 433, 225, 433, 966, 269],
        "ranks_255_2.2": [1, 0, 1, 0, 9, 2, 0, 0, 0, 1],
    },
}


@pytest.fixture
def port():
    """The loaded kernel, when its Zipf port passed its check."""
    loaded = cascade_kernel.load()
    if loaded is None:
        if HAS_COMPILER:
            pytest.fail("a C compiler is on PATH but the cascade kernel did not load")
        pytest.skip("no C compiler on PATH")
    if not loaded.zipf_port_matches:
        pytest.fail("the kernel's PCG64 port disagrees with its Python reference")
    return loaded


@pytest.fixture
def no_kernel(monkeypatch):
    monkeypatch.setattr(cascade_kernel, "load", lambda: None)


def check_pinned(permutation, uniforms, pinned):
    """``permutation(n)`` (fresh generators) and ``random(3)`` after
    ``permutation(1023)`` against ``pinned``."""
    assert permutation(1)[0] == [0]
    assert permutation(5)[0] == pinned["permutation_5"]
    drawn, after = permutation(1_023)
    assert drawn[:6] == pinned["permutation_1023_head"]
    joined = ",".join(map(str, drawn)).encode()
    assert hashlib.sha256(joined).hexdigest() == pinned["permutation_1023_sha256"]
    assert [value.hex() for value in uniforms(after, 3)] == pinned["random"]


def check_pinned_workloads(pinned, seed):
    assert list(ZipfWorkload(1_023, 1.4, seed=seed).generate(10)) == pinned["zipf_1023_1.4"]
    unpermuted = ZipfWorkload(255, 2.2, seed=seed, permute_identifiers=False)
    assert list(next(unpermuted.iter_requests(10, 10))) == pinned["ranks_255_2.2"]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_reference_draws_the_pinned_stream(no_kernel, seed):
    pinned = PINNED[seed]
    reference = PCG64(seed)
    assert [reference.next64() for _ in range(3)] == pinned["next64"]

    def permutation(n):
        generator = PCG64(seed)
        return generator.permutation(n), generator

    check_pinned(permutation, lambda generator, count: generator.random(count), pinned)
    workload = ZipfWorkload(1_023, 1.4, seed=seed)
    assert workload._kernel is None and type(workload._pcg) is PCG64
    check_pinned_workloads(pinned, seed)


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_port_draws_the_pinned_stream(port, seed):
    pinned = PINNED[seed]
    state = port.zipf_generator(seed, 0, False)[0]
    assert port.pcg64_uniforms(state, 3).tolist() == [
        (output >> 11) * 2.0**-53 for output in pinned["next64"]
    ]

    def permutation(n):
        state, identifiers = port.zipf_generator(seed, n, True)
        return identifiers.tolist(), state

    check_pinned(permutation, lambda state, count: port.pcg64_uniforms(state, count).tolist(), pinned)
    assert ZipfWorkload(1_023, 1.4, seed=seed)._kernel is port
    check_pinned_workloads(pinned, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_port_draws_the_reference_stream(port, n_elements, seed):
    reference = PCG64(seed)
    state, identifiers = port.zipf_generator(seed, n_elements, True)
    assert identifiers.tolist() == reference.permutation(n_elements)
    for count in COUNTS:
        assert port.pcg64_uniforms(state, count).tolist() == reference.random(count)
    fresh = PCG64(seed)
    assert port.zipf_generator(seed, n_elements, False)[0].tolist() == [
        fresh.state >> 64, fresh.state & (2**64 - 1), fresh.inc >> 64, fresh.inc & (2**64 - 1), 0, 0,
    ]


def workload_chunks(workload):
    """``COUNTS`` requests drawn in turn from ``workload``, one chunk each."""
    return [next(workload.iter_requests(count, count)) for count in COUNTS]


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_port_chunks_equal_the_reference_chunks(port, monkeypatch, n_elements, exponent):
    for seed, permute in itertools.product(SEEDS, (True, False)):
        workload = ZipfWorkload(n_elements, exponent, seed=seed, permute_identifiers=permute)
        assert workload._kernel is port
        chunks = workload_chunks(workload)
        assert all(type(chunk) is array and chunk.typecode == "q" for chunk in chunks)
        with monkeypatch.context() as hidden:
            hidden.setattr(cascade_kernel, "load", lambda: None)
            reference = ZipfWorkload(n_elements, exponent, seed=seed, permute_identifiers=permute)
            expected = workload_chunks(reference)
        assert all(type(chunk) is list for chunk in expected)
        assert [chunk.tolist() for chunk in chunks] == expected


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_reference_is_default_rng(seed):
    expected = numpy.random.default_rng(seed)
    reference = PCG64(seed)
    assert reference.permutation(70_000) == expected.permutation(70_000).tolist()
    assert reference.random(2_000) == expected.random(2_000).tolist()
    assert reference.permutation(7) == expected.permutation(7).tolist()


@needs_numpy
@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_chunks_equal_the_numpy_stream(n_elements, exponent, no_kernel):
    cdf = numpy.asarray(zipf_table(n_elements, exponent)[1])
    for seed in SEEDS:
        rng = numpy.random.default_rng(seed)
        identifiers = rng.permutation(n_elements)
        expected = [
            identifiers[cdf.searchsorted(rng.random(count), side="right")].tolist()
            for count in COUNTS
        ]
        assert workload_chunks(ZipfWorkload(n_elements, exponent, seed=seed)) == expected


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_failed_zipf_check_takes_the_reference(port, monkeypatch, seed):
    monkeypatch.setattr(cascade_kernel.CascadeKernel, "_zipf_matches", lambda self: False)
    failed = cascade_kernel.CascadeKernel(port.path)
    assert "zipf" not in failed.rng_checks  # checked on first use, not at load
    assert failed.zipf_port_matches is False and failed.rng_checks["zipf"] is False
    # the Zipf check gates only the Zipf draws
    assert failed.rng_port_matches and failed.serves("random_push")
    monkeypatch.setattr(cascade_kernel, "load", lambda: failed)
    assert zipf_kernel() is None
    workload = ZipfWorkload(1_023, 1.4, seed=seed)
    assert workload._kernel is None
    chunks = workload_chunks(workload)
    assert all(type(chunk) is list for chunk in chunks)
    monkeypatch.setattr(cascade_kernel, "load", lambda: port)
    assert chunks == [chunk.tolist() for chunk in workload_chunks(ZipfWorkload(1_023, 1.4, seed=seed))]


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


@pytest.mark.parametrize("kernel_loaded", [True, False])
@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seeds_raise(monkeypatch, kernel_loaded, seed):
    if not kernel_loaded:
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    with pytest.raises(WorkloadError):
        ZipfWorkload(255, 1.4, seed=seed)


@pytest.mark.parametrize("kernel_loaded", [True, False])
def test_seed_none_draws_128_system_bits(monkeypatch, kernel_loaded):
    if not kernel_loaded:
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    requested = []

    def getrandbits(self, bits):
        requested.append(bits)
        return 2**127 + 9

    monkeypatch.setattr(random.SystemRandom, "getrandbits", getrandbits)
    unseeded = ZipfWorkload(1_023, 1.4, seed=None)
    assert requested == [128]
    assert unseeded.seed is None and unseeded.to_spec().seed is None
    seeded = ZipfWorkload(1_023, 1.4, seed=2**127 + 9)
    assert type(unseeded._pcg) is type(seeded._pcg)
    assert unseeded._kernel is seeded._kernel
    assert list(unseeded.generate(300)) == list(seeded.generate(300))

"""The shared Zipf table and the samplers drawn from it.

``zipf_table(n, a)`` builds the probability vector and its CDF once per
``(n, a)``.  The NumPy sampler draws a chunk as
``cdf.searchsorted(rng.random(count), side="right")``; these tests pin that
to ``Generator.choice(n, count, p=…)``, the draw it replaces, and pin a
short vector of the NumPy-less sampler, whose stream must not move.
"""

from __future__ import annotations

import itertools
from array import array

import pytest

from repro.core import backend as backend_mod
from repro.workloads import CombinedLocalityWorkload, ZipfWorkload
from repro.workloads.zipf import zipf_probabilities, zipf_table

SIZES = [255, 1_023, 4_095, 65_535]
EXPONENTS = [1.001, 1.4, 1.6, 2.2]
SEEDS = [0, 1, 7, 42, 2**40 + 5]
COUNTS = [1, 120, 4_096]

needs_numpy = pytest.mark.skipif(not backend_mod.HAS_NUMPY, reason="needs NumPy")


@pytest.fixture
def no_numpy(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)


@needs_numpy
@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("n_elements", SIZES)
def test_table_draws_equal_generator_choice(n_elements, exponent):
    np = backend_mod.np
    probabilities, cdf = zipf_table(n_elements, exponent)
    for seed, count in itertools.product(SEEDS, COUNTS):
        expected_rng = np.random.default_rng(seed)
        permutation = expected_rng.permutation(n_elements)
        ranks = expected_rng.choice(n_elements, count, p=probabilities)
        rng = np.random.default_rng(seed)
        rng.permutation(n_elements)
        drawn = cdf.searchsorted(rng.random(count), side="right")
        assert drawn.dtype == ranks.dtype
        assert np.array_equal(drawn, ranks)
        workload = ZipfWorkload(n_elements, exponent, seed=seed)
        (chunk,) = workload.iter_requests(count, count)
        assert list(chunk) == permutation[ranks].tolist()
        assert ZipfWorkload(n_elements, exponent, seed=seed).generate(count) == [
            int(identifier) for identifier in permutation[ranks]
        ]


@needs_numpy
def test_numpy_table_is_shared_and_read_only():
    probabilities, cdf = zipf_table(1_023, 1.4)
    again = zipf_table(1_023, 1.4)
    assert again[0] is probabilities and again[1] is cdf
    assert zipf_probabilities(1_023, 1.4) is probabilities
    assert ZipfWorkload(1_023, 1.4, seed=3)._cumulative is cdf
    for table in (probabilities, cdf):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5
    assert cdf[-1] == 1.0


def test_python_table_is_shared_and_read_only(no_numpy):
    probabilities, cumulative = zipf_table(1_023, 1.4)
    assert type(probabilities) is tuple and type(cumulative) is tuple
    assert zipf_table(1_023, 1.4)[1] is cumulative
    assert ZipfWorkload(1_023, 1.4, seed=3)._cumulative is cumulative
    assert cumulative[-1] == 1.0
    assert len(probabilities) == len(cumulative) == 1_023


@pytest.mark.parametrize("numpy_present", [True, False])
def test_each_environment_reads_its_own_table(numpy_present, monkeypatch):
    if numpy_present and not backend_mod.HAS_NUMPY:
        pytest.skip("needs NumPy")
    monkeypatch.setattr(backend_mod, "HAS_NUMPY", numpy_present)
    _, cumulative = zipf_table(63, 1.6)
    assert (type(cumulative) is tuple) is not numpy_present


WORKLOADS = {
    "zipf": lambda: ZipfWorkload(255, 1.4, seed=9),
    "zipf-unpermuted": lambda: ZipfWorkload(255, 2.2, seed=9, permute_identifiers=False),
    "combined-locality": lambda: CombinedLocalityWorkload(255, 1.4, 0.5, seed=9),
}


@pytest.mark.parametrize("numpy_present", [True, False])
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_chunks_hold_python_ints(kind, numpy_present, monkeypatch):
    """A chunk is a list or the kernel's ``array('q')``: never NumPy values."""
    if numpy_present and not backend_mod.HAS_NUMPY:
        pytest.skip("needs NumPy")
    monkeypatch.setattr(backend_mod, "HAS_NUMPY", numpy_present)
    chunks = list(WORKLOADS[kind]().iter_requests(500, 97))
    assert [value for chunk in chunks for value in chunk] == WORKLOADS[kind]().generate(500)
    assert all(
        type(chunk) is list or (type(chunk) is array and chunk.typecode == "q")
        for chunk in chunks
    )
    assert all(type(value) is int for chunk in chunks for value in chunk)


def test_python_sampler_stream_is_pinned(no_numpy):
    # drawn before the shared table existed; the NumPy-less stream must not move
    assert ZipfWorkload(63, 1.6, seed=11).generate(16) == [
        21, 31, 42, 31, 31, 31, 21, 31, 20, 47, 21, 21, 21, 47, 20, 21,
    ]
    assert ZipfWorkload(1_023, 1.4, seed=7, permute_identifiers=False).generate(12) == [
        0, 0, 5, 0, 2, 1, 0, 2, 0, 1, 0, 0,
    ]
    # 300 draws reach the kernel's bulk uniforms when it is loaded
    assert ZipfWorkload(1_023, 1.4, seed=7).generate(300)[-8:] == [
        871, 473, 871, 871, 871, 856, 445, 704,
    ]
    assert CombinedLocalityWorkload(255, 2.2, 0.5, seed=3).generate(12) == [
        132, 132, 132, 94, 94, 94, 47, 47, 47, 94, 94, 94,
    ]

"""The shared Zipf table and the draws taken from it.

``zipf_table(n, a)`` builds the probability vector and its CDF once per
``(n, a)``, with NumPy's arithmetic emulated in Python, in every
environment.  Where NumPy is importable these tests pin the CDF to NumPy's
``cumsum(p) / cumsum(p)[-1]`` on every ``(n, a)`` that a scale, a golden
plan or the benchmarks use, pin the known last-bit exceptions elsewhere,
and pin a chunk drawn as ``searchsorted(random(count), side="right")`` to
``Generator.choice(n, count, p=…)``, the draw it replaces.
"""

from __future__ import annotations

import itertools
from array import array

import pytest

from repro.algorithms import cascade_kernel
from repro.workloads import CombinedLocalityWorkload, ZipfWorkload
from repro.workloads.zipf import _pairwise_sum, zipf_probabilities, zipf_table

try:
    import numpy
except ImportError:
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="needs NumPy")

#: Every ``(n, a)`` of the q1-q5 builders at every scale, the golden plans,
#: perfbench's ``multisource_256`` and ``benchmarks/run_bench.py``.
CONFIGS_IN_USE = [
    (63, 2.2), (1_023, 1.4), (16_383, 2.2),
    *itertools.product([255, 1_023, 4_095, 65_535], [1.001, 1.3, 1.6, 1.9, 2.2]),
]

#: ``(n, a)`` where NumPy's vectorised ``pow`` rounds some weights other
#: than libm's ``pow`` does (``3 ** -1.3`` among them) in a way the CDF
#: keeps, with the number of CDF entries that differ in the last bit.  No
#: configuration in use is among them.
KNOWN_EXCEPTIONS = {(8, 1.3): 1, (127, 1.3): 124, (32_767, 1.3): 1_174}


def numpy_cdf(n_elements, exponent):
    weights = numpy.arange(1, n_elements + 1, dtype=numpy.float64) ** (-exponent)
    cumulative = (weights / weights.sum()).cumsum()
    return cumulative / cumulative[-1]


@needs_numpy
@pytest.mark.parametrize("n_elements, exponent", CONFIGS_IN_USE)
def test_cdf_is_numpys_on_every_config_in_use(n_elements, exponent):
    probabilities, cdf = zipf_table(n_elements, exponent)
    assert numpy.array_equal(numpy.asarray(cdf), numpy_cdf(n_elements, exponent))
    # the arithmetic is NumPy's: over libm's weights, NumPy computes the same
    weights = numpy.array([rank ** -exponent for rank in range(1, n_elements + 1)])
    assert numpy.array_equal(numpy.asarray(probabilities), weights / weights.sum())


@needs_numpy
@pytest.mark.parametrize("n_elements, exponent", sorted(KNOWN_EXCEPTIONS))
def test_known_last_bit_exceptions(n_elements, exponent):
    cdf = numpy.asarray(zipf_table(n_elements, exponent)[1])
    expected = numpy_cdf(n_elements, exponent)
    differing = cdf != expected
    assert int(differing.sum()) == KNOWN_EXCEPTIONS[(n_elements, exponent)]
    assert numpy.array_equal(numpy.nextafter(cdf, expected)[differing], expected[differing])
    assert (n_elements, exponent) not in CONFIGS_IN_USE


@needs_numpy
@pytest.mark.parametrize("count", [*range(1, 20), 127, 128, 129, 136, 255, 256, 1_000, 8_193])
def test_pairwise_sum_is_numpys(count):
    values = [((index * 7_919) % 1_009 + 0.5) ** -1.7 for index in range(count)]
    assert _pairwise_sum(values, 0, count) == numpy.array(values).sum()


@needs_numpy
@pytest.mark.parametrize("exponent", [1.001, 1.4, 1.6, 2.2])
@pytest.mark.parametrize("n_elements", [255, 1_023, 4_095, 65_535])
def test_table_draws_equal_generator_choice(n_elements, exponent):
    probabilities, cdf = zipf_table(n_elements, exponent)
    cdf = numpy.asarray(cdf)
    for seed, count in itertools.product([0, 1, 7, 42, 2**40 + 5], [1, 120, 4_096]):
        expected_rng = numpy.random.default_rng(seed)
        permutation = expected_rng.permutation(n_elements)
        ranks = expected_rng.choice(n_elements, count, p=probabilities)
        rng = numpy.random.default_rng(seed)
        rng.permutation(n_elements)
        assert numpy.array_equal(cdf.searchsorted(rng.random(count), side="right"), ranks)
        workload = ZipfWorkload(n_elements, exponent, seed=seed)
        assert list(next(workload.iter_requests(count, count))) == permutation[ranks].tolist()


def test_table_is_shared():
    probabilities, cdf = zipf_table(1_023, 1.4)
    again = zipf_table(1_023, 1.4)
    assert again[0] is probabilities and again[1] is cdf
    assert zipf_probabilities(1_023, 1.4) is probabilities
    assert ZipfWorkload(1_023, 1.4, seed=3)._cumulative is cdf
    assert type(probabilities) is tuple
    assert type(cdf) is array and cdf.typecode == "d"
    assert len(probabilities) == len(cdf) == 1_023
    assert cdf[-1] == 1.0
    assert list(cdf) == sorted(cdf)


WORKLOADS = {
    "zipf": lambda: ZipfWorkload(255, 1.4, seed=9),
    "zipf-unpermuted": lambda: ZipfWorkload(255, 2.2, seed=9, permute_identifiers=False),
    "combined-locality": lambda: CombinedLocalityWorkload(255, 1.4, 0.5, seed=9),
}


@pytest.mark.parametrize("kernel_loaded", [True, False])
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_chunks_hold_python_ints(kind, kernel_loaded, monkeypatch):
    """A chunk is a list or the kernel's ``array('q')``, and both paths draw
    the same requests."""
    expected = WORKLOADS[kind]().generate(500)
    if not kernel_loaded:
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    chunks = list(WORKLOADS[kind]().iter_requests(500, 97))
    assert [value for chunk in chunks for value in chunk] == expected
    assert all(
        type(chunk) is list or (type(chunk) is array and chunk.typecode == "q")
        for chunk in chunks
    )
    assert all(type(value) is int for chunk in chunks for value in chunk)
    assert WORKLOADS[kind]().generate(500) == expected

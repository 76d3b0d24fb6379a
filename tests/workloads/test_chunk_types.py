"""Every registered workload kind streams lists or the kernel's ``array('q')``.

A request chunk has one of two types in every environment: a list, or the
``array('q')`` the C kernel drew it into (uniform and Zipf requests, and
the temporal repeat rule).  These tests pin, for every registered kind, at
chunk sizes 1, 97 and 20,000 and with the kernel loaded and hidden, that no
chunk has any other type and that the chunks concatenate to
``generate(n)`` on a fresh generator.
"""

from __future__ import annotations

from array import array
from itertools import chain

import pytest

from repro.algorithms import cascade_kernel
from repro.workloads import WorkloadSpec, build_workload, registered_kinds
from repro.workloads.trace_io import load_trace_workload, save_trace

N_ELEMENTS = 1_023
N_REQUESTS = 20_500
CHUNK_SIZES = (1, 97, 20_000)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """One spec per registered workload kind."""
    uniform = WorkloadSpec.create("uniform", seed=3, n_elements=N_ELEMENTS)
    zipf = WorkloadSpec.create("zipf", seed=4, n_elements=N_ELEMENTS, exponent=1.3)
    sequence = [(7 * index) % N_ELEMENTS for index in range(N_REQUESTS)]
    trace = save_trace(
        str(tmp_path_factory.mktemp("trace") / "trace.txt"), sequence, N_ELEMENTS
    )
    return {
        "uniform": uniform,
        "zipf": zipf,
        "temporal": WorkloadSpec.create(
            "temporal", seed=5, n_elements=N_ELEMENTS, repeat_probability=0.5
        ),
        "combined-locality": WorkloadSpec.create(
            "combined-locality",
            seed=6,
            n_elements=N_ELEMENTS,
            zipf_exponent=1.6,
            repeat_probability=0.4,
        ),
        "markov": WorkloadSpec.create(
            "markov",
            seed=7,
            n_elements=N_ELEMENTS,
            n_neighbours=4,
            self_loop=0.3,
            neighbour_probability=0.4,
        ),
        "mixture": WorkloadSpec.create(
            "mixture",
            seed=8,
            n_elements=N_ELEMENTS,
            components=(uniform, zipf),
            weights=(1.0, 2.0),
        ),
        "fixed-sequence": WorkloadSpec.create(
            "fixed-sequence", n_elements=N_ELEMENTS, sequence=tuple(sequence)
        ),
        "round_robin_path": WorkloadSpec.create("round_robin_path", depth=9),
        "trace_file": load_trace_workload(str(trace)).to_spec(),
        "corpus": WorkloadSpec.create("corpus", book_seed=2, window=3, n_words=3_000),
    }


@pytest.fixture(params=["kernel", "no-kernel"])
def kernel(request, monkeypatch):
    if request.param == "no-kernel":
        monkeypatch.setattr(cascade_kernel, "load", lambda: None)
    elif cascade_kernel.load() is None:
        pytest.skip("the cascade kernel needs a C compiler")


def test_every_registered_kind_is_covered(specs):
    assert set(specs) == set(registered_kinds())


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("kind", registered_kinds())
def test_chunks_are_lists_or_arrays_that_concatenate_to_generate(
    specs, kernel, kind, chunk_size
):
    spec = specs[kind]
    chunks = list(build_workload(spec).iter_requests(N_REQUESTS, chunk_size))
    assert all(
        type(chunk) is list or (type(chunk) is array and chunk.typecode == "q")
        for chunk in chunks
    )
    assert list(chain(*chunks)) == build_workload(spec).generate(N_REQUESTS)

"""Build, cache and fallback behaviour of the C cascade kernel's loader.

Serve equivalence of the kernel's chunk functions, which serve only seeded
trees, is pinned in ``tests/sim/test_seeded_trial_path.py``; these tests
cover how the shared object is built, where it is cached, that every
failure degrades to ``None``, and the load-time check of the Mersenne
Twister port behind Random-Push, the bulk draws of :mod:`repro.core.draws`
and the seeded placements.  Two plain C passes are pinned against their
Python references here too: a network source's destination remap against
``destination_table`` + ``elements_of``, and the element counts against a
``Counter``.
"""

from __future__ import annotations

import os
import random
import shutil
import stat
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

from repro.algorithms import cascade_kernel
from repro.algorithms.registry import AlgorithmSpec, make_algorithm, seeded_serving
from repro.core import draws
from repro.core.cost import RequestRecordColumns
from repro.exceptions import AlgorithmError, MappingError
from repro.network.single_source import destination_table, elements_of
from repro.sim.engine import simulate
from repro.workloads.uniform import UniformWorkload

HAS_COMPILER = any(shutil.which(name) for name in cascade_kernel.COMPILERS)
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
SRC = Path(cascade_kernel.__file__).resolve().parents[2]


def cached_files(directory: Path):
    return sorted(path.name for path in directory.iterdir())


def environment():
    """This process's environment with the package importable."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


KERNEL_ALGORITHMS = (
    "rotor-push", "move-half", "max-push", "random-push", "move-to-front",
)


@needs_compiler
def test_kernel_loads_when_a_compiler_is_present():
    kernel = cascade_kernel.load()
    assert kernel is not None
    for name in KERNEL_ALGORITHMS:
        expected = name != "random-push" or kernel.rng_port_matches
        assert kernel.serves(make_algorithm(name, n_nodes=3).kernel) == expected
    assert not kernel.serves(None)


@needs_compiler
@pytest.mark.parametrize("seed", [0, 7])
def test_kernel_draws_continue_the_python_stream(seed):
    """Draws past index 624 twist the state; Python then draws on from it."""
    if not cascade_kernel.load().rng_port_matches:
        pytest.skip("this interpreter's random module no longer matches the port")
    levels = [1 + index % 15 for index in range(2_000)]
    kernel_rng, python_rng = random.Random(seed), random.Random(seed)
    python_rng.random()  # a float draw first: the index is not 624
    kernel_rng.random()
    drawn = cascade_kernel.load().draws(kernel_rng, levels)
    assert drawn == [python_rng.randrange(1 << level) for level in levels]
    assert kernel_rng.getstate() == python_rng.getstate()
    assert kernel_rng.random() == python_rng.random()


@needs_compiler
def test_every_entry_point_of_the_port_is_checked_at_load(port):
    checked_at_load = {name: port.rng_checks[name] for name in port.rng_checks if name != "zipf"}
    assert checked_at_load == {"draws": True, "seeded_placement": True}
    # the Zipf port's check against its Python reference runs on first use
    assert port.zipf_port_matches is True and port.rng_checks["zipf"] is True


@needs_compiler
def test_a_diverging_seeded_placement_fails_the_check(port, monkeypatch):
    """A seeded draw off by one swap turns the whole port off, Random-Push too."""
    original = cascade_kernel.CascadeKernel.seeded_placement

    def diverging(self, *arguments):
        elem_at, node_of = original(self, *arguments)
        elem_at[0], elem_at[1] = elem_at[1], elem_at[0]
        return elem_at, node_of

    monkeypatch.setattr(cascade_kernel.CascadeKernel, "seeded_placement", diverging)
    kernel = cascade_kernel.CascadeKernel(port.path)
    assert kernel.rng_checks == {"draws": True, "seeded_placement": False}
    assert not kernel.rng_port_matches
    assert not kernel.serves("random_push")


@needs_compiler
def test_failed_rng_check_leaves_random_push_on_the_tree_path(monkeypatch):
    """A port that disagrees with ``random`` declines Random-Push, and
    ``seeded_serving`` then admits no trial: every seeded tree draws its
    placement on the same port.  Each trial builds its tree and serves it
    through the reference, as without the kernel."""
    loaded = cascade_kernel.load()
    draws = cascade_kernel.CascadeKernel.draws

    def diverging(self, rng, levels):
        drawn = draws(self, rng, levels)
        drawn[-1] ^= 1
        return drawn

    monkeypatch.setattr(cascade_kernel.CascadeKernel, "draws", diverging)
    kernel = cascade_kernel.CascadeKernel(loaded.path)
    assert not kernel.rng_port_matches
    assert not kernel.serves("random_push")
    assert all(kernel.serves(name) for name in ("rotor_push", "move_to_front"))

    requests = UniformWorkload(63, seed=3).generate(500)
    outcomes = {}
    for mode, current in (("kernel", kernel), ("no-kernel", None)):
        monkeypatch.setattr(cascade_kernel, "load", lambda: current)
        for name in ("random-push", "rotor-push"):
            assert seeded_serving(AlgorithmSpec(name), 63, 1, 2) is None
            outcomes[mode, name] = simulate(name, requests, n_nodes=63, placement_seed=1, seed=2)
    for name in ("random-push", "rotor-push"):
        assert outcomes["kernel", name] == outcomes["no-kernel", name]


def seeded_with_gauss(seed, kind=random.Random):
    """``kind(seed)`` with ``gauss_next`` set, which every draw keeps."""
    rng = kind(seed)
    rng.gauss(0.0, 1.0)
    assert rng.getstate()[2] is not None
    return rng


@pytest.fixture
def port():
    """The loaded kernel, skipping when it is absent or its port disagrees."""
    loaded = cascade_kernel.load()
    if loaded is None:
        pytest.skip("the cascade kernel needs a C compiler")
    if not loaded.rng_port_matches:
        pytest.skip("this interpreter's random module no longer matches the port")
    return loaded


@needs_compiler
@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 2**31, 2**32 - 1])
def test_kernel_randrange_matches_random(port, n):
    kernel_rng, python_rng = seeded_with_gauss(n), seeded_with_gauss(n)
    drawn = port.randranges(kernel_rng, n, 1_500)
    assert drawn.tolist() == [python_rng.randrange(n) for _ in range(1_500)]
    assert kernel_rng.getstate() == python_rng.getstate()
    drawn = draws.randranges(kernel_rng, n, 300)
    assert type(drawn) is array and drawn.typecode == "q"
    assert drawn.tolist() == [python_rng.randrange(n) for _ in range(300)]
    assert kernel_rng.getstate() == python_rng.getstate()


@pytest.mark.parametrize(
    "chunk, copied",
    [
        (array("q", [3, 1, 2]), False),
        ([3, 1, 2], True),
        ((3, 1, 2), True),
        (array("i", [3, 1, 2]), True),
    ],
    ids=["array-q", "list", "tuple", "array-i"],
)
def test_requests_takes_an_array_q_where_it_lies(chunk, copied):
    address, count, owner = cascade_kernel._requests(chunk)
    assert (owner is not chunk) is copied
    assert type(owner) is array and owner.typecode == "q" and owner.tolist() == [3, 1, 2]
    assert address == owner.buffer_info()[0] and count == 3


@needs_compiler
@pytest.mark.parametrize(
    "values, start",
    [([5, 6, 7], 0), (array("i", [5, 6, 7]), 0), (array("q", [5, 6, 7]), 4)],
    ids=["list", "array-i", "start-past-end"],
)
def test_repeat_takes_only_an_array_q(port, values, start):
    with pytest.raises(ValueError, match="array\\('q'\\)"):
        port.repeat(random.Random(1), values, start, 0, 0.5, True)


@needs_compiler
@pytest.mark.parametrize("n", [0, 1, 2, 1023, 65_535])
def test_kernel_shuffle_matches_random(port, n):
    kernel_rng, python_rng = seeded_with_gauss(n), seeded_with_gauss(n)
    expected = list(range(n))
    python_rng.shuffle(expected)
    assert port.shuffled_range(kernel_rng, n).tolist() == expected
    assert kernel_rng.getstate() == python_rng.getstate()
    expected = list(range(n))
    python_rng.shuffle(expected)
    assert draws.shuffled_range(kernel_rng, n) == expected
    assert kernel_rng.getstate() == python_rng.getstate()


@needs_compiler
@pytest.mark.parametrize("seed", [0, 11])
def test_kernel_uniforms_cross_twists_like_random(port, seed):
    """5,000 ``random()`` draws take 10,000 words: the state twists 16 times."""
    kernel_rng, python_rng = seeded_with_gauss(seed), seeded_with_gauss(seed)
    python_rng.randrange(7)  # an odd number of words first
    kernel_rng.randrange(7)
    assert list(port.uniforms(kernel_rng, 5_000)) == [
        python_rng.random() for _ in range(5_000)
    ]
    assert kernel_rng.getstate() == python_rng.getstate()
    assert list(draws.uniforms(kernel_rng, 300)) == [
        python_rng.random() for _ in range(300)
    ]
    assert kernel_rng.getstate() == python_rng.getstate()
    assert kernel_rng.random() == python_rng.random()


@pytest.fixture
def refused_kernel(monkeypatch):
    """Make every kernel draw method raise; return the calls attempted."""
    attempts = []

    def refuse(name):
        def method(self, *arguments):
            attempts.append(name)
            raise AssertionError(f"the kernel drew {name}")

        return method

    for name in ("randranges", "uniforms", "shuffled_range"):
        monkeypatch.setattr(cascade_kernel.CascadeKernel, name, refuse(name))
    return attempts


def bulk_draws(rng):
    """Every bulk draw of :mod:`repro.core.draws`, then the generator state."""
    return (
        list(draws.randranges(rng, 1023, 2_000)),
        list(draws.uniforms(rng, 2_000)),
        draws.shuffled_range(rng, 1023),
        rng.getstate(),
    )


def python_loops(rng):
    """:func:`bulk_draws` as the ``random`` loops draw it."""
    drawn = [rng.randrange(1023) for _ in range(2_000)]
    uniform = [rng.random() for _ in range(2_000)]
    placement = list(range(1023))
    rng.shuffle(placement)
    return drawn, uniform, placement, rng.getstate()


class Subclassed(random.Random):
    """Inherits every method, so its draws equal ``random.Random``'s."""


def test_a_random_subclass_never_takes_the_kernel(refused_kernel):
    subclassed = bulk_draws(seeded_with_gauss(4, Subclassed))
    assert subclassed == python_loops(seeded_with_gauss(4))
    assert refused_kernel == []


@needs_compiler
def test_failed_self_check_keeps_every_draw_on_python(monkeypatch, refused_kernel):
    loaded = cascade_kernel.load()
    monkeypatch.setattr(
        cascade_kernel.CascadeKernel, "_rng_port_matches", lambda self: False
    )
    failed = cascade_kernel.CascadeKernel(loaded.path)
    assert not failed.rng_port_matches
    assert not failed.serves("random_push")
    monkeypatch.setattr(cascade_kernel, "load", lambda: failed)
    assert bulk_draws(seeded_with_gauss(6)) == python_loops(seeded_with_gauss(6))
    assert refused_kernel == []


@needs_compiler
def test_build_is_content_addressed_and_reused(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert cascade_kernel._open([cache]) is not None
    (name,) = cached_files(cache)  # no partial file is left behind
    assert name == cascade_kernel._library_name()
    assert name.startswith("cascade_kernel-") and name.endswith(".so")
    # a second process finds the cached object and compiles nothing
    monkeypatch.setattr(cascade_kernel, "_build", lambda path: False)
    assert cascade_kernel._open([cache]) is not None


@needs_compiler
def test_changed_source_gets_a_new_name(tmp_path, monkeypatch):
    source = tmp_path / "cascade_kernel.c"
    source.write_text(cascade_kernel._SOURCE.read_text() + "\n/* edited */\n")
    original = cascade_kernel._library_name()
    monkeypatch.setattr(cascade_kernel, "_SOURCE", source)
    assert cascade_kernel._library_name() != original


@needs_compiler
def test_concurrent_builds_leave_one_complete_object(tmp_path):
    """Workers racing to build the same cache all load it; no partial file stays."""
    cache = tmp_path / "cache"
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.algorithms import cascade_kernel\n"
        "sys.exit(cascade_kernel._open([Path(sys.argv[1])]) is None)\n"
    )
    workers = [
        subprocess.Popen([sys.executable, "-c", script, str(cache)], env=environment())
        for _ in range(4)
    ]
    assert [worker.wait(timeout=120) for worker in workers] == [0] * 4
    assert cached_files(cache) == [cascade_kernel._library_name()]


@needs_compiler
@pytest.mark.parametrize("own", [True, False], ids=["package cache", "shared cache"])
def test_a_build_prunes_stale_objects_of_the_package_cache_only(
    tmp_path, monkeypatch, own
):
    """A fresh object replaces older ones in the package's own cache; the
    shared temporary cache, where another checkout's object may be in use,
    and compiles in flight are left alone."""
    if own:
        monkeypatch.setattr(cascade_kernel, "_PACKAGE_CACHE", tmp_path)
    stale = tmp_path / "cascade_kernel-0000000000000000.so"
    in_flight = tmp_path / "cascade_kernel-0000000000000000.so.x1y2.partial"
    for path in (stale, in_flight):
        path.write_bytes(b"not an object\n")
    name = cascade_kernel._library_name()
    assert cascade_kernel._build(tmp_path / name)
    kept = [in_flight.name, name] if own else [stale.name, in_flight.name, name]
    assert cached_files(tmp_path) == sorted(kept)


def test_no_compiler_means_no_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert cascade_kernel._open([tmp_path / "cache"]) is None


@needs_compiler
def test_compile_error_means_no_kernel(tmp_path, monkeypatch):
    source = tmp_path / "cascade_kernel.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(cascade_kernel, "_SOURCE", source)
    cache = tmp_path / "cache"
    assert cascade_kernel._open([cache]) is None
    assert cached_files(cache) == []


@needs_compiler
def test_unusable_directory_falls_back_to_the_next(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory should be\n")
    fallback = tmp_path / "fallback"
    assert cascade_kernel._open([blocker / "cache", fallback]) is not None
    assert cached_files(fallback) == [cascade_kernel._library_name()]


@pytest.fixture
def loaded_paths(monkeypatch):
    """Every path the loader hands to ``CascadeKernel``, in order."""
    paths = []
    kernel_type = cascade_kernel.CascadeKernel

    def recording(path):
        paths.append(path)
        return kernel_type(path)

    monkeypatch.setattr(cascade_kernel, "CascadeKernel", recording)
    return paths


def plant(directory: Path, source: Path, how: str) -> Path:
    """Put a copy of (or a link to) the shared object ``source`` in ``directory``."""
    directory.mkdir(mode=0o700)
    planted = directory / cascade_kernel._library_name()
    if how == "symlinked object":
        planted.symlink_to(source)
    else:
        shutil.copy(source, planted)
        planted.chmod(0o666 if how == "writable object" else 0o700)
    if how == "group-writable directory":
        directory.chmod(0o770)
    elif how == "world-writable directory":
        directory.chmod(0o1777)
    return planted


@needs_compiler
@pytest.mark.parametrize(
    "how",
    [
        "group-writable directory",
        "world-writable directory",
        "writable object",
        "symlinked object",
    ],
)
def test_object_others_can_change_is_never_loaded(tmp_path, loaded_paths, how):
    """A planted object is skipped and the kernel is built in the next directory."""
    built = cascade_kernel._open([tmp_path / "built"])
    loaded_paths.clear()
    planted = plant(tmp_path / "shared", built.path, how)
    private = tmp_path / "private"
    kernel = cascade_kernel._open([planted.parent, private])
    assert kernel is not None
    assert loaded_paths == [private / planted.name]
    assert stat.S_IMODE(os.stat(private / planted.name).st_mode) == 0o700


@needs_compiler
def test_symlinked_directory_is_never_loaded_from(tmp_path, loaded_paths):
    built = cascade_kernel._open([tmp_path / "built"])
    loaded_paths.clear()
    link = tmp_path / "link"
    link.symlink_to(built.path.parent, target_is_directory=True)
    assert cascade_kernel._open([link]) is None
    assert loaded_paths == []


@needs_compiler
def test_object_of_another_user_is_never_loaded(tmp_path, monkeypatch, loaded_paths):
    built = cascade_kernel._open([tmp_path / "built"])
    loaded_paths.clear()
    monkeypatch.setattr(os, "getuid", lambda: os.stat(built.path).st_uid + 1)
    # the object is there, so nothing is built; it is skipped, not loaded
    assert cascade_kernel._open([built.path.parent]) is None
    assert loaded_paths == []


@needs_compiler
def test_nothing_is_built_into_a_shared_directory(tmp_path, loaded_paths):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o1777)
    private = tmp_path / "private"
    assert cascade_kernel._open([shared, private]) is not None
    assert cached_files(shared) == []
    assert loaded_paths == [private / cascade_kernel._library_name()]


def assert_loads_only_at(first_load: str) -> None:
    """Importing, building 15-node trees (a seeded placement of fewer than
    ``SEEDED_KERNEL_MIN_DRAWS`` nodes) and serving their chunks, of any
    length, building 63-, 255- and 511-node LRU indexes (always in Python)
    and drawing fewer than ``KERNEL_MIN_DRAWS`` requests neither compiles
    nor loads; the statement ``first_load`` then does."""
    script = (
        "from repro.algorithms import cascade_kernel\n"
        "from repro.algorithms.lru_index import LevelLRUIndex\n"
        "from repro.algorithms.registry import make_algorithm\n"
        "from repro.core import CompleteBinaryTree, TreeNetwork\n"
        "from repro.workloads.uniform import UniformWorkload\n"
        f"for name in {KERNEL_ALGORITHMS}:\n"
        "    tree = make_algorithm(name, n_nodes=15, placement_seed=1)\n"
        "    tree.serve_batch([5] * 14)\n"
        "    tree.serve_batch([5] * 100)\n"
        "for n_nodes in (63, 255, 511):\n"
        "    LevelLRUIndex(TreeNetwork(CompleteBinaryTree(n_nodes)))\n"
        "UniformWorkload(1023, seed=1).generate(255)\n"
        "list(UniformWorkload(1023, seed=1).iter_requests(600, 255))\n"
        "assert cascade_kernel._KERNEL is cascade_kernel._UNLOADED\n"
        f"{first_load}\n"
        "assert cascade_kernel._KERNEL is not cascade_kernel._UNLOADED\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=environment(), check=True, timeout=120
    )


def test_a_seeded_trial_loads_the_kernel():
    assert_loads_only_at(
        "from repro.sim.engine import simulate\n"
        "simulate('max-push', [5] * 15, n_nodes=31, placement_seed=1)"
    )


@pytest.mark.parametrize(
    "first_load",
    [
        "UniformWorkload(1023, seed=1).generate(256)",
        "make_algorithm('rotor-push', n_nodes=511, placement_seed=1)",
        "make_algorithm('rotor-push', n_nodes=31, placement_seed=1)",
    ],
    ids=[
        "256-request-draw",
        "511-node-placement",
        "31-node-seeded-placement",
    ],
)
def test_a_kernel_sized_draw_loads_the_kernel(first_load):
    assert_loads_only_at(first_load)


@pytest.fixture(scope="module")
def loaded():
    kernel = cascade_kernel.load()
    if kernel is None:
        pytest.skip("the cascade kernel did not load")
    return kernel


#: A network whose sources' trees are complete: 64 nodes, 63 destinations.
REMAP_NODES = 64
REMAP_SOURCES = (0, 1, REMAP_NODES // 2, REMAP_NODES - 2, REMAP_NODES - 1)


def remapped(kernel, chunks, source):
    """The elements a ``SeededTrees`` served for destination ``chunks``, read
    from its records, and the ``AlgorithmError`` it raised, or ``None``."""
    records = RequestRecordColumns()
    trees = cascade_kernel.SeededTrees(kernel, "static_oblivious", REMAP_NODES - 1)
    try:
        trees.serve(5, 0, chunks, records, source=source, n_nodes=REMAP_NODES)
    except AlgorithmError as error:
        return records.elements, error
    return records.elements, None


@pytest.mark.parametrize("chunk_type", ["list", "array"])
@pytest.mark.parametrize("source", REMAP_SOURCES)
def test_source_elements_equal_the_destination_table(loaded, source, chunk_type):
    destinations = [node for node in range(REMAP_NODES) if node != source] * 2
    random.Random(source).shuffle(destinations)
    chunks = [destinations[:50], destinations[50:]]
    if chunk_type == "array":
        chunks = [array("q", chunk) for chunk in chunks]
    table = destination_table(REMAP_NODES, source)
    expected = elements_of(table, destinations, source)
    assert remapped(loaded, chunks, source) == (expected, None)


#: Destinations no source reaches, by the chunk types that can hold them
#: ("source" stands for the source itself).
UNREACHABLE = [
    *((bad, chunk_type) for bad in (-1, REMAP_NODES, "source") for chunk_type in ("list", "array")),
    (2**70, "list"),
    ("x", "list"),
    (3.0, "list"),
]


@pytest.mark.parametrize("bad, chunk_type", UNREACHABLE, ids=repr)
@pytest.mark.parametrize("source", REMAP_SOURCES)
def test_an_unreachable_destination_rejects_the_chunk_as_elements_of_does(
    loaded, source, bad, chunk_type
):
    bad = source if bad == "source" else bad
    good = [node for node in (2, 40, 63, 0) if node != source]
    rejected = [node for node in (5, 6, 7) if node != source] + [bad, 9]
    table = destination_table(REMAP_NODES, source)
    with pytest.raises(AlgorithmError) as expected:
        elements_of(table, rejected, source)
    chunks = [good, rejected, good]
    if chunk_type == "array":
        chunks = [array("q", chunk) for chunk in chunks]
    served, error = remapped(loaded, chunks, source)
    assert str(error) == str(expected.value)
    assert str(error) == f"destination {bad} is not reachable from source {source}"
    assert served == elements_of(table, good, source)  # nothing of the rest


@pytest.mark.parametrize(
    "requests",
    [[5, 5, 1, 1, 9, 9, 0, 2, 2, 0] * 7, [7] * 80, list(range(63)), []],
    ids=["ties", "one-element", "all-equal", "empty"],
)
def test_element_counts_equal_a_counter(loaded, requests):
    expected = Counter(requests)
    for chunk in (requests, array("q", requests)):
        assert loaded.element_counts(chunk, 63).tolist() == [
            expected[element] for element in range(63)
        ]


def test_element_counts_check_the_chunk_whole(loaded):
    with pytest.raises(MappingError, match="^element 63 outside universe of size 63$"):
        loaded.element_counts([1, 2, 63, -1], 63)
    with pytest.raises(TypeError):
        loaded.element_counts([1, 2.0], 63)

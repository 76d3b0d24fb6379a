"""Build, load and drive the C cascade kernel (``cascade_kernel.c``).

The kernel serves seeded trees and draws the request streams and initial
placements (see below).  Its chunk functions cover the three
deterministic cascades (Rotor-Push, Move-Half, Max-Push), Random-Push and
Move-To-Front, each computing its algorithm's reference ``_adjust`` in one
fused pass, Static-Oblivious (``static_serve``) and Static-Opt's request
counts (``static_opt_count``).

They serve only seeded trees, which report their totals, and their
per-request records if asked: a single-source trial
(:func:`repro.sim.engine.simulate_stream`), a network-plan source
(:func:`repro.network.multi_source.serve_source_by_source`) and a live
source (:class:`repro.serve.engine.ServeEngine`), all admitted by
:func:`repro.algorithms.registry.seeded_serving`.  :class:`SeededTrees`
owns the buffers of such trees, which are their only representation: its
:meth:`~SeededTrees.draw` draws a tree straight into them from its seeds,
in one C call over whatever the tree before it left, and its
:meth:`~SeededTrees.serve_chunks` serves every chunk there, whatever its
length.  A network-plan trial serves all its sources through one owner,
whose chunks of destinations are mapped to elements in C as well;
:meth:`CascadeKernel.serve_seeded` is one owner serving one tree, and a
live source keeps its owner resident between batches.  Static-Opt needs no
tree there at all: its access total follows from the per-element request
counts.  An algorithm instance keeps its tree in Python lists and serves
every request of every chunk through ``_adjust``
(:meth:`repro.algorithms.base.OnlineTreeAlgorithm.serve_batch`), so its
state never crosses into C.

A request chunk is a list or an ``array('q')``.  The workloads whose draws
the kernel makes (uniform requests, Zipf requests, the temporal repeat
rule) hand over the ``array('q')`` it filled, which
:meth:`SeededTrees.serve_chunks` reads where it lies; a list is copied into
an ``array('q')`` once.

Random-Push draws its push-down targets from a C port of CPython's Mersenne
Twister and of ``randrange``, keyed the way ``random.Random(seed)`` keys it
(CPython's ``init_by_array``), so a seeded Random-Push tree draws what the
algorithm's own generator would.  The same port draws outside any tree too:
:meth:`CascadeKernel.randranges`, :meth:`CascadeKernel.uniforms` and
:meth:`CascadeKernel.shuffled_range` are ``randrange(n)``, ``random()`` and
``shuffle(list(range(n)))`` in bulk on a ``random.Random``'s state, copied
in with ``getstate`` and written back with ``setstate``, which
:mod:`repro.core.draws` uses for the request streams and the initial
placements.  :meth:`CascadeKernel.seeded_placement` draws from a seed
alone, with no state to copy in or out: a tree's initial placement and its
inverse in one call.
:meth:`CascadeKernel.word_uniforms` and :meth:`CascadeKernel.repeat` take
``random()`` draws as the raw words of one ``getrandbits`` call instead of
a state copy; :meth:`CascadeKernel.repeat` runs the temporal repeat rule on
them (or on a copied state) as it draws, in place on an ``array('q')``.
The port is only exact while the interpreter keeps its current seeding,
``getrandbits``, ``_randbelow``, ``random`` and ``shuffle``, so
:class:`CascadeKernel` compares a few thousand draws of every kind with
``random.Random`` when it loads (:attr:`CascadeKernel.rng_checks`).  On a
mismatch ``rng_port_matches`` is false: the kernel declines Random-Push
(:meth:`CascadeKernel.serves`), every trial builds its tree (a seeded tree
draws its placement on the same port), every draw runs the Python
``random`` loops, and only the element counts stay in C.

A second port covers ``numpy.random.default_rng(seed)`` for an int seed of
at least 0 (``SeedSequence``'s pool and ``generate_state``, PCG64 with its
buffered 32-bit draws, ``permutation`` and ``random``), for the Zipf
workloads: :meth:`CascadeKernel.zipf_generator` builds a generator and its
identifier permutation in one call and :meth:`CascadeKernel.zipf_draws`
draws a chunk through the shared CDF.  The first Zipf workload compares it
with its pure-Python reference :class:`repro.workloads.zipf.PCG64`
(:attr:`CascadeKernel.zipf_port_matches`, ``rng_checks["zipf"]``), which
gates the Zipf draws only: they run on the reference otherwise.

The library is compiled with the system C compiler the first time a seeded
tree or a draw asks for it.  The shared object
is content-addressed by the source hash, the compile command and the
platform, and lives in this package's ``__pycache__`` (falling back to a
per-user temporary directory).  It is compiled under a temporary name and
moved into place with :func:`os.replace`, so concurrent pool workers never
see a partial file.  A build into the package's ``__pycache__`` deletes the
objects of older sources there.
A cache directory and the shared object in it are used only when both are
private: real (not symbolic links), owned by the current user and neither
group- nor world-writable.  Anything else, such as a directory another user
planted under a world-writable temporary root, is skipped without loading.
Any failure (no compiler, a compile error, no writable directory, a load
error) makes :func:`load` return ``None``, and every tree and draw then
runs its Python reference with identical results.
Nothing here imports :mod:`ctypes` or runs a compiler before :func:`load`
is first called.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import os
import platform
import random
import shutil
import stat
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.cost import RequestRecordColumns
from repro.exceptions import AlgorithmError, MappingError

__all__ = ["COMPILERS", "RNG_BOUND_LIMIT", "CascadeKernel", "SeededTrees", "load"]

#: The C compilers tried, in order, when the shared object must be built.
COMPILERS = ("cc", "gcc", "clang")

_SOURCE = Path(__file__).with_name("cascade_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
#: The package's own object cache, the only one :func:`_build` prunes.
_PACKAGE_CACHE = _SOURCE.parent / "__pycache__"

#: The fields of ``serve_state`` in ``cascade_kernel.c``, in order: buffer
#: addresses, then 64-bit integers.
_POINTER_FIELDS = (
    "elem_at", "node_of", "pointers", "next", "prev", "last_access",
    "level_of", "never_words", "never_summary", "mt", "counts",
)
_INTEGER_FIELDS = ("n_elements", "n_words", "n_summary", "clock", "mt_index")
_COLUMN_FIELDS = ("levels", "swaps")
_RESULT_FIELDS = ("access_total", "adjustment_total", "error_level")

#: The chunk functions of ``cascade_kernel.c``, by ``OnlineTreeAlgorithm.kernel``.
#: Static-Opt's is ``static_opt_count``, bound with the counting entry points:
#: :class:`SeededTrees` counts its requests instead of serving a tree.
_CHUNK_FUNCTIONS = {
    "rotor_push": "rotor_push_serve",
    "move_half": "move_half_serve",
    "max_push": "max_push_serve",
    "random_push": "random_push_serve",
    "move_to_front": "move_to_front_serve",
    "static_oblivious": "static_serve",
}

#: Draws per seed in the load-time check of the Mersenne Twister port, with
#: ``randrange(1 << level)`` cycling through levels 1 to 20: about two 32-bit
#: words a draw, so the state twists several times.  The bulk draws follow on
#: the same stream: ``_RNG_CHECK_RUN`` draws of ``randrange(n)`` for each
#: bound, as many ``random()`` draws and a shuffle of ``_RNG_CHECK_RUN``
#: elements.
_RNG_CHECK_DRAWS = 3_000
_RNG_CHECK_SEEDS = (0, 2022)
_RNG_CHECK_BOUNDS = (1, 3, 1023, 1024, 2**31 + 1, 2**32 - 1)
_RNG_CHECK_RUN = 300
#: Seeds of the load-time check of the seeded placement: 0 and 1 (one key
#: word), -7 (keyed by its absolute value), 2**32 (two words) and 2**64 + 3
#: (three).  Each draws a placement of ``_SEEDED_CHECK_NODES`` nodes.
_SEEDED_CHECK_SEEDS = (0, 1, -7, 2**32, 2**64 + 3)
_SEEDED_CHECK_NODES = 64
#: Seeds and sizes of the load-time check of the PCG64 port: one, two and
#: three key words, and permutations short and long enough to draw
#: through several bit masks.
_ZIPF_CHECK_SEEDS = (0, 1, 2**32, 2**64 + 5)
_ZIPF_CHECK_SIZES = (1, 5, 1023)
#: An unseeded PCG64 state of :meth:`CascadeKernel.zipf_generator`.
_PCG64_UNSEEDED = array("Q", [0] * 6)

#: The key of a seed ``seeded_tree`` does not read (Static-Opt's placement
#: seed, every algorithm seed but Random-Push's).
_NO_KEY = array("I")

#: The largest bound (exclusive) of one 32-bit draw: ``randrange(n)`` and
#: shuffles of ``n`` elements need ``n < RNG_BOUND_LIMIT``.
RNG_BOUND_LIMIT = 2**32

_UNLOADED = object()
_KERNEL = _UNLOADED


def _seed_key(seed: int) -> array:
    """The key words ``random.Random(seed)`` seeds MT19937 with, for an int seed.

    The 32-bit words of ``abs(seed)``, least significant first; one zero
    word for 0.
    """
    magnitude = abs(seed)
    n_words = max((magnitude.bit_length() + 31) >> 5, 1)
    key = array("I")
    key.frombytes(magnitude.to_bytes(4 * n_words, "little"))
    if sys.byteorder == "big":
        key.byteswap()
    return key


def _zeros(typecode: str, count: int) -> array:
    """``count`` zeros of ``typecode``.  Repeating one element is a single
    allocation, where ``array(typecode, bytes(...))`` zeroes a bytes object
    first and copies it (about 0.4 ms for 512 KiB)."""
    return array(typecode, [0]) * count


def _lru_layout(n_elements: int) -> Dict[str, Union[array, int]]:
    """Zeroed LRU index buffers over a complete tree of ``n_elements`` nodes;
    the clock is 0.

    ``next``, ``prev`` and ``last_access`` are int64 arrays over the element
    slots and one sentinel per level, ``level_of`` an int64 array over the
    elements.  ``never_words`` holds ``n_words`` uint64 words per level, and
    ``never_summary`` each level's summary integer as ``n_summary`` uint64
    words, least significant first (see ``LevelLRUIndex``).
    """
    n_levels = n_elements.bit_length()
    size = n_elements + n_levels
    n_words = (n_elements >> 6) + 1
    n_summary = (n_words >> 6) + 1
    return {
        "next": _zeros("q", size),
        "prev": _zeros("q", size),
        "last_access": _zeros("q", size),
        "level_of": _zeros("q", n_elements),
        "never_words": _zeros("Q", n_words * n_levels),
        "never_summary": _zeros("Q", n_summary * n_levels),
        "n_elements": n_elements,
        "n_words": n_words,
        "n_summary": n_summary,
        "clock": 0,
    }


def _requests(chunk) -> Tuple[int, int, array]:
    """``chunk``'s requests as int64 words: ``(address, count, owner)``.

    An ``array('q')`` is taken where it is, with no copy.  A list, or any
    other iterable, is copied into an ``array('q')`` once.  ``owner`` holds
    the words for as long as the address is used.  An element beyond 64
    bits raises :class:`OverflowError`.
    """
    if type(chunk) is not array or chunk.typecode != "q":
        chunk = array("q", chunk)
    return chunk.buffer_info()[0], len(chunk), chunk


def _outside(chunk, n: int) -> MappingError:
    """The error of ``OnlineTreeAlgorithm._check_batch_bounds`` for ``chunk``'s
    first element outside ``0..n-1``."""
    bad = next(element for element in chunk if not 0 <= element < n)
    return MappingError(f"element {int(bad)} outside universe of size {n}")


def _unreachable(destinations, source: int, n_nodes: int) -> AlgorithmError:
    """The error of ``repro.network.single_source.elements_of`` for the
    first of ``destinations`` that is no node of an ``n_nodes``-node network
    other than ``source``."""

    def reachable(destination) -> bool:
        try:
            node = operator.index(destination)
        except TypeError:
            return False
        return 0 <= node < n_nodes and node != source

    bad = next(itertools.filterfalse(reachable, destinations))
    return AlgorithmError(f"destination {bad} is not reachable from source {source}")


def _words(rng: random.Random, count: int) -> bytes:
    """``rng``'s next ``count`` ``random()`` draws as raw words: two 32-bit
    outputs each, least significant first (see :meth:`CascadeKernel.word_uniforms`)."""
    return rng.getrandbits(64 * count).to_bytes(8 * count, "little")


def load() -> Optional["CascadeKernel"]:
    """Return the kernel, building it on the first call; ``None`` if unavailable.

    The outcome of the first call, success or failure, is kept for the life
    of the process.
    """
    global _KERNEL
    if _KERNEL is _UNLOADED:
        _KERNEL = _open(_cache_dirs())
    return _KERNEL


def _cache_dirs() -> List[Path]:
    """The package's ``__pycache__``, then a private per-user temp directory."""
    user = os.getuid() if hasattr(os, "getuid") else os.getpid()
    return [
        _PACKAGE_CACHE,
        Path(tempfile.gettempdir()) / f"repro-cascade-kernel-{user}",
    ]


def _library_name() -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_FLAGS).encode())
    digest.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"cascade_kernel-{digest.hexdigest()[:16]}.so"


def _open(directories: Sequence[Path]) -> Optional["CascadeKernel"]:
    """Load the cached library from the first usable directory, building it there."""
    try:
        name = _library_name()
    except OSError:
        return None
    for directory in directories:
        path = directory / name
        if not os.path.lexists(path) and not _build(path):
            continue
        if not (_is_private(directory) and _is_private(path)):
            continue
        try:
            return CascadeKernel(path)
        except (OSError, AttributeError):
            continue
    return None


def _is_private(path: Path) -> bool:
    """Whether ``path`` is no symbolic link and only this user can change it."""
    try:
        status = os.lstat(path)
    except OSError:
        return False
    if stat.S_ISLNK(status.st_mode) or status.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return False
    return not hasattr(os, "getuid") or status.st_uid == os.getuid()


def _build(path: Path) -> bool:
    """Compile the kernel to ``path`` atomically; ``False`` on any failure."""
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return False
    directory = path.parent
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _is_private(directory):
            return False
        handle, partial = tempfile.mkstemp(
            prefix=f"{path.name}.", suffix=".partial", dir=directory
        )
        os.close(handle)
    except OSError:
        return False
    try:
        built = subprocess.run(
            [compiler, *_FLAGS, "-o", partial, str(_SOURCE)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        if built.returncode != 0:
            return False
        # the linker applies the umask, which may leave the object group-writable
        os.chmod(partial, 0o700)
        os.replace(partial, path)
        if directory == _PACKAGE_CACHE:
            _prune_stale(path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _prune_stale(path: Path) -> None:
    """Delete the objects of older kernel sources next to ``path``.

    Only for the package's own cache: an object in the shared per-user
    temporary directory may belong to another checkout that is using it.
    Compiles still in flight (``.partial``) do not match the pattern.
    """
    for stale in path.parent.glob("cascade_kernel-*.so"):
        if stale != path:
            try:
                stale.unlink()
            except OSError:
                pass


class CascadeKernel:
    """The loaded kernel library and the marshalling of its calls."""

    def __init__(self, path: Path) -> None:
        import ctypes

        class ServeState(ctypes.Structure):
            _fields_ = [
                *((name, ctypes.c_void_p) for name in _POINTER_FIELDS),
                *((name, ctypes.c_int64) for name in _INTEGER_FIELDS),
                *((name, ctypes.c_void_p) for name in _COLUMN_FIELDS),
                *((name, ctypes.c_int64) for name in _RESULT_FIELDS),
            ]

        self.path = path
        self._byref = ctypes.byref
        self._state_type = ServeState
        library = ctypes.CDLL(str(path))
        pointer = ctypes.POINTER(ServeState)
        address, integer = ctypes.c_void_p, ctypes.c_int64
        self._functions = {}
        for name, symbol in _CHUNK_FUNCTIONS.items():
            function = getattr(library, symbol)
            function.argtypes = [pointer, address, integer]
            function.restype = integer
            self._functions[name] = function
        self._static_opt_count = library.static_opt_count
        self._static_opt_count.argtypes = [pointer, address, integer]
        self._static_opt_count.restype = integer
        self._functions["static_opt"] = self._static_opt_count
        self._static_opt_total = library.static_opt_total
        self._static_opt_total.argtypes = [pointer]
        self._static_opt_total.restype = None
        self._first_outside = library.first_outside
        self._first_outside.argtypes = [address, integer, integer]
        self._first_outside.restype = integer
        self._source_elements = library.source_elements
        self._source_elements.argtypes = [address, address, integer, integer, integer]
        self._source_elements.restype = integer
        self._seeded_tree = library.seeded_tree
        self._seeded_tree.argtypes = [pointer, address, integer, address, integer]
        self._seeded_tree.restype = integer
        words = ctypes.c_char_p
        self._draw_functions = {}
        for name, argtypes in (
            ("random_push_draws", [address, address, integer]),
            ("randbelow_fill", [integer, address, integer]),
            ("random_fill", [address, integer]),
            ("shuffle_range", [address, integer]),
            ("repeat_fill", [words, address, integer, integer, ctypes.c_double]),
        ):
            function = getattr(library, name)
            function.argtypes = [pointer, *argtypes]
            function.restype = None
            self._draw_functions[name] = function
        self._seeded_placement = library.seeded_placement
        self._seeded_placement.argtypes = [pointer, address, integer, integer]
        self._seeded_placement.restype = integer
        self._random_words_fill = library.random_words_fill
        self._random_words_fill.argtypes = [words, address, integer]
        self._random_words_fill.restype = None
        self._pcg64_seed = library.pcg64_seed
        self._pcg64_seed.argtypes = [address, address, integer, address, integer]
        self._pcg64_seed.restype = None
        self._pcg64_random_fill = library.pcg64_random_fill
        self._pcg64_random_fill.argtypes = [address, address, integer]
        self._pcg64_random_fill.restype = None
        self._zipf_fill = library.zipf_fill
        self._zipf_fill.argtypes = [address, address, integer, address, address, integer]
        self._zipf_fill.restype = None
        #: The outcome of each check of a port, by entry point.  The
        #: Mersenne Twister port against ``random.Random``, at load:
        #: ``"draws"`` (Random-Push, the bulk draws, the raw-word draws and
        #: the repeat rule) and ``"seeded_placement"``.
        #: The PCG64 port against its Python reference, once
        #: :attr:`zipf_port_matches` is first read: ``"zipf"``.
        self.rng_checks: Dict[str, bool] = {}
        #: Whether every check of the Mersenne Twister port passed here.  The
        #: ``"zipf"`` entry gates only the Zipf draws.
        self.rng_port_matches = self._rng_port_matches()
        if not self.rng_port_matches:
            del self._functions["random_push"]

    @property
    def zipf_port_matches(self) -> bool:
        """Whether the PCG64 port draws what :class:`repro.workloads.zipf.PCG64`
        draws: checked on first read (about 10 ms, which a process that draws
        no Zipf stream never pays) and kept in ``rng_checks["zipf"]``."""
        if "zipf" not in self.rng_checks:
            self.rng_checks["zipf"] = array("I").itemsize == 4 and self._zipf_matches()
        return self.rng_checks["zipf"]

    def serves(self, kernel: Optional[str]) -> bool:
        """Whether the chunk function ``kernel`` (an algorithm's ``kernel``) is on."""
        return kernel in self._functions

    def draws(self, rng: random.Random, levels: Sequence[int]) -> List[int]:
        """``rng.randrange(1 << level)`` for each level, drawn by the C port.

        Each level must lie in 1..31, the range of one 32-bit word.  ``rng``
        ends in the state those draws leave it in.
        """
        if not all(1 <= level <= 31 for level in levels):
            raise ValueError("levels must lie in 1..31")
        levels = array("q", levels)
        out = _zeros("q", len(levels))
        self._draw(
            "random_push_draws", rng, levels.buffer_info()[0],
            out.buffer_info()[0], len(levels),
        )
        return out.tolist()

    def randranges(self, rng: random.Random, n: int, count: int) -> array:
        """``count`` draws of ``rng.randrange(n)``, as an ``array('q')``.

        ``n`` must lie in ``1 <= n < RNG_BOUND_LIMIT``.  Like every draw
        method it ignores :attr:`rng_port_matches`: :mod:`repro.core.draws`
        decides when the kernel may draw.
        """
        if not 1 <= n < RNG_BOUND_LIMIT:
            raise ValueError(f"randrange bound must lie in [1, 2**32), got {n}")
        out = _zeros("q", count)
        self._draw("randbelow_fill", rng, n, out.buffer_info()[0], count)
        return out

    def uniforms(self, rng: random.Random, count: int) -> array:
        """``count`` draws of ``rng.random()``, as an ``array('d')``."""
        out = _zeros("d", count)
        self._draw("random_fill", rng, out.buffer_info()[0], count)
        return out

    def shuffled_range(self, rng: random.Random, n: int) -> array:
        """``list(range(n))`` after ``rng.shuffle``, as an ``array('q')``."""
        if not 0 <= n < RNG_BOUND_LIMIT:
            raise ValueError(f"shuffle length must lie in [0, 2**32), got {n}")
        out = _zeros("q", n)
        self._draw("shuffle_range", rng, out.buffer_info()[0], n)
        return out

    def word_uniforms(self, rng: random.Random, count: int) -> array:
        """``count`` draws of ``rng.random()`` from raw words, as an ``array('d')``.

        ``rng.getrandbits(64 * count)`` leaves ``rng`` where ``count`` calls
        of ``random()`` leave it, and its 32-bit words, two a draw, are
        those calls' outputs.  No generator state is copied, so this pays
        for fewer draws than :meth:`uniforms`.
        """
        out = _zeros("d", count)
        self._random_words_fill(_words(rng, count), out.buffer_info()[0], count)
        return out

    def repeat(
        self, rng: random.Random, values: array, start: int, previous: int,
        probability: float, words: bool,
    ) -> None:
        """The temporal repeat rule on ``values[start:]``, in place.

        ``values`` is an ``array('q')``.  In order, each position draws one
        ``rng.random()`` and, when the draw is below ``probability``, takes
        the value before it; ``previous`` is the value before
        ``values[start]``.  The draws come from raw words as in
        :meth:`word_uniforms` when ``words`` is true, else from ``rng``'s
        state copied in and written back.
        """
        usable = type(values) is array and values.typecode == "q"
        if not usable or not 0 <= start <= len(values):
            raise ValueError(f"repeat needs an array('q') and 0 <= start <= {len(values)}")
        count = len(values) - start
        address = values.buffer_info()[0] + 8 * start
        if words:
            self._draw_functions["repeat_fill"](
                None, _words(rng, count), address, count, previous, probability
            )
        else:
            self._draw("repeat_fill", rng, None, address, count, previous, probability)

    def zipf_generator(
        self, seed: int, n: int, permute: bool
    ) -> Tuple[array, Optional[array]]:
        """``numpy.random.default_rng(seed)`` and, if ``permute``, its ``permutation(n)``.

        Returns the generator's state, six ``array('Q')`` words that
        :meth:`zipf_draws` advances, and the permutation as an
        ``array('q')`` (``None`` without ``permute``).  ``seed`` must be an
        ``int`` of at least 0.
        """
        if seed < 0:
            raise ValueError(f"default_rng seeds are non-negative, got {seed}")
        key = _seed_key(seed)
        state = array("Q", _PCG64_UNSEEDED)
        identifiers = _zeros("q", n) if permute else None
        self._pcg64_seed(
            state.buffer_info()[0], key.buffer_info()[0], len(key),
            None if identifiers is None else identifiers.buffer_info()[0], n,
        )
        return state, identifiers

    def pcg64_uniforms(self, state: array, count: int) -> array:
        """``Generator.random(count)`` on the generator ``state``, as an ``array('d')``."""
        out = _zeros("d", count)
        self._pcg64_random_fill(state.buffer_info()[0], out.buffer_info()[0], count)
        return out

    def zipf_draws(
        self, state: array, cdf_address: int, n: int,
        identifiers: Optional[array], count: int,
    ) -> array:
        """``count`` Zipf identifiers drawn from the generator ``state``, as an ``array('q')``.

        Each is ``identifiers[cdf.searchsorted(random(), side="right")]``
        (the rank itself when ``identifiers`` is ``None``), where
        ``cdf_address`` is the address of ``n`` contiguous float64 CDF
        entries ending in 1.0 that outlive the call.
        """
        if len(state) != len(_PCG64_UNSEEDED) or (
            identifiers is not None and len(identifiers) != n
        ):
            raise ValueError("not a zipf_generator state and permutation of n identifiers")
        out = _zeros("q", count)
        self._zipf_fill(
            state.buffer_info()[0], cdf_address, n,
            None if identifiers is None else identifiers.buffer_info()[0],
            out.buffer_info()[0], count,
        )
        return out

    def seeded_placement(self, seed: int, n: int) -> Tuple[array, array]:
        """``random_placement(n, random.Random(seed))`` and its inverse.

        Returns the node-to-element and element-to-node ``array('q')``s of a
        uniformly random placement, drawn in one call from the port seeded
        as ``random.Random(seed)`` seeds itself.  ``seed`` must be an
        ``int`` and ``n`` lie in ``[0, RNG_BOUND_LIMIT)``.  A result that is
        no bijection raises :class:`~repro.exceptions.MappingError`.
        """
        if not 0 <= n < RNG_BOUND_LIMIT:
            raise ValueError(f"placement size must lie in [0, 2**32), got {n}")
        key = _seed_key(seed)
        elem_at = _zeros("q", n)
        node_of = _zeros("q", n)
        state = self._state({"elem_at": elem_at, "node_of": node_of})
        checked = self._seeded_placement(
            self._byref(state), key.buffer_info()[0], len(key), n
        )
        if checked != n:
            raise MappingError(
                f"placement is not a bijection onto elements 0..n-1 (node {checked})"
            )
        return elem_at, node_of

    def serve_seeded(
        self,
        kernel: str,
        n: int,
        placement_seed: int,
        algorithm_seed: int,
        chunks: Iterable[Sequence[int]],
        records: Optional[RequestRecordColumns] = None,
    ) -> Tuple[int, int, int]:
        """Serve element chunks on a fresh ``n``-node tree held in buffers only.

        The one-shot use of :class:`SeededTrees`: its buffers are allocated
        for this one tree and freed on return, so no Python object of the
        tree exists and no buffer outlives the call.  ``kernel`` is the
        chunk function (one this kernel :meth:`serves`); see
        :meth:`SeededTrees.draw` for the tree and
        :meth:`SeededTrees.serve_chunks` for the chunks, ``records`` and the
        errors.  Returns ``(requests, access_total, adjustment_total)``.
        """
        return SeededTrees(self, kernel, n).serve(
            placement_seed, algorithm_seed, chunks, records
        )

    def element_counts(self, chunk, n: int) -> array:
        """How often each element ``0..n-1`` occurs in ``chunk``, as an ``array('q')``.

        One C pass (``static_opt_count``) over a list or an ``array('q')``,
        bounds-checked whole first (:meth:`_checked`); an element that is
        no ``int`` raises :class:`TypeError`.
        """
        address, count, owner = self._checked(chunk, n)
        counts = _zeros("q", n)
        state = self._state({"counts": counts})
        self._static_opt_count(self._byref(state), address, count)
        return counts

    def _state(self, fields: Dict[str, Union[array, int]]):
        """A ``serve_state`` holding ``fields``: an ``array`` field its buffer's
        address (the caller keeps the array alive), an int its value, and
        ``error_level`` -1."""
        state = self._state_type()
        state.error_level = -1
        for field, value in fields.items():
            if isinstance(value, array):
                value = value.buffer_info()[0]
            setattr(state, field, value)
        return state

    def _draw(self, name: str, rng: random.Random, *arguments) -> None:
        """Run the draw function ``name`` on ``rng``'s state and write it back."""
        state = self._state({})
        write_back = self._rng_in(state, rng)
        self._draw_functions[name](self._byref(state), *arguments)
        write_back()

    def _rng_port_matches(self) -> bool:
        """Run the checks of :attr:`rng_checks`; whether all of them passed."""
        words = array("I").itemsize == 4  # the C port reads 32-bit words
        self.rng_checks.update(
            draws=words and self._draws_match(),
            seeded_placement=words and self._seeded_placement_matches(),
        )
        return all(self.rng_checks.values())

    def _draws_match(self) -> bool:
        """Whether every draw method and ``random.Random`` agree here."""
        levels = [1 + index % 20 for index in range(_RNG_CHECK_DRAWS)]
        run = _RNG_CHECK_RUN
        for seed in _RNG_CHECK_SEEDS:
            expected_rng, kernel_rng = random.Random(seed), random.Random(seed)
            expected = [expected_rng.randrange(1 << level) for level in levels]
            drawn = self.draws(kernel_rng, levels)
            for n in _RNG_CHECK_BOUNDS:
                expected += [expected_rng.randrange(n) for _ in range(run)]
                drawn += self.randranges(kernel_rng, n, run)
            expected += [expected_rng.random() for _ in range(run)]
            drawn += self.uniforms(kernel_rng, run)
            placement = list(range(run))
            expected_rng.shuffle(placement)
            expected += placement
            drawn += self.shuffled_range(kernel_rng, run)
            expected += [expected_rng.random() for _ in range(run)]
            drawn += self.word_uniforms(kernel_rng, run)
            for words in (True, False):
                repeated = list(range(run))
                for index in range(1, run):
                    if expected_rng.random() < 0.5:
                        repeated[index] = repeated[index - 1]
                expected += repeated
                values = array("q", range(run))
                self.repeat(kernel_rng, values, 1, 0, 0.5, words)
                drawn += values
            if drawn != expected:
                return False
            if kernel_rng.getstate() != expected_rng.getstate():
                return False
        return True

    def _zipf_matches(self) -> bool:
        """Whether the PCG64 port draws what its Python reference draws: for
        each seed and size, the permutation, ``random(k)``, then Zipf chunks
        over a CDF with zero-mass ranks, with and without the permutation."""
        from repro.workloads.zipf import PCG64

        run = _RNG_CHECK_RUN
        for seed in _ZIPF_CHECK_SEEDS:
            for n in _ZIPF_CHECK_SIZES:
                weights = [0.0 if rank % 3 == 1 else float((n - rank) ** 2) for rank in range(n)]
                cumulative = list(itertools.accumulate(weights))
                cdf = array("d", [value / cumulative[-1] for value in cumulative])
                reference = PCG64(seed)
                permutation = reference.permutation(n)
                expected = [
                    permutation,
                    reference.random(run),
                    reference.zipf(cdf, permutation, run),
                    reference.zipf(cdf, None, run),
                ]
                state, identifiers = self.zipf_generator(seed, n, True)
                address = cdf.buffer_info()[0]
                drawn = [
                    identifiers.tolist(),
                    self.pcg64_uniforms(state, run).tolist(),
                    self.zipf_draws(state, address, n, identifiers, run).tolist(),
                    self.zipf_draws(state, address, n, None, run).tolist(),
                ]
                if drawn != expected:
                    return False
        return True

    def _seeded_placement_matches(self) -> bool:
        """Whether :meth:`seeded_placement` draws ``random.Random(seed)``'s shuffle."""
        n = _SEEDED_CHECK_NODES
        for seed in _SEEDED_CHECK_SEEDS:
            expected = list(range(n))
            random.Random(seed).shuffle(expected)
            inverse = [0] * n
            for node, element in enumerate(expected):
                inverse[element] = node
            elem_at, node_of = self.seeded_placement(seed, n)
            if elem_at.tolist() != expected or node_of.tolist() != inverse:
                return False
        return True

    @staticmethod
    def _rng_in(state, rng: random.Random):
        """Copy ``rng``'s state into ``state``; return the write-back call."""
        version, words, gauss = rng.getstate()
        if len(words) != 625:  # the C port reads 624 words and an index
            raise ValueError(f"not a Mersenne Twister state: {len(words)} words")
        mt = array("I", words[:-1])
        state.mt = mt.buffer_info()[0]
        state.mt_index = words[-1]
        return lambda: rng.setstate((version, (*mt, state.mt_index), gauss))

    def _checked(self, chunk, n: int) -> Tuple[int, int, array]:
        """:func:`_requests` of ``chunk``, bounds-checked whole in C.

        An element outside ``0..n-1``, or beyond 64 bits, raises
        ``OnlineTreeAlgorithm._check_batch_bounds``'s
        :class:`~repro.exceptions.MappingError` before any of the chunk is
        served.
        """
        try:
            address, count, owner = _requests(chunk)
        except OverflowError:
            raise _outside(chunk, n) from None
        if self._first_outside(address, count, n) < count:
            raise _outside(owner, n)
        return address, count, owner


class SeededTrees:
    """One set of kernel buffers that serves seeded trees one after another.

    Owns everything a tree without Python objects is served in, for the
    chunk function ``function`` on ``n``-node trees: the placement
    (``elem_at``, ``node_of``) and the rotor pointers (Rotor-Push), the LRU
    index (Move-Half, Max-Push), the Mersenne Twister words (Random-Push)
    or the per-element request counts (Static-Opt), one ``serve_state``
    pointing at them, and a buffer for remapped destinations.  :meth:`draw`
    draws a tree afresh in C over whatever the buffers held, and
    :meth:`serve_chunks` serves chunks on the tree drawn last, as often as
    it is called.  :func:`repro.network.multi_source.serve_source_by_source`
    draws and serves every source of a trial through one owner and
    allocates nothing per source; :meth:`serve` is the two composed, and
    :meth:`CascadeKernel.serve_seeded` is one owner serving one tree.
    A live source (:class:`repro.serve.engine.ServeEngine`) keeps its own
    owner, drawn once when it binds, and serves each batch on it.
    """

    __slots__ = (
        "function", "n", "_kernel", "_chunk_function", "_buffers", "_state",
        "_reference", "_elements", "_ranked",
    )

    def __init__(self, kernel: CascadeKernel, function: str, n: int) -> None:
        self._chunk_function = kernel._functions[function]
        if function == "static_opt":
            buffers: Dict[str, Union[array, int]] = {"counts": _zeros("q", n)}
        else:
            buffers = {"elem_at": _zeros("q", n), "node_of": _zeros("q", n)}
        if function == "rotor_push":
            buffers["pointers"] = _zeros("q", n >> 1)
        elif function == "random_push":
            buffers["mt"] = _zeros("I", 624)
        elif function in ("move_half", "max_push"):
            buffers.update(_lru_layout(n))
        buffers["n_elements"] = n
        self.function = function
        self.n = n
        self._kernel = kernel
        self._buffers = buffers  # the state holds their addresses
        self._state = kernel._state(buffers)
        self._reference = kernel._byref(self._state)
        self._elements: Optional[array] = None  # remapped destinations, made on first use
        self._ranked = False  # Static-Opt: counts sorted by rank since the draw

    @property
    def access_total(self) -> int:
        """The access cost served since the last :meth:`draw`."""
        return self._state.access_total

    @property
    def adjustment_total(self) -> int:
        """The adjustment cost served since the last :meth:`draw`."""
        return self._state.adjustment_total

    def draw(self, placement_seed: int, algorithm_seed: int) -> None:
        """Draw a fresh tree into these buffers, over whatever they held.

        The tree is the one ``make_algorithm`` builds for the algorithm whose
        ``kernel`` is :attr:`function`, from int seeds, and one C call
        (``seeded_tree``) draws it: the placement of
        :meth:`CascadeKernel.seeded_placement`, then zeroed rotor pointers
        (Rotor-Push), the fresh index that
        :class:`~repro.algorithms.lru_index.LevelLRUIndex` builds (Move-Half,
        Max-Push) or a Mersenne Twister keyed as
        ``random.Random(algorithm_seed)`` (Random-Push); Static-Oblivious
        serves on the placement as drawn.  The totals, clock and error
        level start at zero.  Static-Opt draws no placement (see
        :meth:`serve_chunks`).  A placement that is no bijection onto the
        elements raises :class:`~repro.exceptions.MappingError`.
        """
        function = self.function
        key = _seed_key(placement_seed) if function != "static_opt" else _NO_KEY
        algorithm_key = _seed_key(algorithm_seed) if function == "random_push" else _NO_KEY
        checked = self._kernel._seeded_tree(
            self._reference, key.buffer_info()[0], len(key),
            algorithm_key.buffer_info()[0], len(algorithm_key),
        )
        if checked != self.n:
            raise MappingError(
                f"placement is not a bijection onto elements 0..n-1 (node {checked})"
            )
        self._ranked = False

    def serve_chunks(
        self,
        chunks: Iterable[Sequence[int]],
        records: Optional[RequestRecordColumns] = None,
        source: Optional[int] = None,
        n_nodes: int = 0,
    ) -> Tuple[int, int, int]:
        """Serve chunks on the tree :meth:`draw` drew last, where it lies.

        Each chunk (a list or an ``array('q')``, of any length) goes to the
        chunk function as it arrives; an ``array('q')`` is read where it
        lies, a list is copied into one.  It is checked whole first, and a
        rejected chunk serves nothing of itself.  Without ``source`` a chunk
        holds elements, and one outside ``0..n-1`` raises
        ``OnlineTreeAlgorithm._check_batch_bounds``'s
        :class:`~repro.exceptions.MappingError`.  With ``source`` it holds
        the destinations of that source of an ``n_nodes``-node network,
        which one C pass maps to elements (destination ``d`` is element
        ``d - (d > source)``) into this owner's buffer; a destination that
        is the source or no node raises
        ``repro.network.single_source.elements_of``'s
        :class:`AlgorithmError`.  A request that finds no eligible element
        on a level raises the reference's :class:`AlgorithmError` ("no
        eligible element on level L").  Returns ``(requests served by this
        call, access_total, adjustment_total)``, the totals since the draw.

        With ``records`` (a :class:`~repro.core.cost.RequestRecordColumns`),
        each chunk's int32 level and swap columns are filled in C, and the
        served requests are appended to it; a rejected chunk appends
        nothing.  Static-Opt only counts requests per element, and its
        access total is the sum, over BFS rank ``r``, of the ``r``-th
        largest count times ``level(r) + 1``, which is what its frequency
        placement costs.  That ranks the counts in place, so Static-Opt,
        an offline algorithm, takes its whole sequence in one call per
        draw; it keeps no records here, since its levels are known only
        once every request is counted.
        """
        function = self.function
        if function == "static_opt":
            if records is not None:
                raise ValueError("Static-Opt's records need the whole sequence first")
            if self._ranked:
                raise ValueError("Static-Opt serves its whole sequence in one call per draw")
            self._ranked = True
        kernel, state, reference, n = self._kernel, self._state, self._reference, self.n
        serve = self._chunk_function
        served = 0
        for chunk in chunks:
            if source is None:
                address, count, owner = kernel._checked(chunk, n)
            else:
                address, count, owner = self._source_elements(chunk, source, n_nodes)
            if records is not None:
                levels, swaps = _zeros("i", count), _zeros("i", count)
                state.levels = levels.buffer_info()[0]
                state.swaps = swaps.buffer_info()[0]
            done = serve(reference, address, count)
            served += done
            if records is not None:
                if len(owner) != done:
                    owner = owner[:done]
                if done < count:
                    levels, swaps = levels[:done], swaps[:done]
                records.extend_fields(owner, levels, swaps)
            if done < count:
                raise AlgorithmError(f"no eligible element on level {state.error_level}")
        if function == "static_opt":
            kernel._static_opt_total(reference)
        return served, state.access_total, state.adjustment_total

    def serve(
        self,
        placement_seed: int,
        algorithm_seed: int,
        chunks: Iterable[Sequence[int]],
        records: Optional[RequestRecordColumns] = None,
        source: Optional[int] = None,
        n_nodes: int = 0,
    ) -> Tuple[int, int, int]:
        """Serve chunks on a fresh tree drawn into these buffers: :meth:`draw`,
        then :meth:`serve_chunks`.  Returns ``(requests, access_total,
        adjustment_total)``."""
        self.draw(placement_seed, algorithm_seed)
        return self.serve_chunks(chunks, records, source, n_nodes)

    def _source_elements(self, chunk, source: int, n_nodes: int) -> Tuple[int, int, array]:
        """``chunk``'s destinations as elements in this owner's buffer:
        ``(address, count, buffer)``, checked whole (see :meth:`serve_chunks`)."""
        try:
            address, count, words = _requests(chunk)
        except (OverflowError, TypeError):
            raise _unreachable(chunk, source, n_nodes) from None
        elements = self._elements
        if elements is None or len(elements) < count:
            elements = self._elements = _zeros("q", count)
        target = elements.buffer_info()[0]
        if self._kernel._source_elements(address, target, count, source, n_nodes) < count:
            raise _unreachable(chunk if type(chunk) is list else words, source, n_nodes)
        return target, count, elements

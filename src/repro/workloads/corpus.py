"""Corpus-derived request workloads (the paper's Q5 pipeline).

The paper extracts request sequences from books by sliding a window of three
letters over the text, one character at a time: the first request is the triple
of characters 1-3, the second the triple of characters 2-4, and so on.  The
element universe is the set of distinct triples appearing in the text.

This module implements that exact pipeline.  Because the tree substrate needs a
complete binary tree, the universe is padded up to the next ``2**k - 1`` size
with elements that are never requested (this only adds unused leaves and does
not change any algorithm's cost on the requested elements); the padding is
reported in the workload parameters.

Texts can come from the deterministic synthetic corpus
(:mod:`repro.workloads.synthetic_text`) or from real files on disk via
:meth:`CorpusWorkload.from_file`, so the original Canterbury-corpus experiment
can be reproduced verbatim when the data is available.

The pipeline is registered in the spec registry as the ``corpus`` kind — a
*recipe* kind: the spec carries the book-generation parameters (or a file
path), and the builder re-runs the sliding-window pipeline worker-side.
Plans therefore ship a few integers per corpus trial instead of the whole
trace.  A built :class:`CorpusWorkload` still *ships* as its materialised
``fixed-sequence`` spec (``to_spec``), because an already-built corpus trace
is data, not a recipe.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import WorkloadError
from repro.types import ElementId
from repro.workloads.base import SequenceWorkload
from repro.workloads.spec import WorkloadSpec, register_workload
from repro.workloads.synthetic_text import (
    DEFAULT_BOOK_SPECS,
    SyntheticBook,
    generate_book,
)

__all__ = [
    "sliding_window_tokens",
    "tokens_to_requests",
    "next_complete_size",
    "CorpusWorkload",
    "synthetic_corpus_specs",
]


def sliding_window_tokens(text: str, window: int = 3) -> List[str]:
    """Return all length-``window`` substrings of ``text``, sliding by one character."""
    if window <= 0:
        raise WorkloadError(f"window must be positive, got {window}")
    if len(text) < window:
        return []
    return [text[i : i + window] for i in range(len(text) - window + 1)]


def tokens_to_requests(tokens: List[str]) -> Tuple[List[ElementId], Dict[str, ElementId]]:
    """Map string tokens to dense element identifiers (first occurrence order).

    Returns the request sequence and the token-to-identifier vocabulary.
    """
    vocabulary: Dict[str, ElementId] = {}
    requests: List[ElementId] = []
    for token in tokens:
        identifier = vocabulary.get(token)
        if identifier is None:
            identifier = len(vocabulary)
            vocabulary[token] = identifier
        requests.append(identifier)
    return requests, vocabulary


def next_complete_size(n_elements: int) -> int:
    """Return the smallest complete-binary-tree size ``2**k - 1`` that is ``>= n_elements``."""
    if n_elements <= 0:
        raise WorkloadError(f"n_elements must be positive, got {n_elements}")
    size = 1
    while size < n_elements:
        size = 2 * size + 1
    return size


class CorpusWorkload(SequenceWorkload):
    """Request workload derived from a text by the sliding-window-of-three pipeline.

    Attributes
    ----------
    title:
        Name of the underlying text (book title or file name).
    vocabulary:
        Mapping from letter-triple to element identifier.
    n_distinct:
        Number of distinct triples (before padding to a complete tree size).
    """

    name = "corpus"

    def __init__(self, title: str, text: str, window: int = 3) -> None:
        tokens = sliding_window_tokens(text, window=window)
        if not tokens:
            raise WorkloadError(
                f"text of corpus workload {title!r} is shorter than the window ({window})"
            )
        requests, vocabulary = tokens_to_requests(tokens)
        universe = next_complete_size(len(vocabulary))
        super().__init__(universe, requests)
        self.title = title
        self.window = window
        self.vocabulary = vocabulary
        self.n_distinct = len(vocabulary)

    @classmethod
    def from_book(cls, book: SyntheticBook, window: int = 3) -> "CorpusWorkload":
        """Build a workload from a synthetic (or otherwise constructed) book."""
        return cls(book.title, book.text, window=window)

    @classmethod
    def from_file(cls, path: str, window: int = 3, encoding: str = "utf-8") -> "CorpusWorkload":
        """Build a workload from a text file (e.g. a real Canterbury-corpus book)."""
        file_path = Path(path)
        text = file_path.read_text(encoding=encoding, errors="ignore")
        return cls(file_path.name, text, window=window)

    def parameters(self):
        params = super().parameters()
        params.update(
            {
                "title": self.title,
                "window": self.window,
                "n_distinct_tokens": self.n_distinct,
                "padded_universe": self.n_elements,
            }
        )
        return params


#: Parameters of :func:`repro.workloads.synthetic_text.generate_book` that a
#: ``corpus`` spec may carry (besides ``book_seed``), with their coercions.
_BOOK_PARAM_TYPES = {
    "n_words": int,
    "vocabulary_size": int,
    "zipf_exponent": float,
    "reuse_probability": float,
    "reuse_window": int,
    "title": str,
}


@register_workload("corpus")
def _build_corpus(params: Dict[str, object], seed: Optional[int]) -> CorpusWorkload:
    """Rebuild a corpus workload from its recipe (synthetic book or file).

    ``seed`` (the spec's trial-stamped seed slot) is ignored: a corpus trace
    is deterministic data named by its recipe, like every other sequence
    workload.  The synthetic book's own seed travels as the ``book_seed``
    parameter instead.
    """
    del seed
    window = int(params.get("window", 3))
    if "path" in params:
        return CorpusWorkload.from_file(
            str(params["path"]),
            window=window,
            encoding=str(params.get("encoding", "utf-8")),
        )
    if "book_seed" not in params:
        raise WorkloadError(
            "a 'corpus' spec needs either a 'path' (file-backed) or a "
            "'book_seed' plus book parameters (synthetic)"
        )
    book_kwargs = {
        name: coerce(params[name])
        for name, coerce in _BOOK_PARAM_TYPES.items()
        if name in params
    }
    book = generate_book(seed=int(params["book_seed"]), **book_kwargs)
    return CorpusWorkload.from_book(book, window=window)


def synthetic_corpus_specs(
    n_books: int = 5,
    scale: float = 1.0,
    window: int = 3,
) -> List[WorkloadSpec]:
    """Return ``corpus`` recipe specs for the synthetic corpus.

    Building each returned spec reproduces, bit for bit,
    ``CorpusWorkload.from_book`` of the matching book of
    :func:`repro.workloads.synthetic_text.synthetic_corpus` with the same
    arguments — but as a few integers of recipe instead of a materialised
    trace, so plans can ship the corpus across process boundaries and cache
    it by content.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    if n_books > len(DEFAULT_BOOK_SPECS):
        raise WorkloadError(
            f"requested {n_books} books but only "
            f"{len(DEFAULT_BOOK_SPECS)} specifications exist"
        )
    specs: List[WorkloadSpec] = []
    for index, book_spec in enumerate(DEFAULT_BOOK_SPECS[:n_books], start=1):
        parameters = dict(book_spec)
        parameters["n_words"] = max(50, int(int(parameters["n_words"]) * scale))
        parameters.setdefault("title", f"book{index}")
        book_seed = int(parameters.pop("seed"))
        specs.append(
            WorkloadSpec.create(
                "corpus", book_seed=book_seed, window=window, **parameters
            )
        )
    return specs

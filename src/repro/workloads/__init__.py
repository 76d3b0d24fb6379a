"""Request-sequence generators used by the experiments.

The generators mirror the paper's methodology (Section 6.1):

* :class:`~repro.workloads.uniform.UniformWorkload` - locality-free baseline;
* :class:`~repro.workloads.temporal.TemporalWorkload` - repeat-probability ``p``
  temporal locality (Q2);
* :class:`~repro.workloads.zipf.ZipfWorkload` - Zipf spatial locality (Q3);
* :class:`~repro.workloads.composite.CombinedLocalityWorkload` - the Q4 grid;
* :class:`~repro.workloads.corpus.CorpusWorkload` - sliding-window text traces
  (Q5), with a deterministic synthetic corpus standing in for the Canterbury
  books;
* :class:`~repro.workloads.markov.MarkovWorkload` - clustered Markovian traffic
  used by the network substrate examples;
* :mod:`~repro.workloads.adversarial` - the Lemma 8 and Section 1.1 adaptive
  adversaries, described declaratively by
  :class:`~repro.workloads.adversarial.AdversarySpec`.

Scenario-library kinds registered here: ``corpus`` (synthetic-book recipe or
file-backed), ``trace_file`` (replay of :mod:`~repro.workloads.trace_io`
dumps, metadata round-tripped) and ``round_robin_path`` (the Section 1.1
non-adaptive construction) — so every scenario the repo knows about ships as
spec data inside plan documents.
"""

from repro.workloads.adversarial import (
    AdversarySpec,
    MoveToFrontLowerBoundAdversary,
    RotorPushWorkingSetAdversary,
    RoundRobinPathWorkload,
    build_adversary,
    check_adversary_kind,
    register_adversary,
    registered_adversary_kinds,
    round_robin_path_sequence,
    working_set_adversary_nodes,
)
from repro.workloads.base import SequenceWorkload, WorkloadGenerator
from repro.workloads.composite import CombinedLocalityWorkload
from repro.workloads.corpus import (
    CorpusWorkload,
    next_complete_size,
    sliding_window_tokens,
    synthetic_corpus_specs,
    tokens_to_requests,
)
from repro.workloads.markov import MarkovWorkload
from repro.workloads.spec import (
    DEFAULT_CHUNK_SIZE,
    WorkloadSpec,
    build_workload,
    register_workload,
    registered_kinds,
)
from repro.workloads.synthetic_text import (
    DEFAULT_BOOK_SPECS,
    SyntheticBook,
    generate_book,
    synthetic_corpus,
)
from repro.workloads.temporal import TemporalWorkload, apply_temporal_locality
from repro.workloads.trace_io import (
    TraceFileWorkload,
    load_trace,
    load_trace_workload,
    save_trace,
    trace_digest,
)
from repro.workloads.uniform import UniformWorkload
from repro.workloads.zipf import ZipfWorkload, zipf_probabilities

__all__ = [
    "AdversarySpec",
    "CombinedLocalityWorkload",
    "CorpusWorkload",
    "DEFAULT_BOOK_SPECS",
    "DEFAULT_CHUNK_SIZE",
    "WorkloadSpec",
    "build_adversary",
    "build_workload",
    "check_adversary_kind",
    "register_adversary",
    "register_workload",
    "registered_adversary_kinds",
    "registered_kinds",
    "MarkovWorkload",
    "MoveToFrontLowerBoundAdversary",
    "RotorPushWorkingSetAdversary",
    "RoundRobinPathWorkload",
    "SequenceWorkload",
    "SyntheticBook",
    "TemporalWorkload",
    "TraceFileWorkload",
    "UniformWorkload",
    "WorkloadGenerator",
    "ZipfWorkload",
    "apply_temporal_locality",
    "generate_book",
    "load_trace",
    "load_trace_workload",
    "next_complete_size",
    "round_robin_path_sequence",
    "save_trace",
    "sliding_window_tokens",
    "synthetic_corpus",
    "synthetic_corpus_specs",
    "tokens_to_requests",
    "trace_digest",
    "working_set_adversary_nodes",
    "zipf_probabilities",
]

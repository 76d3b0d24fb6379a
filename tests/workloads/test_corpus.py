"""Tests for the synthetic corpus and the sliding-window corpus pipeline."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.corpus import (
    CorpusWorkload,
    next_complete_size,
    sliding_window_tokens,
    tokens_to_requests,
)
from repro.workloads.synthetic_text import (
    DEFAULT_BOOK_SPECS,
    generate_book,
    synthetic_corpus,
)


def corpus_workloads(n_books: int, scale: float):
    return [
        CorpusWorkload.from_book(book)
        for book in synthetic_corpus(n_books=n_books, scale=scale)
    ]


class TestSlidingWindow:
    def test_tokens_slide_by_one_character(self):
        assert sliding_window_tokens("abcde", window=3) == ["abc", "bcd", "cde"]

    def test_short_text_gives_no_tokens(self):
        assert sliding_window_tokens("ab", window=3) == []

    def test_invalid_window(self):
        with pytest.raises(WorkloadError):
            sliding_window_tokens("abc", window=0)

    def test_tokens_to_requests_assigns_dense_ids(self):
        requests, vocabulary = tokens_to_requests(["abc", "bcd", "abc"])
        assert requests == [0, 1, 0]
        assert vocabulary == {"abc": 0, "bcd": 1}


class TestNextCompleteSize:
    def test_exact_sizes_are_kept(self):
        assert next_complete_size(7) == 7
        assert next_complete_size(15) == 15

    def test_padding_up(self):
        assert next_complete_size(8) == 15
        assert next_complete_size(5_000) == 8_191

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            next_complete_size(0)


class TestSyntheticBooks:
    def test_books_are_deterministic(self):
        assert generate_book(seed=1, n_words=200).text == generate_book(seed=1, n_words=200).text

    def test_different_seeds_differ(self):
        assert generate_book(seed=1, n_words=200).text != generate_book(seed=2, n_words=200).text

    def test_word_count_matches(self):
        book = generate_book(seed=3, n_words=500)
        assert book.n_words == 500
        assert len(book.text.split()) == 500

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            generate_book(seed=1, n_words=0)
        with pytest.raises(WorkloadError):
            generate_book(seed=1, vocabulary_size=2)
        with pytest.raises(WorkloadError):
            generate_book(seed=1, reuse_probability=1.5)

    def test_corpus_has_five_default_books(self):
        corpus = synthetic_corpus(scale=0.02)
        assert len(corpus) == 5
        assert len({book.title for book in corpus}) == 5

    def test_corpus_scale_shrinks_books(self):
        small = synthetic_corpus(scale=0.02)[0]
        large = synthetic_corpus(scale=0.05)[0]
        assert len(small.text) < len(large.text)

    def test_corpus_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            synthetic_corpus(scale=0.0)
        with pytest.raises(WorkloadError):
            synthetic_corpus(n_books=10)

    def test_default_specs_have_varied_lengths(self):
        lengths = [spec["n_words"] for spec in DEFAULT_BOOK_SPECS]
        assert len(set(lengths)) > 1


class TestCorpusWorkload:
    def test_built_from_text(self):
        workload = CorpusWorkload("mini", "hello world, hello again")
        sequence = workload.full_sequence()
        assert len(sequence) == len("hello world, hello again") - 2
        assert workload.n_distinct == len(set(sliding_window_tokens("hello world, hello again")))

    def test_universe_padded_to_complete_size(self):
        workload = CorpusWorkload("mini", "hello world, hello again")
        assert next_complete_size(workload.n_distinct) == workload.n_elements

    def test_text_shorter_than_window_rejected(self):
        with pytest.raises(WorkloadError):
            CorpusWorkload("tiny", "ab")

    def test_from_file(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text("the quick brown fox jumps over the lazy dog")
        workload = CorpusWorkload.from_file(str(path))
        assert workload.title == "book.txt"
        assert len(workload.full_sequence()) > 0

    def test_synthetic_corpus_workloads(self):
        workloads = corpus_workloads(n_books=2, scale=0.02)
        assert len(workloads) == 2
        for workload in workloads:
            assert workload.n_distinct <= workload.n_elements
            assert len(workload.full_sequence()) > 100

    def test_parameters_include_padding_information(self):
        workload = corpus_workloads(n_books=1, scale=0.02)[0]
        params = workload.parameters()
        assert params["padded_universe"] == workload.n_elements
        assert params["n_distinct_tokens"] == workload.n_distinct

    def test_sequences_are_runnable_by_algorithms(self):
        from repro.algorithms import make_algorithm

        workload = corpus_workloads(n_books=1, scale=0.02)[0]
        sequence = workload.full_sequence()[:2_000]
        algorithm = make_algorithm("rotor-push", n_nodes=workload.n_elements, placement_seed=1)
        result = algorithm.run(sequence)
        assert result.n_requests == len(sequence)

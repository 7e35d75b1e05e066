"""Equivalence tests: fast kernels vs the retained reference kernels.

Every vectorized/blocked/sparse hot path must reproduce its reference
implementation from :mod:`tests.reference_kernels` — to 1e-12 for float
results, bit-identically for integer count state and RNG-consuming
draws.  These tests are the contract that lets ``bench_hotpaths.py``
honestly claim speedups: same numbers, less time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lda_gibbs import ENV_REFERENCE_SWEEP, LDAGibbs
from repro.cathy.em import endpoint_one_hot, link_incidence
from repro.corpus import Corpus, Vocabulary
from repro.hierarchy import Topic, TopicalHierarchy
from repro.phrases import (FlatTopicModel, PhraseCounts, TopicPhraseTable,
                           compute_topic_phrase_frequencies,
                           document_phrase_instances, make_merge_scorer,
                           merge_significance,
                           mine_frequent_phrases_from_chunks,
                           phrase_topic_posterior, segment_chunk,
                           split_frequencies, topical_frequencies)
from repro.roles import RoleAnalyzer
from .reference_kernels import (legacy_gibbs_sweep,
                                reference_document_topic_frequencies,
                                reference_entity_phrases,
                                reference_entity_topic_frequencies,
                                reference_gibbs_conditional,
                                reference_log_likelihood,
                                reference_mine_chunks,
                                reference_phrase_topic_posterior,
                                reference_scatter, reference_segment_chunk,
                                reference_split_frequencies,
                                reference_topical_frequencies)

pytest.importorskip("scipy")


def _random_chain(rng, num_docs=20, vocab=40, doc_len=(3, 15)):
    """A small random corpus: token docs plus a phrase partition."""
    docs = [rng.integers(0, vocab, size=rng.integers(*doc_len)).tolist()
            for _ in range(num_docs)]
    partitions = []
    for doc in docs:
        parts, at = [], 0
        while at < len(doc):
            size = int(min(rng.integers(1, 4), len(doc) - at))
            parts.append(tuple(doc[at:at + size]))
            at += size
        partitions.append(parts)
    return docs, partitions


class TestGibbsKernelEquivalence:
    @pytest.mark.parametrize("phrased", [False, True])
    def test_fast_sweep_matches_reference_bitwise(self, phrased, monkeypatch):
        """Same seed, fast vs forced-reference sweep: identical chains."""
        monkeypatch.delenv("REPRO_REQUIRE_FAST_KERNELS", raising=False)
        rng = np.random.default_rng(7)
        docs, partitions = _random_chain(rng)
        kwargs = dict(num_topics=6, alpha=0.3, beta=0.05, iterations=8)

        monkeypatch.delenv(ENV_REFERENCE_SWEEP, raising=False)
        fast = LDAGibbs(seed=123, **kwargs).fit(
            docs, vocab_size=40, partitions=partitions if phrased else None)
        monkeypatch.setenv(ENV_REFERENCE_SWEEP, "1")
        ref = LDAGibbs(seed=123, **kwargs).fit(
            docs, vocab_size=40, partitions=partitions if phrased else None)

        for a, b in zip(fast.assignments, ref.assignments):
            assert (np.asarray(a) == np.asarray(b)).all()
        assert (fast.phi == ref.phi).all()
        assert (fast.theta == ref.theta).all()
        assert fast.log_likelihood == ref.log_likelihood

    def test_linear_conditional_matches_log_reference(self):
        """The fast kernel's linear-space conditional vs the log-space
        ground truth, on random count states, to 1e-12."""
        rng = np.random.default_rng(11)
        k, vocab = 7, 25
        alpha, beta = 0.2, 0.01
        beta_sum = beta * vocab
        for trial in range(30):
            n_kw = rng.integers(0, 9, size=(k, vocab)).astype(np.int64)
            n_k = n_kw.sum(axis=1)
            n_dk_row = rng.integers(0, 6, size=k).astype(np.int64)
            unit = tuple(rng.integers(0, vocab,
                                      size=rng.integers(1, 4)).tolist())
            # Replicate the fast kernel's linear-space arithmetic.
            p = n_dk_row + alpha
            for offset, w in enumerate(unit):
                p = p * (n_kw[:, w] + beta) / (n_k + beta_sum + offset)
            p = p / p.sum()
            ref = reference_gibbs_conditional(n_dk_row, n_kw, n_k, unit,
                                              alpha, beta, beta_sum)
            np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-14)

    def test_legacy_sweep_preserves_count_invariants(self):
        """The benchmark baseline still maintains valid sampler state."""
        rng = np.random.default_rng(3)
        docs, partitions = _random_chain(rng, num_docs=8)
        k, vocab = 4, 40
        units = [[tuple(p) for p in doc] for doc in partitions]
        n_dk = np.zeros((len(units), k), dtype=np.int64)
        n_kw = np.zeros((k, vocab), dtype=np.int64)
        n_k = np.zeros(k, dtype=np.int64)
        assignments = []
        for d, doc_units in enumerate(units):
            labels = rng.integers(0, k, size=len(doc_units))
            assignments.append(labels)
            for unit, z in zip(doc_units, labels):
                n_dk[d, z] += len(unit)
                n_k[z] += len(unit)
                for w in unit:
                    n_kw[z, w] += 1
        total = int(n_k.sum())
        legacy_gibbs_sweep(units, assignments, n_dk, n_kw, n_k,
                           alpha=0.1, beta=0.01, beta_sum=0.01 * vocab,
                           rng=np.random.default_rng(99))
        assert int(n_k.sum()) == total
        assert (n_kw.sum(axis=1) == n_k).all()
        assert (n_dk.sum(axis=0) == n_k).all()
        assert (n_dk >= 0).all() and (n_kw >= 0).all()


class TestLogLikelihoodRegression:
    def test_count_based_ll_pins_loop_version(self):
        """S1: the scatter+contract ll equals the historical triple loop."""
        rng = np.random.default_rng(5)
        docs, partitions = _random_chain(rng, num_docs=15)
        units = [[tuple(p) for p in doc] for doc in partitions]
        k, vocab = 5, 40
        assignments = [rng.integers(0, k, size=len(doc_units))
                       for doc_units in units]
        phi = rng.random((k, vocab))
        phi /= phi.sum(axis=1, keepdims=True)
        fast = LDAGibbs._log_likelihood(units, assignments, phi)
        ref = reference_log_likelihood(units, assignments, phi)
        assert math.isclose(fast, ref, rel_tol=1e-12, abs_tol=1e-9)

    def test_empty_units(self):
        phi = np.full((2, 3), 0.5)
        assert LDAGibbs._log_likelihood([[]], [np.empty(0, int)], phi) == 0.0
        assert reference_log_likelihood([[]], [[]], phi) == 0.0


class TestCathySparseProducts:
    def test_incidence_product_matches_scatter(self):
        """``expected @ incidence`` (the sparse M-step) vs the add.at
        reference scatter, including duplicate and self links."""
        rng = np.random.default_rng(13)
        num_nodes, num_links, k = 30, 120, 4
        i_idx = rng.integers(0, num_nodes, size=num_links)
        j_idx = rng.integers(0, num_nodes, size=num_links)
        expected = rng.random((k, num_links))
        incidence = link_incidence(i_idx, j_idx, num_nodes)
        fast = np.asarray(expected @ incidence)
        ref = reference_scatter(expected, i_idx, j_idx, num_nodes)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-14)

    def test_endpoint_one_hot_matches_bincount(self):
        rng = np.random.default_rng(17)
        num_nodes, num_links, k = 12, 60, 3
        idx = rng.integers(0, num_nodes, size=num_links)
        expected = rng.random((k, num_links))
        one_hot = endpoint_one_hot(idx, num_nodes)
        fast = np.asarray(expected @ one_hot)
        ref = np.stack([np.bincount(idx, weights=expected[z],
                                    minlength=num_nodes)
                        for z in range(k)])
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-14)


class TestSegmentationHeapEquivalence:
    def _counts(self, chunks):
        return mine_frequent_phrases_from_chunks(
            chunks, min_support=2, max_length=5,
            num_tokens=sum(len(c) for c in chunks))

    def test_heap_matches_rescan_on_random_chunks(self):
        rng = np.random.default_rng(19)
        chunks = [rng.integers(0, 6, size=rng.integers(1, 14)).tolist()
                  for _ in range(60)]
        counts = self._counts(chunks)
        for chunk in chunks:
            assert segment_chunk(chunk, counts, alpha=1.5) == \
                reference_segment_chunk(chunk, counts, alpha=1.5)

    def test_heap_matches_rescan_with_ties(self):
        """Repeated bigrams force equal significances; the earliest
        adjacent pair must win in both implementations."""
        chunks = [[0, 1, 0, 1, 0, 1]] * 4 + [[2, 0, 1, 2]] * 3
        counts = self._counts(chunks)
        for chunk in chunks:
            assert segment_chunk(chunk, counts, alpha=0.1) == \
                reference_segment_chunk(chunk, counts, alpha=0.1)


class TestMergeScorerEquivalence:
    def test_scorer_matches_unbound_function(self):
        rng = np.random.default_rng(23)
        chunks = [rng.integers(0, 8, size=rng.integers(2, 10)).tolist()
                  for _ in range(40)]
        counts = mine_frequent_phrases_from_chunks(
            chunks, min_support=2, num_tokens=sum(len(c) for c in chunks))
        scorer = make_merge_scorer(counts)
        phrases = counts.phrases(max_length=2)
        for left in phrases[:15]:
            for right in phrases[:15]:
                counts.merge_cache.clear()
                via_scorer = scorer(left, right)
                counts.merge_cache.clear()
                via_function = merge_significance(counts, left, right)
                assert via_scorer == via_function  # bit-identical
        scorer.flush()


class TestRoleAttributionEquivalence:
    """The vectorised Eq. 5.4–5.6 attribution against the per-document
    recursion: identical key sets (and key order per document) and
    bit-identical floats."""

    @staticmethod
    def _reference(roles, table):
        instances = document_phrase_instances(roles.corpus, roles.counts)
        docs = reference_document_topic_frequencies(
            roles.hierarchy, table, instances)
        return docs, instances

    def _assert_equivalent(self, roles, table):
        ref_docs, instances = self._reference(roles, table)
        fast_docs = roles.document_topic_frequencies()
        assert [list(d.items()) for d in fast_docs] == \
            [list(d.items()) for d in ref_docs]
        for etype in roles.corpus.entity_types():
            ref = reference_entity_topic_frequencies(roles.corpus, ref_docs,
                                                     etype)
            fast = roles.entity_topic_frequencies(etype)
            assert list(fast) == list(ref)  # first-appearance order
            for name, bucket in ref.items():
                assert fast[name] == bucket  # same keys, == on floats
        return ref_docs, instances

    def test_mined_fixture_matches_reference(self):
        from repro.core import LatentEntityMiner, MinerConfig
        from repro.datasets import DBLPConfig, generate_dblp
        dataset = generate_dblp(DBLPConfig(max_authors=100), seed=3)
        result = LatentEntityMiner(
            MinerConfig(num_children=[6, 3], max_depth=2),
            seed=0).fit(dataset.corpus)
        roles = result.roles
        table, _ = compute_topic_phrase_frequencies(
            result.hierarchy, dataset.corpus, counts=roles.counts)
        ref_docs, instances = self._assert_equivalent(roles, table)
        for child in result.hierarchy.root.children[:3]:
            for author, _ in child.entity_ranks["author"][:3]:
                assert roles.entity_phrases(
                    child.notation, "author", [author], top_k=20) == \
                    reference_entity_phrases(
                        result.hierarchy, dataset.corpus, table, ref_docs,
                        instances, child.notation, "author", [author],
                        top_k=20)

    @staticmethod
    def _random_case(rng, widths):
        vocab = Vocabulary([f"w{i}" for i in range(12)])
        corpus = Corpus(vocab)
        names = [f"e{i}" for i in range(6)]
        for d in range(40):
            if d % 9 == 0:  # no phrase instance at all
                chunks = [[11, 11]] if d % 2 else []
            else:
                chunks = [rng.integers(0, 11, size=rng.integers(1, 7))
                          .tolist() for _ in range(rng.integers(1, 4))]
            listed = rng.choice(names, size=rng.integers(0, 3)).tolist()
            if d % 7 == 0 and listed:
                listed.append(listed[0])  # one entity listed twice
            corpus.add_document(chunks, entities={"person": listed})
        phrases = {(i,): 5 for i in range(10)}
        phrases.update({(i, i + 1): 3 for i in range(0, 10, 2)})
        counts = PhraseCounts(phrases, min_support=2,
                              num_documents=len(corpus),
                              num_tokens=corpus.num_tokens)

        root = Topic(path=())
        hierarchy = TopicalHierarchy(root)
        frontier = [root]
        for width in widths:
            frontier = [parent.add_child(Topic())
                        for parent in frontier for _ in range(width)]
        table = {}
        for topic in hierarchy.topics():
            if topic.path == ():
                table["o"] = {p: float(c) for p, c in phrases.items()}
                continue
            if topic.path[-1] == 1:
                table[topic.notation] = {}  # zero share for every phrase
                continue
            # Phrase (9,) is absent from every child table.
            kept = [p for p in phrases
                    if p != (9,) and rng.random() < 0.6]
            table[topic.notation] = {
                p: float(rng.random() * 10 + (rng.random() < 0.2))
                for p in kept}
        hierarchy.phrase_table = TopicPhraseTable(
            table, counts, corpus, (2.0, 0.5, None))
        return RoleAnalyzer(hierarchy, corpus, counts=counts), table

    @pytest.mark.parametrize("widths", [[], [3], [9], [2, 3], [4, 2, 2],
                                        [10, 2], [1, 3]])
    def test_random_trees_match_reference(self, widths):
        rng = np.random.default_rng(sum(widths) * 31 + len(widths))
        roles, table = self._random_case(rng, widths)
        assert roles._table is table  # the stored table was reused
        ref_docs, instances = self._assert_equivalent(roles, table)
        assert ref_docs[0] == {"o": 1.0}  # no phrase instance
        # The always-empty child keeps a 0.0 key and is not entered.
        zero_child = roles.hierarchy.root.children[1] \
            if widths and widths[0] > 1 else None
        if zero_child is not None:
            entered = [d for d in ref_docs if len(d) > 1]
            assert entered and all(d[zero_child.notation] == 0.0
                                   for d in entered)
            for grandchild in zero_child.children:
                assert all(grandchild.notation not in d for d in ref_docs)
        for topic in list(roles.hierarchy.topics())[1:4]:
            for names in (["e0"], ["e1", "e2"], ["nobody"]):
                assert roles.entity_phrases(
                    topic.notation, "person", names, top_k=12) == \
                    reference_entity_phrases(
                        roles.hierarchy, roles.corpus, table, ref_docs,
                        instances, topic.notation, "person", names,
                        top_k=12)


def _bitwise(table):
    """A float table as (key, exact bit pattern) pairs, in key order."""
    return [(key, float(value).hex()) for key, value in table.items()]


class TestFrequentMiningEquivalence:
    """Algorithm 1 as array passes against the position loop: the same
    phrases, the same counts and the same dict insertion order."""

    @staticmethod
    def _assert_equivalent(chunks, min_support, max_length):
        fast = mine_frequent_phrases_from_chunks(
            chunks, min_support=min_support, max_length=max_length).counts
        ref = reference_mine_chunks(chunks, min_support, max_length)
        assert list(fast.items()) == list(ref.items())
        for phrase, count in fast.items():
            assert type(count) is int
            assert all(type(tok) is int for tok in phrase)
        return fast

    @settings(max_examples=300, deadline=None)
    @given(chunks=st.lists(st.lists(st.integers(0, 5), max_size=10),
                           max_size=12),
           offset=st.sampled_from([0, 1 << 21, 1 << 40]),
           min_support=st.sampled_from([1, 2, 3, 10**6]),
           max_length=st.sampled_from([1, 2, 3, 6]))
    def test_random_chunks_match_reference(self, chunks, offset,
                                           min_support, max_length):
        chunks = [[tok + offset for tok in chunk] for chunk in chunks]
        self._assert_equivalent(chunks, min_support, max_length)

    def test_empty_and_single_token_chunks(self):
        chunks = [[], [4], [], [4], [4, 4], [], [4]]
        fast = self._assert_equivalent(chunks, 2, 6)
        assert fast == {(4,): 5}
        assert self._assert_equivalent([[], []], 1, 6) == {}
        assert self._assert_equivalent([], 1, 6) == {}

    def test_phrase_ending_on_last_chunk_token(self):
        chunks = [[9, 1, 2, 3], [1, 2, 3], [7, 1, 2, 3]]
        fast = self._assert_equivalent(chunks, 3, 6)
        assert fast[(1, 2, 3)] == 3
        assert (3, 7) not in fast  # never across a chunk boundary

    def test_repeats_across_chunks_keep_first_occurrence_order(self):
        chunks = [[5, 6], [1, 2, 5, 6], [1, 2], [2, 1, 5, 6, 1, 2]]
        fast = self._assert_equivalent(chunks, 2, 6)
        assert list(fast) == [(5,), (6,), (1,), (2,), (5, 6), (1, 2)]
        assert self._assert_equivalent(chunks, 1, 2)[(2, 1)] == 1

    def test_large_token_ids_keep_exact_keys(self):
        """Ids past 2**21 would overflow a rolling base-V key over six
        tokens; prefix ranks keep every key exact."""
        rng = np.random.default_rng(31)
        alphabet = (1 << 21) + rng.integers(0, 1 << 40, size=6)
        chunks = [alphabet[rng.integers(0, 6, size=rng.integers(0, 14))]
                  .tolist() for _ in range(80)]
        for min_support, max_length in [(1, 6), (2, 2), (3, 6)]:
            fast = self._assert_equivalent(chunks, min_support, max_length)
            assert max(map(len, fast)) > 1


class TestTopicalSplitEquivalence:
    """The padded-id Eq. 4.3 split against the per-phrase loop: the same
    keys in the same order and bit-identical floats."""

    WORDS = [f"w{i}" for i in range(10)]

    def _case(self, rng, rhos, phrases, absent=("w9",)):
        corpus = Corpus(Vocabulary(self.WORDS))
        topic = Topic()
        for rho in rhos:
            probs = rng.dirichlet(np.ones(len(self.WORDS)) * 0.5)
            term_phi = {word: float(p) for word, p in zip(self.WORDS, probs)
                        if word not in absent and rng.random() < 0.8}
            topic.add_child(Topic(rho=rho, phi={"term": term_phi}))
        freq = {phrase: float(rng.random() * 20 + 0.5) for phrase in phrases}
        return topic, freq, corpus

    def _assert_equivalent(self, topic, freq, corpus):
        fast = split_frequencies(topic, freq, corpus)
        ref = reference_split_frequencies(topic, freq, corpus)
        assert [_bitwise(table) for table in fast] == \
            [_bitwise(table) for table in ref]
        return fast

    @staticmethod
    def _phrases(rng, count):
        phrases = {tuple(rng.integers(0, 10, size=rng.integers(1, 5))
                         .tolist()) for _ in range(count)}
        return sorted(phrases, key=lambda p: (rng.random(), p))

    @pytest.mark.parametrize("rhos", [[0.5, 0.3, 0.2], [1.0], [0.0, 0.6, 0.4],
                                      [0.1] * 12])
    def test_random_tables_match_reference(self, rhos):
        rng = np.random.default_rng(len(rhos) * 7 + int(rhos[0] * 10))
        phrases = self._phrases(rng, 60)
        assert len({len(p) for p in phrases}) > 1  # padded rows
        assert any(9 in p for p in phrases)  # absent from every child
        fast = self._assert_equivalent(*self._case(rng, rhos, phrases))
        assert len(fast) == len(rhos)

    def test_empty_frequencies(self):
        rng = np.random.default_rng(3)
        topic, _, corpus = self._case(rng, [0.5, 0.5], [])
        assert self._assert_equivalent(topic, {}, corpus) == [{}, {}]

    def test_word_missing_everywhere_gets_eps(self):
        rng = np.random.default_rng(5)
        topic, freq, corpus = self._case(rng, [0.7, 0.3], [(9,), (9, 9)],
                                         absent=self.WORDS)
        fast = self._assert_equivalent(topic, freq, corpus)
        # Only rho separates the children when no word has a phi entry.
        assert fast[0][(9,)] / fast[1][(9,)] == pytest.approx(7 / 3)

    def test_topical_frequencies_match_per_phrase_loop(self):
        rng = np.random.default_rng(13)
        phi = rng.dirichlet(np.ones(12) * 0.3, size=5)
        phi[:, :3] = 0.0  # EPS-floored words
        model = FlatTopicModel(rho=[0.4, 0.0, 0.3, 0.2, 0.1], phi=phi)
        phrases = {tuple(rng.integers(0, 12, size=rng.integers(1, 5))
                         .tolist()): int(rng.integers(1, 50))
                   for _ in range(80)}
        counts = PhraseCounts(phrases, min_support=1, num_documents=1,
                              num_tokens=100)
        fast = topical_frequencies(counts, model)
        ref = reference_topical_frequencies(counts, model)
        assert list(fast) == list(ref)
        for phrase, row in ref.items():
            assert fast[phrase].tobytes() == row.tobytes()
            assert phrase_topic_posterior(phrase, model).tobytes() == \
                reference_phrase_topic_posterior(phrase, model).tobytes()
        empty = PhraseCounts({}, min_support=1, num_documents=0,
                             num_tokens=0)
        assert topical_frequencies(empty, model) == {}

"""Phrase and entity decoration of a topical hierarchy (Chapters 3-4).

After CATHY/CATHYHIN builds a hierarchy, each topic is visualized with a
ranked phrase list.  Topical frequency flows down the tree by Definition 3
and Eq. 4.3: a phrase's frequency at a topic splits among the children in
proportion to ``rho_z * prod_v phi_z(v)``.  Within each topic, phrases are
ranked by pointwise KL popularity x purity against the parent (Eq. 4.9),
after a completeness filter (Eq. 4.2).

:func:`compute_topic_phrase_frequencies` exposes the per-topic frequency
tables directly.  :func:`attach_phrases` leaves the table it built on
the hierarchy (:class:`TopicPhraseTable`), and :func:`topic_phrase_table`
hands it to entity role analysis (Chapter 5) instead of recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..corpus import Corpus
from ..hierarchy import Topic, TopicalHierarchy
from ..network import TERM_TYPE
from ..obs import span
from ..utils import EPS
from .frequent import Phrase, PhraseCounts, mine_frequent_phrases
from .kert import completeness_scores
from .ranking import (padded_phrase_ids, render_phrase,
                      topical_split_scores)

TopicPhraseFrequencies = Dict[str, Dict[Phrase, float]]


@dataclass(frozen=True)
class TopicPhraseTable:
    """An Eq. 4.3 table together with the inputs that produced it.

    Stored on ``hierarchy.phrase_table`` by :func:`attach_phrases`, so a
    later caller asking for the same table (same counts object, corpus
    and options) reuses it instead of recomputing it.
    """

    frequencies: TopicPhraseFrequencies
    counts: PhraseCounts
    corpus: Corpus
    options: Tuple[float, float, Optional[int]]


def compute_topic_phrase_frequencies(hierarchy: TopicalHierarchy,
                                     corpus: Corpus,
                                     counts: Optional[PhraseCounts] = None,
                                     min_support: int = 5,
                                     max_phrase_length: int = 6,
                                     min_topical_frequency: float = 2.0,
                                     gamma: float = 0.5,
                                     max_phrase_tokens: Optional[int] = None,
                                     ) -> Tuple[TopicPhraseFrequencies,
                                                PhraseCounts]:
    """f_t(P) for every topic of the hierarchy (Definition 3 / Eq. 4.3).

    Returns (frequencies keyed by topic notation, the phrase counts used).
    Phrases failing the completeness filter (Eq. 4.2, threshold ``gamma``)
    are excluded at the root and therefore everywhere.
    """
    if counts is None:
        counts = mine_frequent_phrases(corpus, min_support=min_support,
                                       max_length=max_phrase_length)
    complete = completeness_scores(counts)
    root_freq: Dict[Phrase, float] = {
        p: float(c) for p, c in counts.counts.items()
        if complete.get(p, 1.0) > gamma
        and (max_phrase_tokens is None or len(p) <= max_phrase_tokens)}

    table: TopicPhraseFrequencies = {}

    def descend(topic: Topic, freq: Dict[Phrase, float]) -> None:
        table[topic.notation] = freq
        if not topic.children:
            return
        child_freqs = split_frequencies(topic, freq, corpus)
        for child, child_freq in zip(topic.children, child_freqs):
            kept = {p: f for p, f in child_freq.items()
                    if f >= min_topical_frequency}
            descend(child, kept)

    descend(hierarchy.root, root_freq)
    return table, counts


def topic_phrase_table(hierarchy: TopicalHierarchy, corpus: Corpus,
                       counts: Optional[PhraseCounts] = None,
                       min_support: int = 5, max_phrase_length: int = 6,
                       min_topical_frequency: float = 2.0,
                       gamma: float = 0.5,
                       max_phrase_tokens: Optional[int] = None,
                       ) -> Tuple[TopicPhraseFrequencies, PhraseCounts]:
    """:func:`compute_topic_phrase_frequencies`, reusing the hierarchy's.

    When :func:`attach_phrases` built ``hierarchy.phrase_table`` from
    this very ``counts`` object and corpus with the same options, that
    table is returned; otherwise it is computed.
    """
    cached = hierarchy.phrase_table
    if (isinstance(cached, TopicPhraseTable) and counts is not None
            and cached.counts is counts and cached.corpus is corpus
            and cached.options == (min_topical_frequency, gamma,
                                   max_phrase_tokens)):
        return cached.frequencies, counts
    return compute_topic_phrase_frequencies(
        hierarchy, corpus, counts=counts, min_support=min_support,
        max_phrase_length=max_phrase_length,
        min_topical_frequency=min_topical_frequency, gamma=gamma,
        max_phrase_tokens=max_phrase_tokens)


def split_frequencies(topic: Topic, freq: Dict[Phrase, float],
                      corpus: Corpus) -> List[Dict[Phrase, float]]:
    """Eq. 4.3: split each phrase's topic-t frequency among the children.

    All phrases are scored at once by
    :func:`~repro.phrases.ranking.topical_split_scores`; log phi is
    looked up only for the words the phrases use (``EPS`` when a child
    lacks one).  Each child's table holds the phrases with a positive
    share, in the order of ``freq``.
    """
    children = topic.children
    phrases = list(freq)
    ids, word_ids = padded_phrase_ids(phrases)
    words = [corpus.vocabulary.word_of(w) for w in word_ids.tolist()]
    term_phis = [child.phi.get(TERM_TYPE, {}) for child in children]
    probs = np.array([[term_phi.get(word, EPS) for word in words]
                      for term_phi in term_phis], dtype=float)
    log_rho = np.log(np.array([max(child.rho, EPS) for child in children]))
    scores, totals = topical_split_scores(
        log_rho, np.log(np.maximum(probs, EPS)).T, ids)
    f = np.fromiter(freq.values(), dtype=float, count=len(phrases))
    # Each total is >= 1 (the row max scores exp(0)) or NaN, whose
    # shares fail the ``> 0`` test below.
    shares = f[:, None] * scores / totals[:, None]
    child_freqs: List[Dict[Phrase, float]] = []
    for column in shares.T:
        kept = np.flatnonzero(column > 0)
        child_freqs.append(dict(zip([phrases[i] for i in kept.tolist()],
                                    column[kept].tolist())))
    return child_freqs


def phrase_rank_score(phrase_freq: float, topic_total: float,
                      parent_freq: float, parent_total: float) -> float:
    """r_t(P) of Eq. 4.9: pointwise KL of p(P|t) against p(P|parent)."""
    p_t = phrase_freq / max(topic_total, EPS)
    p_parent = parent_freq / max(parent_total, EPS)
    return p_t * float(np.log(max(p_t, EPS) / max(p_parent, EPS)))


def attach_phrases(hierarchy: TopicalHierarchy,
                   corpus: Corpus,
                   counts: Optional[PhraseCounts] = None,
                   min_support: int = 5,
                   max_phrase_length: int = 6,
                   min_topical_frequency: float = 2.0,
                   gamma: float = 0.5,
                   top_k: int = 20,
                   max_phrase_tokens: Optional[int] = None) -> PhraseCounts:
    """Populate ``topic.phrases`` for every topic of ``hierarchy``.

    Args:
        counts: pre-mined frequent phrases (mined here when omitted).
        min_topical_frequency: phrases whose estimated frequency at a
            topic falls below this are dropped from that subtree.
        gamma: completeness filter threshold (Eq. 4.6).
        max_phrase_tokens: restrict phrase length (1 reproduces the
            unigram-only CATHY1/CATHYHIN1 variants of Table 3.5).

    Returns:
        The phrase counts used (for reuse by role analysis, which also
        reuses the Eq. 4.3 table left on ``hierarchy.phrase_table``).
    """
    with span("phrases.topical_frequency"):
        table, counts = compute_topic_phrase_frequencies(
            hierarchy, corpus, counts=counts, min_support=min_support,
            max_phrase_length=max_phrase_length,
            min_topical_frequency=min_topical_frequency, gamma=gamma,
            max_phrase_tokens=max_phrase_tokens)
    hierarchy.phrase_table = TopicPhraseTable(
        table, counts, corpus,
        (min_topical_frequency, gamma, max_phrase_tokens))

    with span("phrases.ranking"):
        _rank_topics(hierarchy, corpus, table, top_k)
    return counts


def _rank_topics(hierarchy: TopicalHierarchy, corpus: Corpus,
                 table: TopicPhraseFrequencies, top_k: int) -> None:
    for topic in hierarchy.topics():
        freq = table.get(topic.notation, {})
        total = max(sum(freq.values()), EPS)
        scored: List[Tuple[Phrase, float]] = []
        if topic.path == ():
            # Root: rank by popularity alone (no contrastive parent).
            scored = [(p, f / total) for p, f in freq.items()]
        else:
            parent_notation = hierarchy.parent_of(topic).notation
            parent_freq = table.get(parent_notation, {})
            parent_total = max(sum(parent_freq.values()), EPS)
            for phrase, f in freq.items():
                score = phrase_rank_score(f, total,
                                          parent_freq.get(phrase, 0.0),
                                          parent_total)
                if score > 0:
                    scored.append((phrase, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        topic.phrases = [(render_phrase(p, corpus.vocabulary), s)
                         for p, s in scored[:top_k]]


def attach_entity_rankings(hierarchy: TopicalHierarchy,
                           entity_types: Optional[List[str]] = None,
                           top_k: int = 20) -> None:
    """Populate ``topic.entity_ranks`` from the fitted phi distributions.

    CATHYHIN already ranks every node type per topic (Section 3.2.1);
    this just materializes ordered lists for the requested entity types.
    """
    for topic in hierarchy.topics():
        types = entity_types
        if types is None:
            types = [t for t in topic.phi if t != TERM_TYPE]
        for etype in types:
            dist = topic.phi.get(etype, {})
            ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
            topic.entity_ranks[etype] = [(name, float(p))
                                         for name, p in ranked[:top_k]]

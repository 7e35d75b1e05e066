"""Frequent contiguous phrase mining (Algorithm 1, Section 4.3.1).

Collects aggregate counts of all contiguous token sequences that meet a
minimum support threshold, using two prunings:

* *position-based Apriori* (downward closure): a position stays active at
  length n only if the length-(n-1) phrase starting there is frequent;
* *data antimonotonicity*: a chunk with no active positions is dropped
  from further consideration.

Chunks (text between phrase-invariant punctuation) are processed
independently, so phrases never cross punctuation, and the worst case per
chunk is quadratic in the (small) chunk length — linear overall.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..corpus import Corpus
from ..errors import ConfigurationError
from ..obs import inc, span

Phrase = Tuple[int, ...]

#: Default capacity of the per-instance merge-significance LRU cache.
MERGE_CACHE_CAPACITY = 1 << 18


class PhraseCounts:
    """Frequent-phrase counts plus the corpus constants rankers need.

    Attributes:
        counts: mapping from phrase (tuple of token ids) to its frequency;
            contains every phrase of length >= 1 meeting ``min_support``.
        min_support: the threshold used while mining.
        num_documents: N, the number of documents in the corpus.
        num_tokens: L, the total token count of the corpus.
        merge_cache: LRU memo for :func:`~repro.phrases.significance.
            merge_significance` — adjacent phrase pairs repeat heavily
            across a corpus, so segmentation hits it constantly.  It is
            derived state: dropped when pickling (cheap worker shipping)
            and rebuilt lazily in each process.
    """

    def __init__(self, counts: Dict[Phrase, int], min_support: int,
                 num_documents: int, num_tokens: int,
                 merge_cache_capacity: int = MERGE_CACHE_CAPACITY) -> None:
        self.counts = counts
        self.min_support = min_support
        self.num_documents = num_documents
        self.num_tokens = num_tokens
        self.merge_cache_capacity = merge_cache_capacity
        self.merge_cache: "OrderedDict[Tuple[Phrase, Phrase], float]" = \
            OrderedDict()

    def __getstate__(self) -> dict:
        """Pickle without the (re-derivable) significance cache."""
        state = self.__dict__.copy()
        state["merge_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.merge_cache = OrderedDict()

    def frequency(self, phrase: Sequence[int]) -> int:
        """f(P): the mined count of ``phrase`` (0 when infrequent)."""
        return self.counts.get(tuple(phrase), 0)

    def phrases(self, min_length: int = 1,
                max_length: int = 10**9) -> List[Phrase]:
        """All frequent phrases with length in [min_length, max_length]."""
        return [p for p in self.counts
                if min_length <= len(p) <= max_length]

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, phrase: Sequence[int]) -> bool:
        return tuple(phrase) in self.counts


def mine_frequent_phrases(corpus: Corpus,
                          min_support: int = 5,
                          max_length: int = 6,
                          merge_cache_capacity: int = MERGE_CACHE_CAPACITY,
                          ) -> PhraseCounts:
    """Run Algorithm 1 over ``corpus``.

    Args:
        corpus: tokenized corpus; each document's chunks are mined
            independently, counts aggregate corpus-wide.
        min_support: mu, the minimum frequency for a phrase to be kept.
        max_length: safety cap on phrase length (the algorithm terminates
            naturally well before this on real text).
        merge_cache_capacity: LRU bound of the merge-significance memo
            carried by the returned counts.
    """
    if min_support < 1:
        raise ConfigurationError("min_support must be >= 1")
    chunks: List[Sequence[int]] = [chunk for doc in corpus
                                   for chunk in doc.chunks if chunk]
    return mine_frequent_phrases_from_chunks(
        chunks, min_support=min_support, max_length=max_length,
        num_documents=len(corpus), num_tokens=corpus.num_tokens,
        merge_cache_capacity=merge_cache_capacity)


def mine_frequent_phrases_from_chunks(chunks: Sequence[Sequence[int]],
                                      min_support: int,
                                      max_length: int = 6,
                                      num_documents: int = 0,
                                      num_tokens: int = 0,
                                      merge_cache_capacity: int =
                                      MERGE_CACHE_CAPACITY) -> PhraseCounts:
    """Algorithm 1 on raw token-id chunks (corpus-free entry point)."""
    with span("topmine.frequent_mining"):
        counts = _mine_chunks(chunks, min_support, max_length)
    inc("topmine.frequent_phrases", len(counts))
    return PhraseCounts(counts=counts, min_support=min_support,
                        num_documents=num_documents, num_tokens=num_tokens,
                        merge_cache_capacity=merge_cache_capacity)


def _mine_chunks(chunks: Sequence[Sequence[int]], min_support: int,
                 max_length: int) -> Dict[Phrase, int]:
    """Algorithm 1 as one array pass per phrase length.

    The chunks are flattened into one token array.  ``gram_ids[i]`` is
    the dense id of the frequent length-(n-1) phrase starting at
    position ``i``, or -1.  A length-n phrase is counted at ``i`` when
    the phrases at ``i`` and ``i + 1`` are both frequent and it ends
    inside the chunk: by induction that is exactly where the position
    loop (prefix Apriori, suffix Apriori, antimonotone chunk dropping)
    counts it.  Each candidate is keyed ``prefix_id * U + token_rank``,
    which stays below ``(#tokens) * U`` for any token id range.
    Frequent phrases are inserted in first-occurrence (chunk, then
    position) order, the order the loop inserted them in.
    """
    lengths = np.fromiter((len(chunk) for chunk in chunks), dtype=np.int64,
                          count=len(chunks))
    num_tokens = int(lengths.sum())
    if num_tokens == 0:
        return {}
    tokens = np.fromiter(chain.from_iterable(chunks), dtype=np.int64,
                         count=num_tokens)
    chunk_end = np.repeat(np.cumsum(lengths), lengths)

    # Length 1: dense token ranks double as the gram ids.
    vocab, first, token_rank, freq = np.unique(
        tokens, return_index=True, return_inverse=True, return_counts=True)
    token_rank = token_rank.reshape(-1)
    frequent = freq >= min_support
    counts = _frequent_grams(tokens, first, freq, frequent, 1)
    gram_ids = np.where(frequent, np.arange(len(vocab)), -1)[token_rank]
    positions = np.flatnonzero(gram_ids >= 0)
    num_ranks = len(vocab)

    length = 2
    while length <= max_length:
        at = positions[positions + length <= chunk_end[positions]]
        at = at[gram_ids[at + 1] >= 0]
        keys = gram_ids[at] * num_ranks + token_rank[at + length - 1]
        _, first, inverse, freq = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        frequent = freq >= min_support
        if not frequent.any():
            break
        counts.update(_frequent_grams(tokens, at[first], freq, frequent,
                                      length))
        dense = np.full(len(freq), -1, dtype=np.int64)
        dense[frequent] = np.arange(int(frequent.sum()))
        gram_ids = np.full(num_tokens, -1, dtype=np.int64)
        gram_ids[at] = dense[inverse.reshape(-1)]
        positions = at[gram_ids[at] >= 0]
        length += 1
    return counts


def _frequent_grams(tokens: np.ndarray, starts: np.ndarray,
                    freq: np.ndarray, frequent: np.ndarray,
                    length: int) -> Dict[Phrase, int]:
    """``{phrase: count}`` of the frequent grams, first occurrence first.

    ``starts[g]`` is where gram ``g`` first occurs.  Keys are tuples of
    Python ints and counts are Python ints, not numpy scalars.
    """
    starts = starts[frequent]
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    grams = tokens[starts[:, None] + np.arange(length)].tolist()
    return dict(zip(map(tuple, grams), freq[frequent][order].tolist()))

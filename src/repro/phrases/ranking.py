"""Topical frequency estimation shared by KERT and ToPMine.

Definition 3 splits a phrase's frequency among subtopics; Eq. 4.3 / 4.8
estimate the split from a fitted topic model: the share of subtopic z is
proportional to ``rho_z * prod_i phi_z(v_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..corpus import Corpus, Vocabulary
from ..errors import ConfigurationError
from ..utils import EPS
from .frequent import Phrase, PhraseCounts


@dataclass
class FlatTopicModel:
    """A flat topic model in array form: shared currency across methods.

    Attributes:
        rho: topic proportions, shape (k,).
        phi: topic-word distributions, shape (k, V); rows sum to one.
    """

    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.ndim != 2 or len(self.rho) != self.phi.shape[0]:
            raise ConfigurationError("rho length must match phi rows")

    @property
    def num_topics(self) -> int:
        """Number of topics k."""
        return self.phi.shape[0]

    @property
    def vocab_size(self) -> int:
        """Vocabulary size V."""
        return self.phi.shape[1]


def term_model_from_hin(hin_model, vocabulary: Vocabulary,
                        node_type: str = "term") -> FlatTopicModel:
    """Convert a fitted CATHYHIN model's term distributions to array form.

    Words absent from the network (filtered by min_count or isolated)
    receive probability ~0.
    """
    k = hin_model.num_topics
    phi = np.full((k, len(vocabulary)), EPS)
    names = hin_model.node_names.get(node_type, [])
    for idx, name in enumerate(names):
        if name in vocabulary:
            word_id = vocabulary.id_of(name)
            phi[:, word_id] = np.maximum(hin_model.phi[node_type][:, idx], EPS)
    phi /= phi.sum(axis=1, keepdims=True)
    rho = np.asarray(hin_model.rho, dtype=float)
    rho = rho / max(rho.sum(), EPS)
    return FlatTopicModel(rho=rho, phi=phi)


def padded_phrase_ids(phrases: Sequence[Sequence[int]],
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Phrases as rows of compact word columns, padded to one width.

    Returns ``(ids, words)``: ``words`` holds the distinct token ids of
    ``phrases`` (sorted), and row ``p`` of ``ids`` holds, for each token
    of phrase ``p`` in order, its column in ``words``, then the padding
    column ``len(words)`` up to the longest phrase.
    """
    lengths = np.fromiter(map(len, phrases), dtype=np.int64,
                          count=len(phrases))
    flat = np.fromiter(chain.from_iterable(phrases), dtype=np.int64,
                       count=int(lengths.sum()))
    words, columns = np.unique(flat, return_inverse=True)
    width = int(lengths.max()) if len(lengths) else 0
    ids = np.full((len(phrases), width), len(words), dtype=np.int64)
    ids[np.arange(width) < lengths[:, None]] = columns.reshape(-1)
    return ids, words


def topical_split_scores(log_rho: np.ndarray, log_phi: np.ndarray,
                         ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 4.3 for many phrases at once: unnormalised shares and totals.

    Args:
        log_rho: (k,) log subtopic weights.
        log_phi: (W, k) log phi of each word column.
        ids: (P, L) word columns from :func:`padded_phrase_ids`, padded
            with ``W``.

    Row ``p`` sums ``log_rho + log_phi[ids[p, 0]] + log_phi[ids[p, 1]]
    + ...`` one word column at a time, so every phrase adds its words in
    order, exactly as a per-phrase loop does; the padding row is zero
    and adds nothing.  Returns ``(scores, totals)`` with ``scores`` the
    row-max-shifted ``exp`` (P, k) and ``totals`` its row sums.
    """
    log_phi = np.vstack([log_phi, np.zeros((1, len(log_rho)))])
    log_scores = np.repeat(log_rho[None, :], len(ids), axis=0)
    for column in ids.T:
        log_scores += log_phi[column]
    log_scores -= log_scores.max(axis=1, keepdims=True)
    scores = np.exp(log_scores)
    return scores, scores.sum(axis=1)


def _topic_posteriors(phrases: Sequence[Sequence[int]],
                      model: FlatTopicModel) -> np.ndarray:
    """p(t | P) for each phrase (rows); uniform where the scores vanish."""
    ids, words = padded_phrase_ids(phrases)
    log_rho = np.log(np.maximum(model.rho, EPS))
    log_phi = np.log(np.maximum(model.phi[:, words], EPS)).T
    scores, totals = topical_split_scores(log_rho, log_phi, ids)
    posterior = scores / totals[:, None]
    posterior[totals <= 0] = 1.0 / model.num_topics
    return posterior


def phrase_topic_posterior(phrase: Sequence[int],
                           model: FlatTopicModel) -> np.ndarray:
    """p(t | P): the subtopic split weights of Eq. 4.3, normalized."""
    return _topic_posteriors([tuple(phrase)], model)[0]


def topical_frequencies(counts: PhraseCounts,
                        model: FlatTopicModel,
                        ) -> Dict[Phrase, np.ndarray]:
    """f_t(P) for every frequent phrase: total frequency split by Eq. 4.3."""
    phrases = list(counts.counts)
    posterior = _topic_posteriors(phrases, model)
    return {phrase: frequency * row for phrase, frequency, row
            in zip(phrases, counts.counts.values(), posterior)}


def phrase_instance_index(corpus: Corpus, counts: PhraseCounts,
                          max_length: int = 6,
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Per document, all frequent-phrase instances as a CSR pair.

    Returns ``(offsets, ids)``: document ``d``'s instances are
    ``ids[offsets[d]:offsets[d + 1]]``, where id ``i`` is the ``i``-th
    phrase of ``counts.counts``.  Instances come in text order (chunk,
    start, then length) and may overlap.
    """
    phrase_ids = {p: i for i, p in enumerate(counts.counts)}
    offsets = [0]
    found: List[int] = []
    for doc in corpus:
        for chunk in doc.chunks:
            n = len(chunk)
            for start in range(n):
                for stop in range(start + 1, min(start + max_length, n) + 1):
                    phrase_id = phrase_ids.get(tuple(chunk[start:stop]))
                    if phrase_id is not None:
                        found.append(phrase_id)
        offsets.append(len(found))
    return (np.asarray(offsets, dtype=np.int64),
            np.asarray(found, dtype=np.int32))


def document_phrase_instances(corpus: Corpus, counts: PhraseCounts,
                              max_length: int = 6,
                              ) -> List[List[Phrase]]:
    """Per document, all frequent-phrase instances (overlapping allowed).

    Used to decide which documents "contain at least one frequent topic-t
    phrase" for the N_t normalizer of Eq. 4.4.
    """
    offsets, ids = phrase_instance_index(corpus, counts, max_length)
    phrases = list(counts.counts)
    return [[phrases[i] for i in ids[start:stop].tolist()]
            for start, stop in zip(offsets[:-1].tolist(),
                                   offsets[1:].tolist())]


def render_phrase(phrase: Iterable[int], vocabulary: Vocabulary) -> str:
    """Token ids -> space-joined phrase string."""
    return " ".join(vocabulary.decode(list(phrase)))

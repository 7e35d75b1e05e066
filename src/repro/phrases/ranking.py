"""Topical frequency estimation shared by KERT and ToPMine.

Definition 3 splits a phrase's frequency among subtopics; Eq. 4.3 / 4.8
estimate the split from a fitted topic model: the share of subtopic z is
proportional to ``rho_z * prod_i phi_z(v_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def phrase_topic_posterior(phrase: Sequence[int],
                           model: FlatTopicModel) -> np.ndarray:
    """p(t | P): the subtopic split weights of Eq. 4.3, normalized."""
    phrase = tuple(phrase)
    log_scores = np.log(np.maximum(model.rho, EPS))
    for word in phrase:
        log_scores = log_scores + np.log(np.maximum(model.phi[:, word], EPS))
    log_scores -= log_scores.max()
    scores = np.exp(log_scores)
    total = scores.sum()
    if total <= 0:
        return np.full(model.num_topics, 1.0 / model.num_topics)
    return scores / total


def topical_frequencies(counts: PhraseCounts,
                        model: FlatTopicModel,
                        ) -> Dict[Phrase, np.ndarray]:
    """f_t(P) for every frequent phrase: total frequency split by Eq. 4.3."""
    result: Dict[Phrase, np.ndarray] = {}
    for phrase, frequency in counts.counts.items():
        result[phrase] = frequency * phrase_topic_posterior(phrase, model)
    return result


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

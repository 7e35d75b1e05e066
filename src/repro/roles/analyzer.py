"""Entity topical role analysis (Chapter 5).

Answers the two question types of Section 1.3.1 against a constructed
topical hierarchy:

* **Type A** (role of given entities): entity-specific phrase ranking
  (Eq. 5.1, combined with phrase quality as Eq. 5.2) and the entity's
  frequency distribution over subtopics (Eq. 5.3–5.6).
* **Type B** (entities for given roles): ranking the entities of a type
  within a topic by popularity x purity (ERankPop+Pur, Section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..corpus import Corpus
from ..errors import ConfigurationError
from ..hierarchy import Topic, TopicalHierarchy
from ..obs import span
from ..phrases import (PhraseCounts, phrase_instance_index,
                       phrase_rank_score, render_phrase, topic_phrase_table)
from ..phrases.frequent import Phrase
from ..utils import EPS


def _row_ranges(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions ``offsets[r]:offsets[r + 1]`` of each row, concatenated."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(int(lengths.sum()), dtype=np.int64)


def _normalized_shares(table: Dict[str, Dict[Phrase, float]],
                       phrase_ids: Dict[Phrase, int],
                       topic: Topic) -> np.ndarray:
    """phrases x children: a phrase's frequency in each child table over
    their sum, the share one instance of it adds to TPF (zero rows for
    phrases no child table holds)."""
    shares = np.zeros((len(phrase_ids), len(topic.children)))
    for j, child in enumerate(topic.children):
        child_table = table.get(child.notation, {})
        shares[[phrase_ids[p] for p in child_table], j] = \
            list(child_table.values())
    totals = shares.sum(axis=1)
    keep = totals > 0
    shares[keep] /= totals[keep, None]
    return shares


class _Attribution:
    """Eq. 5.4–5.5 for every document at once: the docs x topics masses.

    ``mass[d, t]`` is f_t(d) and ``visited[d, t]`` says whether the
    per-document recursion of the definition reaches topic ``t`` (the
    key exists even when its mass is 0.0).  Every float is computed with
    the same operations in the same order as that recursion, so the
    result is bit-identical to it (see ``tests/reference_kernels.py``).
    """

    def __init__(self, hierarchy: TopicalHierarchy, corpus: Corpus,
                 table: Dict[str, Dict[Phrase, float]],
                 counts: PhraseCounts, max_length: int) -> None:
        self.topics = list(hierarchy.topics())
        self.notations = [topic.notation for topic in self.topics]
        self.column = {notation: t for t, notation
                       in enumerate(self.notations)}
        self.phrase_ids = {p: i for i, p in enumerate(counts.counts)}
        self.offsets, self.instances = phrase_instance_index(
            corpus, counts, max_length)
        self._phrase_sets: Optional[Tuple[np.ndarray, np.ndarray]] = None
        num_docs = len(self.offsets) - 1
        self.mass = np.zeros((num_docs, len(self.topics)))
        self.visited = np.zeros((num_docs, len(self.topics)), dtype=bool)
        self.mass[:, 0] = 1.0
        self.visited[:, 0] = True

        # Each internal topic's children take one block of columns.
        parents = [t for t, topic in enumerate(self.topics) if topic.children]
        child_cols = [[self.column[c.notation]
                       for c in self.topics[t].children] for t in parents]
        ends = np.cumsum([len(cols) for cols in child_cols], dtype=np.int64)
        blocks = [slice(int(end) - len(cols), int(end))
                  for cols, end in zip(child_cols, ends)]
        tpf = self._accumulate(np.hstack(
            [np.zeros((len(self.phrase_ids), 0))]
            + [_normalized_shares(table, self.phrase_ids, self.topics[t])
               for t in parents]))

        for t, cols, block in zip(parents, child_cols, blocks):
            rows = np.flatnonzero(self.visited[:, t] & (self.mass[:, t] > 0))
            # Contiguous rows: each row sum reduces as the recursion's
            # 1-D ``tpf.sum()`` does.
            local = np.ascontiguousarray(tpf[rows, block])
            totals = local.sum(axis=1)
            keep = totals > 0
            rows = rows[keep]
            split = local[keep] / totals[keep, None]
            self.mass[rows[:, None], cols] = self.mass[rows, t][:, None] * split
            self.visited[rows[:, None], cols] = True

    def _accumulate(self, shares: np.ndarray) -> np.ndarray:
        """TPF per document: its instances' share rows summed in order.

        Walks instance positions (the j-th instance of every document
        at once), so each document's sum runs in instance order exactly
        as the per-document loop adds them.
        """
        lengths = np.diff(self.offsets)
        order = np.argsort(-lengths)
        tpf = np.zeros((len(lengths), shares.shape[1]))
        for position in range(int(lengths.max(initial=0))):
            docs = order[:np.count_nonzero(lengths > position)]
            tpf[docs] += shares[self.instances[self.offsets[docs] + position]]
        return tpf

    def document_frequencies(self, doc_id: int) -> Dict[str, float]:
        cols = np.flatnonzero(self.visited[doc_id])
        return dict(zip([self.notations[t] for t in cols],
                        self.mass[doc_id, cols].tolist()))

    def phrase_sets(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per document, its distinct instance phrase ids (CSR pair)."""
        if self._phrase_sets is None:
            lengths = np.diff(self.offsets)
            docs = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
            keys = np.unique(docs * len(self.phrase_ids) + self.instances)
            set_docs, ids = np.divmod(keys, len(self.phrase_ids))
            offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(np.bincount(set_docs, minlength=len(lengths)),
                      out=offsets[1:])
            self._phrase_sets = (offsets, ids)
        return self._phrase_sets


class _Incidence:
    """Entity x document incidence of one entity type.

    Rows follow the entity's first appearance in corpus order; a
    document listing an entity twice keeps two entries, as Eq. 5.6
    counts every mention.
    """

    def __init__(self, corpus: Corpus, entity_type: str) -> None:
        self.names: List[str] = []
        self.row: Dict[str, int] = {}
        entities: List[int] = []
        docs: List[int] = []
        for doc_id, doc in enumerate(corpus):
            for name in doc.entity_list(entity_type):
                row = self.row.get(name)
                if row is None:
                    row = self.row[name] = len(self.names)
                    self.names.append(name)
                entities.append(row)
                docs.append(doc_id)
        order = np.argsort(np.asarray(entities, dtype=np.int64),
                           kind="stable")
        indptr = np.zeros(len(self.names) + 1, dtype=np.int64)
        np.cumsum(np.bincount(np.asarray(entities, dtype=np.int64),
                              minlength=len(self.names)), out=indptr[1:])
        self.matrix = sparse.csr_matrix(
            (np.ones(len(docs)), np.asarray(docs, dtype=np.int64)[order],
             indptr), shape=(len(self.names), len(corpus)))

    def documents(self, names: Sequence[str]) -> np.ndarray:
        """Sorted ids of the documents listing any of ``names``."""
        rows = np.asarray([self.row[n] for n in set(names) if n in self.row],
                          dtype=np.int64)
        return np.unique(self.matrix.indices[
            _row_ranges(self.matrix.indptr, rows)])


class RoleAnalyzer:
    """Role analysis over a phrase-decorated topical hierarchy.

    Args:
        hierarchy: a built hierarchy whose topics carry term phi
            distributions (from :class:`~repro.cathy.HierarchyBuilder`).
        corpus: the text-attached corpus the hierarchy was mined from.
        counts: pre-mined phrase counts (mined here when omitted).  When
            these are the counts :func:`~repro.phrases.attach_phrases`
            returned, its Eq. 4.3 table is reused.
        min_support / max_phrase_length / gamma: forwarded to phrase
            frequency computation.

    Construction is cheap: the document attribution is built on the
    first role query and shared by all of them.
    """

    def __init__(self, hierarchy: TopicalHierarchy, corpus: Corpus,
                 counts: Optional[PhraseCounts] = None,
                 min_support: int = 5, max_phrase_length: int = 6,
                 gamma: float = 0.5) -> None:
        self.hierarchy = hierarchy
        self.corpus = corpus
        self._table, self.counts = topic_phrase_table(
            hierarchy, corpus, counts=counts, min_support=min_support,
            max_phrase_length=max_phrase_length, gamma=gamma)
        self._max_phrase_length = max_phrase_length
        self._attribution: Optional[_Attribution] = None
        self._incidence: Dict[str, _Incidence] = {}
        self._entity_freq_cache: Dict[str, Dict[str, Dict[str, float]]] = {}

    def _attributed(self) -> _Attribution:
        if self._attribution is None:
            with span("roles.document_attribution"):
                self._attribution = _Attribution(
                    self.hierarchy, self.corpus, self._table, self.counts,
                    self._max_phrase_length)
        return self._attribution

    def _incidence_of(self, entity_type: str) -> _Incidence:
        incidence = self._incidence.get(entity_type)
        if incidence is None:
            incidence = self._incidence[entity_type] = _Incidence(
                self.corpus, entity_type)
        return incidence

    # ----------------------------------------------------- document position
    def document_topic_frequencies(self) -> List[Dict[str, float]]:
        """f_t(d) per document and topic notation (Eq. 5.4–5.5).

        The root frequency of every document is 1; a topic's frequency
        splits among its children in proportion to the total normalized
        phrase frequency TPF, and documents with no frequent phrase in
        any child contribute nothing below that topic.  Built fresh from
        the attribution matrices on every call.
        """
        attribution = self._attributed()
        return [attribution.document_frequencies(doc_id)
                for doc_id in range(len(self.corpus))]

    # ------------------------------------------------------- entity position
    def entity_topic_frequencies(self, entity_type: str,
                                 ) -> Dict[str, Dict[str, float]]:
        """f_t(E) per entity: summed document frequencies (Eq. 5.6).

        Returns ``{entity name: {topic notation: frequency}}``, entities
        in order of first appearance, topics in pre-order; the root entry
        is the entity's total document count.  Cached per entity type
        (the underlying document attribution never changes).
        """
        cached = self._entity_freq_cache.get(entity_type)
        if cached is not None:
            return cached
        attribution = self._attributed()
        with span("roles.entity_tables"):
            incidence = self._incidence_of(entity_type)
            # One product per quantity: each entity's sum runs over its
            # mentions in corpus order, as the definition adds them.
            frequencies = np.asarray(incidence.matrix @ attribution.mass)
            present = np.asarray(
                incidence.matrix @ attribution.visited.astype(float)) > 0
            notations = np.asarray(attribution.notations, dtype=object)
            result: Dict[str, Dict[str, float]] = {}
            for row, name in enumerate(incidence.names):
                cols = np.flatnonzero(present[row])
                result[name] = dict(zip(notations[cols].tolist(),
                                        frequencies[row, cols].tolist()))
        self._entity_freq_cache[entity_type] = result
        return result

    def entity_distribution(self, entity_type: str, name: str,
                            topic: str = "o") -> Dict[str, float]:
        """The entity's normalized distribution over ``topic``'s children."""
        frequencies = self.entity_topic_frequencies(entity_type).get(name, {})
        node = self.hierarchy.topic(topic)
        shares = {child.notation: frequencies.get(child.notation, 0.0)
                  for child in node.children}
        total = sum(shares.values())
        if total <= 0:
            return {notation: 0.0 for notation in shares}
        return {notation: value / total for notation, value in shares.items()}

    # -------------------------------------------- entity-specific phrases (A)
    def entity_phrases(self, topic: str, entity_type: str,
                       names: Sequence[str], alpha: float = 0.5,
                       top_k: int = 10) -> List[Tuple[str, float]]:
        """Phrases characterizing entities' role in a topic (Eq. 5.1–5.2).

        Combines the entity-specific pointwise KL uprank r(P|t,E) with the
        generic phrase quality r(P|t), weighted by ``alpha``.
        """
        if not 0 <= alpha <= 1:
            raise ConfigurationError("alpha must be in [0, 1]")
        node = self.hierarchy.topic(topic)
        freq = self._table.get(node.notation, {})
        if not freq:
            return []
        total = max(sum(freq.values()), EPS)

        parent = self.hierarchy.parent_of(node)
        if parent is None:
            parent_freq: Dict[Phrase, float] = freq
        else:
            parent_freq = self._table.get(parent.notation, {})
        parent_total = max(sum(parent_freq.values()), EPS)

        # f_t(P, E): topic-t mass of E's documents containing P, summed
        # over those documents in corpus order.
        attribution = self._attributed()
        docs = self._incidence_of(entity_type).documents(names)
        doc_mass = attribution.mass[docs, attribution.column[node.notation]]
        docs, doc_mass = docs[doc_mass > 0], doc_mass[doc_mass > 0]
        entity_total = float(np.cumsum(doc_mass)[-1]) if len(docs) else 0.0
        entity_total = max(entity_total, EPS)
        set_offsets, set_ids = attribution.phrase_sets()
        entity_phrase_freq = np.bincount(
            set_ids[_row_ranges(set_offsets, docs)],
            weights=np.repeat(doc_mass, np.diff(set_offsets)[docs]),
            minlength=len(attribution.phrase_ids))
        phrase_ids = attribution.phrase_ids

        scored: List[Tuple[Phrase, float]] = []
        for phrase, f in freq.items():
            p_t = f / total
            quality = phrase_rank_score(f, total,
                                        parent_freq.get(phrase, 0.0),
                                        parent_total)
            p_te = float(entity_phrase_freq[phrase_ids[phrase]]) / entity_total
            specific = p_t * float(np.log(max(p_te, EPS) / max(p_t, EPS)))
            combined = alpha * specific + (1 - alpha) * quality
            scored.append((phrase, combined))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [(render_phrase(p, self.corpus.vocabulary), s)
                for p, s in scored[:top_k]]

    # ----------------------------------------------- entities for a role (B)
    def rank_entities(self, topic: str, entity_type: str,
                      top_k: int = 10, purity: bool = True,
                      ) -> List[Tuple[str, float]]:
        """ERankPop+Pur over the siblings of ``topic`` (Section 5.2).

        With ``purity=False`` this degenerates to ranking by coverage
        p(e|t) alone — the comparison row of Table 5.3.
        """
        node = self.hierarchy.topic(topic)
        parent = self.hierarchy.parent_of(node)
        siblings = ([] if parent is None else
                    [c for c in parent.children if c.notation != node.notation])

        frequencies = self.entity_topic_frequencies(entity_type)
        totals: Dict[str, float] = {}
        for notation in [node.notation] + [s.notation for s in siblings]:
            totals[notation] = sum(
                bucket.get(notation, 0.0) for bucket in frequencies.values())

        scored: List[Tuple[str, float]] = []
        for name, bucket in frequencies.items():
            f_t = bucket.get(node.notation, 0.0)
            if f_t <= 0:
                continue
            p_t = f_t / max(totals[node.notation], EPS)
            if not purity or not siblings:
                scored.append((name, p_t))
                continue
            contrast = 0.0
            for sibling in siblings:
                f_s = bucket.get(sibling.notation, 0.0)
                mixed_total = totals[node.notation] + totals[sibling.notation]
                contrast = max(contrast,
                               (f_t + f_s) / max(mixed_total, EPS))
            score = p_t * float(np.log(max(p_t, EPS) / max(contrast, EPS)))
            scored.append((name, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:top_k]

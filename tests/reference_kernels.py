"""Reference (pre-vectorization) solver kernels.

These are the straightforward per-link / per-token / per-candidate loop
implementations the solvers shipped with before their kernels were
vectorized, blocked, or moved onto sparse storage.  They define the
ground-truth semantics: the equivalence tests assert the fast kernels
match them to 1e-12 (or bit-identically, for integer count state), and
``benchmarks/bench_hotpaths.py`` times the fast kernels against them.

Three families live here:

* CATHY EM kernels (scatter, posterior split, expected weights) — from
  PR 2's vectorization;
* collapsed-Gibbs kernels: the semantic reference sweep/conditional
  (log-space, shared batched-uniform draw contract) plus the *legacy*
  sweep kept verbatim (``+ EPS`` inside the log, per-unit
  ``Generator.choice``) for honest before/after benchmarking;
* network bookkeeping (:class:`ReferenceDictNetwork`) and the
  rescanning ToPMine merge (:func:`reference_segment_chunk`) — the
  pre-CSR / pre-heap data paths;
* entity-role attribution (Eq. 5.4–5.6): the per-document recursion,
  the dict-accumulating entity tables and the per-document-dict Type A
  phrase ranking that ``repro.roles`` shipped before its attribution
  was vectorised;
* phrase mining and the Eq. 4.3 split: the per-chunk, per-position
  Algorithm 1 loop and the per-phrase topical-frequency loops that
  ``repro.phrases`` shipped before they became array kernels.  These
  fix dict insertion order as well as values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EPS = 1e-12


def reference_scatter(expected: np.ndarray, i_idx: np.ndarray,
                      j_idx: np.ndarray, num_nodes: int) -> np.ndarray:
    """M-step scatter (Eq. 3.7) via one ``np.add.at`` pair per subtopic."""
    k = expected.shape[0]
    phi = np.zeros((k, num_nodes))
    for z in range(k):
        np.add.at(phi[z], i_idx, expected[z])
        np.add.at(phi[z], j_idx, expected[z])
    return phi


def reference_posterior_link_split(rho: np.ndarray, phi: np.ndarray,
                                   i_idx: np.ndarray, j_idx: np.ndarray,
                                   weights: np.ndarray) -> np.ndarray:
    """Eq. 3.5 posterior split computed link by link.

    Degenerate links (mixture score zero) get a zero split, matching the
    vectorized kernel's "count, don't drop" semantics.
    """
    k = len(rho)
    expected = np.zeros((k, len(weights)))
    for e in range(len(weights)):
        scores = rho * phi[:, i_idx[e]] * phi[:, j_idx[e]]
        denom = scores.sum()
        if denom <= 0:
            continue
        expected[:, e] = weights[e] * scores / denom
    return expected


def reference_expected_link_weights(rho: np.ndarray, phi: np.ndarray,
                                    links: List[Tuple[int, int, float]],
                                    ) -> List[Dict[Tuple[int, int], float]]:
    """The original ``CathyEM.expected_link_weights`` loop, verbatim."""
    k = len(rho)
    result: List[Dict[Tuple[int, int], float]] = [{} for _ in range(k)]
    for i, j, weight in links:
        scores = rho * phi[:, i] * phi[:, j]
        denom = scores.sum()
        if denom <= 0:
            continue
        for z in range(k):
            expected = weight * scores[z] / denom
            if expected > 0:
                result[z][(i, j)] = expected
    return result


# --------------------------------------------------------------------- Gibbs
def reference_gibbs_conditional(n_dk_row: np.ndarray, n_kw: np.ndarray,
                                n_k: np.ndarray, unit: Sequence[int],
                                alpha: float, beta: float,
                                beta_sum: float) -> np.ndarray:
    """Normalized p(z | rest) for one sampling unit, log-space.

    The semantic ground truth of the collapsed conditional — the
    document factor once, one topic-word factor per token with the
    denominator offset by token position — that both the blocked fast
    sweep and the in-library reference sweep must reproduce to 1e-12.
    """
    log_p = np.log(n_dk_row + alpha)
    denom = n_k + beta_sum
    for offset, w in enumerate(unit):
        log_p = log_p + np.log(n_kw[:, w] + beta) - np.log(denom + offset)
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def legacy_gibbs_sweep(units, assignments, n_dk, n_kw, n_k, alpha: float,
                       beta: float, beta_sum: float,
                       rng: np.random.Generator) -> None:
    """The pre-PR-7 Gibbs inner loop, verbatim (for benchmarking).

    Per-unit numpy log-space arithmetic with the historical ``+ EPS``
    smoothing inside the log and one ``Generator.choice`` call per unit.
    Numerically *close to* but not exactly the current conditional (EPS
    shifts it at the ~1e-10 level), and a different RNG consumption
    pattern — which is why this is the timing baseline, not the
    equivalence baseline.
    """
    k = len(n_k)
    for d, doc_units in enumerate(units):
        labels = assignments[d]
        for u, unit in enumerate(doc_units):
            z_old = labels[u]
            size = len(unit)
            n_dk[d, z_old] -= size
            n_k[z_old] -= size
            for w in unit:
                n_kw[z_old, w] -= 1

            log_p = np.log(n_dk[d] + alpha)
            denom = n_k + beta_sum
            for offset, w in enumerate(unit):
                log_p = log_p + np.log(
                    n_kw[:, w] + beta + EPS) - np.log(denom + offset)
            log_p -= log_p.max()
            p = np.exp(log_p)
            p /= p.sum()
            z_new = int(rng.choice(k, p=p))

            labels[u] = z_new
            n_dk[d, z_new] += size
            n_k[z_new] += size
            for w in unit:
                n_kw[z_new, w] += 1


def reference_log_likelihood(units, assignments, phi) -> float:
    """The original ``LDAGibbs._log_likelihood`` triple loop, verbatim."""
    ll = 0.0
    for doc_units, labels in zip(units, assignments):
        for unit, z in zip(doc_units, labels):
            for w in unit:
                ll += float(np.log(max(phi[z, w], EPS)))
    return ll


# ------------------------------------------------------------------- network
class ReferenceDictNetwork:
    """Verbatim pre-CSR link bookkeeping: one dict insert per edge.

    Reproduces the old ``HeterogeneousNetwork`` storage semantics —
    canonical link-type ordering, (i, j) key swap for same-type links,
    weight accumulation on duplicates — without any of the typed-node
    API, so property tests can compare the CSR backbone against it on
    random typed graphs.
    """

    def __init__(self) -> None:
        self.links: Dict[Tuple[str, str],
                         Dict[Tuple[int, int], float]] = {}

    def add_link(self, type_x: str, i: int, type_y: str, j: int,
                 weight: float = 1.0) -> None:
        if (type_y, type_x) < (type_x, type_y):
            type_x, type_y, i, j = type_y, type_x, j, i
        if type_x == type_y and i > j:
            i, j = j, i
        bucket = self.links.setdefault((type_x, type_y), {})
        key = (i, j)
        bucket[key] = bucket.get(key, 0.0) + weight

    def total_weight(self, link_type: Tuple[str, str]) -> float:
        return sum(self.links.get(link_type, {}).values())

    def degree(self, node_type: str, index: int) -> float:
        total = 0.0
        for (type_x, type_y), bucket in self.links.items():
            for (i, j), weight in bucket.items():
                counted = False
                if type_x == node_type and i == index:
                    total += weight
                    counted = True
                if type_y == node_type and j == index \
                        and not (counted and type_x == type_y and i == j):
                    total += weight
        return total

    def subnetwork_links(self, link_weights: Dict[Tuple[str, str],
                                                  Dict[Tuple[int, int],
                                                       float]],
                         min_weight: float) -> Dict[Tuple[str, str],
                                                    Dict[Tuple[int, int],
                                                         float]]:
        """The kept-link sets of an Eq. 3.23 split, per link type."""
        kept: Dict[Tuple[str, str], Dict[Tuple[int, int], float]] = {}
        for link_type, bucket in link_weights.items():
            rows = {key: w for key, w in bucket.items() if w >= min_weight}
            if rows:
                kept[link_type] = rows
        return kept


# ------------------------------------------------------------------- ToPMine
def reference_segment_chunk(chunk: Sequence[int], counts,
                            alpha: float = 2.0) -> List[Tuple[int, ...]]:
    """Algorithm 2 by full rescan: the pre-heap bottom-up merge.

    Every round scans *all* adjacent phrase pairs for the highest
    significance (ties to the earliest pair, matching the heap's
    ``(-sig, slot)`` ordering), merges the winner, and repeats until the
    best merge falls below ``alpha`` — O(n^2) per chunk versus the
    heap's O(n log n).
    """
    from repro.phrases.significance import NEVER, merge_significance

    phrases: List[Tuple[int, ...]] = [(tok,) for tok in chunk]
    while len(phrases) >= 2:
        best_sig = NEVER
        best_at = -1
        for at in range(len(phrases) - 1):
            sig = merge_significance(counts, phrases[at], phrases[at + 1])
            if sig > best_sig:
                best_sig = sig
                best_at = at
        if best_at < 0 or best_sig < alpha:
            break
        phrases[best_at:best_at + 2] = [phrases[best_at]
                                        + phrases[best_at + 1]]
    return phrases


def reference_mine_chunks(chunks: Sequence[Sequence[int]],
                          min_support: int,
                          max_length: int) -> Dict[Tuple[int, ...], int]:
    """Algorithm 1 chunk by chunk, position by position (verbatim)."""
    counts: Dict[Tuple[int, ...], int] = {}

    # Length-1 counts.
    for chunk in chunks:
        for tok in chunk:
            key = (tok,)
            counts[key] = counts.get(key, 0) + 1
    counts = {p: c for p, c in counts.items() if c >= min_support}

    # Active indices per chunk: positions whose length-(n-1) phrase is
    # frequent.  Start with positions whose unigram is frequent.
    active: List[Tuple[Sequence[int], List[int]]] = []
    for chunk in chunks:
        indices = [i for i, tok in enumerate(chunk) if (tok,) in counts]
        if indices:
            active.append((chunk, indices))

    length = 2
    while active and length <= max_length:
        new_counts: Dict[Tuple[int, ...], int] = {}
        still_active: List[Tuple[Sequence[int], List[int]]] = []
        for chunk, indices in active:
            # Keep positions whose length-(n-1) phrase is frequent.
            kept = [i for i in indices
                    if i + length - 1 <= len(chunk)
                    and tuple(chunk[i:i + length - 1]) in counts]
            # The last kept position cannot start a length-n phrase.
            kept = [i for i in kept if i + length <= len(chunk)]
            if not kept:
                continue  # data antimonotonicity: drop this chunk
            kept_set = set(kept)
            counted = []
            for i in kept:
                # Count w_i..w_{i+n-1} only when the suffix start i+1 was
                # also viable (Apriori on both the prefix and the suffix).
                if i + 1 in kept_set or tuple(
                        chunk[i + 1:i + length]) in counts:
                    phrase = tuple(chunk[i:i + length])
                    new_counts[phrase] = new_counts.get(phrase, 0) + 1
                    counted.append(i)
            if counted:
                still_active.append((chunk, counted))
        frequent = {p: c for p, c in new_counts.items() if c >= min_support}
        if not frequent:
            break
        counts.update(frequent)
        # Restrict active positions to those whose length-n phrase is
        # frequent, for the next round.
        active = []
        for chunk, indices in still_active:
            kept = [i for i in indices
                    if tuple(chunk[i:i + length]) in frequent]
            if kept:
                active.append((chunk, kept))
        length += 1

    return counts


# ----------------------------------------------------------------- Eq. 4.3
def reference_split_frequencies(topic, freq, corpus):
    """Eq. 4.3 phrase by phrase, one numpy array per word (verbatim)."""
    from repro.network import TERM_TYPE

    children = topic.children
    rhos = np.array([max(child.rho, EPS) for child in children])
    child_freqs: List[Dict[Tuple[int, ...], float]] = [{} for _ in children]
    for phrase, f in freq.items():
        words = [corpus.vocabulary.word_of(w) for w in phrase]
        log_scores = np.log(rhos)
        for word in words:
            probs = np.array([
                child.phi.get(TERM_TYPE, {}).get(word, EPS)
                for child in children])
            log_scores = log_scores + np.log(np.maximum(probs, EPS))
        log_scores -= log_scores.max()
        scores = np.exp(log_scores)
        total = scores.sum()
        if total <= 0:
            continue
        shares = f * scores / total
        for z, share in enumerate(shares):
            if share > 0:
                child_freqs[z][phrase] = float(share)
    return child_freqs


def reference_phrase_topic_posterior(phrase: Sequence[int],
                                     model) -> np.ndarray:
    """p(t | P) of Eq. 4.3 for one phrase, word by word (verbatim)."""
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


def reference_topical_frequencies(counts, model,
                                  ) -> Dict[Tuple[int, ...], np.ndarray]:
    """f_t(P) for every frequent phrase, one posterior at a time."""
    result: Dict[Tuple[int, ...], np.ndarray] = {}
    for phrase, frequency in counts.counts.items():
        result[phrase] = frequency * reference_phrase_topic_posterior(
            phrase, model)
    return result


# --------------------------------------------------------------------- roles
def reference_document_topic_frequencies(hierarchy, table,
                                         doc_instances,
                                         ) -> List[Dict[str, float]]:
    """f_t(d) per document by the per-document recursion (Eq. 5.4–5.5).

    ``table`` is the Eq. 4.3 topic-phrase table and ``doc_instances``
    the per-document phrase instances
    (:func:`repro.phrases.document_phrase_instances`).  A topic's key is
    written on entry, so zero-share children get a ``0.0`` key but are
    not descended into.
    """
    def descend(topic, doc_id: int, mass: float,
                out: Dict[str, float]) -> None:
        out[topic.notation] = mass
        if not topic.children or mass <= 0:
            return
        phrases = doc_instances[doc_id]
        if not phrases:
            return
        child_tables = [table.get(c.notation, {}) for c in topic.children]
        tpf = np.zeros(len(topic.children))
        for phrase in phrases:
            shares = np.array([child.get(phrase, 0.0)
                               for child in child_tables])
            total = shares.sum()
            if total > 0:
                tpf += shares / total
        tpf_total = tpf.sum()
        if tpf_total <= 0:
            return
        for child, share in zip(topic.children, tpf / tpf_total):
            descend(child, doc_id, mass * float(share), out)

    result: List[Dict[str, float]] = []
    for doc_id in range(len(doc_instances)):
        freqs: Dict[str, float] = {}
        descend(hierarchy.root, doc_id, 1.0, freqs)
        result.append(freqs)
    return result


def reference_entity_topic_frequencies(corpus, doc_freqs,
                                       entity_type: str,
                                       ) -> Dict[str, Dict[str, float]]:
    """f_t(E) per entity (Eq. 5.6): document frequencies summed per
    mention, in corpus order."""
    result: Dict[str, Dict[str, float]] = {}
    for doc_id, doc in enumerate(corpus):
        for name in doc.entity_list(entity_type):
            bucket = result.setdefault(name, {})
            for notation, f in doc_freqs[doc_id].items():
                bucket[notation] = bucket.get(notation, 0.0) + f
    return result


def reference_entity_phrases(hierarchy, corpus, table, doc_freqs,
                             doc_instances, topic: str, entity_type: str,
                             names, alpha: float = 0.5,
                             top_k: int = 10) -> List[Tuple[str, float]]:
    """Entity-specific phrase ranking (Eq. 5.1–5.2) over per-document
    dicts: f_t(P, E) summed per document in corpus order."""
    from repro.phrases import phrase_rank_score, render_phrase

    node = hierarchy.topic(topic)
    freq = table.get(node.notation, {})
    if not freq:
        return []
    total = max(sum(freq.values()), EPS)
    parent = hierarchy.parent_of(node)
    parent_freq = freq if parent is None else table.get(parent.notation, {})
    parent_total = max(sum(parent_freq.values()), EPS)

    name_set = set(names)
    entity_doc_ids = [doc.doc_id for doc in corpus
                      if name_set & set(doc.entity_list(entity_type))]
    entity_phrase_freq: Dict[Tuple[int, ...], float] = {}
    entity_total = 0.0
    for doc_id in entity_doc_ids:
        doc_mass = doc_freqs[doc_id].get(node.notation, 0.0)
        if doc_mass <= 0:
            continue
        entity_total += doc_mass
        for phrase in set(doc_instances[doc_id]):
            if phrase in freq:
                entity_phrase_freq[phrase] = \
                    entity_phrase_freq.get(phrase, 0.0) + doc_mass
    entity_total = max(entity_total, EPS)

    scored = []
    for phrase, f in freq.items():
        p_t = f / total
        quality = phrase_rank_score(f, total, parent_freq.get(phrase, 0.0),
                                    parent_total)
        p_te = entity_phrase_freq.get(phrase, 0.0) / entity_total
        specific = p_t * float(np.log(max(p_te, EPS) / max(p_t, EPS)))
        scored.append((phrase, alpha * specific + (1 - alpha) * quality))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(render_phrase(p, corpus.vocabulary), s)
            for p, s in scored[:top_k]]

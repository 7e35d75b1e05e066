"""serve-keepalive traffic: a fixed request mix, two closed-loop
keep-alive clients, and the check of their answers.

The mix stands for SDK and dashboard callers that wait for each reply
on a persistent HTTP/1.1 connection: ~35% ``/v1/topics/{n}``, ~25%
``/v1/search`` prefixes, ~30% ``/v1/entities/{name}?type=`` drawn
Zipf-skewed (by corpus frequency) from *all* corpus entities, and ~10%
``POST /v1/batch``.  Client 0 also sends ``POST /v1/admin/reload``
after every ``reload_every`` of its queries: the write beside the
reads, a hot swap that drops the engine cache.

Import after :func:`common.import_repro`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, urlencode

from repro.serve import ModelQueryEngine, load_model

from common import ServeProcess, median, percentile
from gates import expected_answer, same_answer, topic_ids

ENDPOINTS = ("topics", "search", "entities", "batch", "reload")
_MIX = (("topics", 0.35), ("search", 0.25), ("entities", 0.30),
        ("batch", 0.10))

Call = Tuple[str, Dict[str, Any]]


@dataclass(frozen=True)
class Request:
    endpoint: str
    method: str
    path: str
    body: Optional[bytes]
    #: The same call on the in-process engine (None for reloads).
    call: Optional[Call]


RELOAD = Request("reload", "POST", "/v1/admin/reload", b"", None)


def corpus_entities(corpus) -> List[Tuple[str, str]]:
    """``(type, name)`` of every corpus entity, most frequent first."""
    types = corpus.entity_types()
    counts = Counter((etype, name) for doc in corpus for etype in types
                     for name in doc.entity_list(etype))
    return sorted(counts, key=lambda key: (-counts[key], key))


class RequestMix:
    """Draws requests of the fixed mix from a seeded generator."""

    def __init__(self, engine: ModelQueryEngine,
                 entities: List[Tuple[str, str]], seed: int) -> None:
        self._rng = random.Random(seed)
        self._topics = topic_ids(engine)
        self._phrases = [match["phrase"] for match in engine.search_phrases(
            "", limit=10 ** 9)["matches"]]
        self._entities = entities
        self._zipf = list(itertools.accumulate(
            1.0 / rank for rank in range(1, len(entities) + 1)))

    def _topic(self) -> Call:
        return "topic", {"topic_id": self._rng.choice(self._topics)}

    def _search(self) -> Call:
        phrase = self._rng.choice(self._phrases)
        prefix = phrase[:self._rng.randint(1, min(len(phrase), 8))]
        return "search_phrases", {"query": prefix, "mode": "prefix",
                                  "limit": 10}

    def _entity(self) -> Call:
        etype, name = self._rng.choices(self._entities,
                                        cum_weights=self._zipf)[0]
        return "entity_roles", {"name": name, "entity_type": etype,
                                "topic": "o"}

    def draw(self) -> Request:
        roll = self._rng.random()
        for endpoint, share in _MIX:
            if roll < share:
                break
            roll -= share
        if endpoint == "topics":
            call = self._topic()
            return Request(endpoint, "GET",
                           "/v1/topics/" + call[1]["topic_id"], None, call)
        if endpoint == "search":
            call = self._search()
            return Request(endpoint, "GET", "/v1/search?" + urlencode(
                {"q": call[1]["query"]}), None, call)
        if endpoint == "entities":
            call = self._entity()
            args = call[1]
            return Request(endpoint, "GET", "/v1/entities/" + quote(
                args["name"], safe="") + "?" + urlencode(
                {"type": args["entity_type"]}), None, call)
        ops = [self._topic(), self._search(), self._entity()]
        batch = [{"op": method, "args": args} for method, args in ops]
        return Request("batch", "POST", "/v1/batch",
                       json.dumps(batch).encode("utf-8"),
                       ("batch", {"requests": batch}))


@dataclass(frozen=True)
class Session:
    """One keep-alive session: ``queries`` split over two clients, a
    reload after every ``reload_every`` of client 0's queries, and every
    ``sample_every``-th response of each client checked."""

    queries: int
    reload_every: int
    sample_every: int

    def streams(self, engine: ModelQueryEngine, corpus,
                seed: int) -> List[List[Request]]:
        """The two clients' request lists, drawn from ``seed``."""
        mix = RequestMix(engine, corpus_entities(corpus), seed)
        streams: List[List[Request]] = [[], []]
        for client in (0, 1):
            for index in range(1, self.queries // 2 + 1):
                streams[client].append(mix.draw())
                if client == 0 and index % self.reload_every == 0:
                    streams[client].append(RELOAD)
        return streams


#: ~1000 queries give the p99 at least ten samples beyond it.
SESSIONS = {"full": Session(queries=1000, reload_every=100, sample_every=10),
            "tiny": Session(queries=40, reload_every=10, sample_every=2)}


# ------------------------------------------------------------------ clients
@dataclass
class Outcome:
    request: Request
    latency_s: float
    status: int
    #: Response body, kept for sampled requests and reloads only.
    body: Optional[bytes]


def _client(port: int, stream: List[Request], sample_every: int,
            barrier: threading.Barrier, out: List[Outcome]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    barrier.wait()
    try:
        for index, request in enumerate(stream):
            headers = ({"Content-Type": "application/json"}
                       if request.method == "POST" else {})
            start = time.perf_counter()
            try:
                conn.request(request.method, request.path,
                             body=request.body, headers=headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                body, status = b"", 0
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
            latency = time.perf_counter() - start
            keep = request.call is None or index % sample_every == 0
            out.append(Outcome(request, latency, status,
                               body if keep else None))
    finally:
        conn.close()


def run_clients(port: int, streams: List[List[Request]],
                sample_every: int) -> List[Outcome]:
    """Run one closed-loop keep-alive client per stream until all end."""
    barrier = threading.Barrier(len(streams))
    results: List[List[Outcome]] = [[] for _ in streams]
    threads = [threading.Thread(target=_client, args=(
        port, stream, sample_every, barrier, out))
        for stream, out in zip(streams, results)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for out in results for outcome in out]


@dataclass
class Served:
    """One session against a fresh ``repro serve`` process."""

    #: Spawn of the server to the last reply.
    wall_s: float
    #: First request to the last reply.
    load_s: float
    ready_s: float
    peak_rss_mb: float
    #: p50 / p99 of the server's own latency sketch after the load.
    server_ms: Tuple[float, float]
    outcomes: List[Outcome]


def serve_session(artifact: Path, scratch: Path,
                  streams: List[List[Request]], sample_every: int) -> Served:
    """Start ``repro serve`` on ``artifact``, run the clients, stop it."""
    server = ServeProcess(artifact, scratch)
    try:
        start = time.perf_counter()
        outcomes = run_clients(server.port, streams, sample_every)
        end = time.perf_counter()
        server_ms = server_latency_ms(server.port)
    finally:
        peak_rss_mb = server.stop()
    return Served(end - server.start, end - start, server.ready_s,
                  peak_rss_mb, server_ms, outcomes)


def server_latency_ms(port: int) -> Tuple[float, float]:
    """p50 / p99 of the server's own request-latency sketch (/metrics)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        timers = json.loads(conn.getresponse().read())["server"]["timers"]
    finally:
        conn.close()
    latency = timers["serve.http.latency"]
    return latency["p50_s"] * 1e3, latency["p99_s"] * 1e3


# -------------------------------------------------------------------- check
@dataclass
class Tally:
    """Per-endpoint counts and latencies of one or more sessions."""

    sent: Counter = field(default_factory=Counter)
    ok: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    checked: int = 0
    query_latency_s: List[float] = field(default_factory=list)
    reload_latency_s: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.sent.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for endpoint in ENDPOINTS:
            out[f"serve.http.{endpoint}.sent"] = self.sent[endpoint]
            out[f"serve.http.{endpoint}.ok"] = self.ok[endpoint]
            out[f"serve.http.{endpoint}.failed"] = self.failed[endpoint]
        return out


def _reloaded(body: bytes) -> bool:
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("status") == "reloaded"


def check(outcomes: List[Outcome], engine: ModelQueryEngine,
          tally: Tally) -> None:
    """Count each outcome into ``tally``; a non-200, a reload that did
    not report ``reloaded``, or a sampled body that differs from the
    in-process engine's answer is a failed request."""
    for outcome in outcomes:
        request = outcome.request
        good = outcome.status == 200
        if good and request.call is None:
            good = _reloaded(outcome.body or b"")
        elif good and outcome.body is not None:
            tally.checked += 1
            good = same_answer(outcome.body,
                               expected_answer(engine, request.call))
        tally.sent[request.endpoint] += 1
        if good:
            tally.ok[request.endpoint] += 1
            if request.call is None:
                tally.reload_latency_s.append(outcome.latency_s)
            else:
                tally.query_latency_s.append(outcome.latency_s)
        else:
            tally.failed[request.endpoint] += 1


def latency_summary(tally: Tally) -> Dict[str, float]:
    """Latencies of the successful requests (0 where there are none)."""
    queries = tally.query_latency_s or [0.0]
    return {
        "query_p50_ms": percentile(queries, 50) * 1e3,
        "query_p99_ms": percentile(queries, 99) * 1e3,
        "query_samples": len(tally.query_latency_s),
        "reload_p50_ms": median(tally.reload_latency_s or [0.0]) * 1e3,
    }


# ------------------------------------------------------------------ replay
def replay(streams: List[List[Request]],
           artifact: Path) -> Tuple[float, float]:
    """Replay the clients' requests in-process, interleaved, on a fresh
    engine per reload (as the server hot-swaps).

    Returns ``(query p50 in µs, cache hits / lookups)``.
    """
    latencies: List[float] = []
    hits = lookups = 0

    def fresh():
        return ModelQueryEngine(load_model(str(artifact)))

    def retire(engine):
        nonlocal hits, lookups
        info = engine.cache_info()
        hits += info["hits"]
        lookups += info["hits"] + info["misses"]
        engine.close()

    engine = fresh()
    for request in itertools.chain.from_iterable(
            itertools.zip_longest(*streams)):
        if request is None:
            continue
        if request.call is None:
            retire(engine)
            engine = fresh()
            continue
        method, kwargs = request.call
        start = time.perf_counter()
        getattr(engine, method)(**kwargs)
        latencies.append(time.perf_counter() - start)
    retire(engine)
    return percentile(latencies, 50) * 1e6, hits / max(lookups, 1)

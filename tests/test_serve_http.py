"""HTTP serving layer: endpoints, error mapping, metrics, shutdown.

The acceptance invariant for ``repro.serve`` lives here: every answer
served over HTTP equals the answer computed directly from the in-memory
``MiningResult`` (property-tested over query parameters).
"""

import http.client
import json
import os
import signal
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve import ModelQueryEngine, ModelServer

from .test_serve_artifact import fitted  # noqa: F401 - shared fixture


@pytest.fixture(scope="module")
def server(fitted):  # noqa: F811 - pytest fixture injection
    miner, result = fitted
    engine = ModelQueryEngine.from_result(result,
                                          config=miner._artifact_config())
    with ModelServer(engine, port=0) as srv:  # port 0 -> ephemeral
        srv.start()
        yield srv


def _get(server, path, expect_status=200):
    url = f"http://{server.host}:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        assert exc.status == expect_status, exc.read()
        return exc.status, json.loads(exc.read())


def _post(server, path, payload, expect_status=200):
    url = f"http://{server.host}:{server.port}{path}"
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        assert exc.status == expect_status
        return exc.status, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0
        assert payload["num_topics"] >= 1

    def test_model_info(self, server):
        _, payload = _get(server, "/v1/model")
        assert payload == server.engine.model_info()

    def test_topic_notation_as_path(self, server):
        _, payload = _get(server, "/v1/topics/o/1")
        assert payload == server.engine.topic("o/1")

    def test_topic_query_parameters(self, server):
        _, payload = _get(server, "/v1/topics/o?phrases=2&terms=1")
        assert payload == server.engine.topic("o", max_phrases=2,
                                              max_terms=1)
        assert len(payload["phrases"]) <= 2

    def test_search(self, server):
        _, payload = _get(server, "/v1/search?q=support&mode=substring")
        assert payload == server.engine.search_phrases("support",
                                                       mode="substring")

    def test_entities(self, server):
        _, payload = _get(server, "/v1/entities/alice?type=author")
        assert payload == server.engine.entity_roles("alice",
                                                     entity_type="author")

    def test_batch_post(self, server):
        requests = [
            {"op": "top_phrases", "args": {"topic_id": "o", "k": 3}},
            {"op": "topic", "args": {"topic_id": "o/404"}},
        ]
        _, payload = _post(server, "/v1/batch", requests)
        assert payload == server.engine.batch(requests)
        assert payload["results"][0]["ok"]
        assert payload["results"][1]["status"] == 404


class TestRoundTripInvariant:
    """HTTP answers must equal direct in-memory engine answers, byte for
    byte once JSON-canonicalized — across all topics and parameters."""

    def test_all_topics_round_trip(self, server, fitted):  # noqa: F811
        miner, result = fitted
        direct = ModelQueryEngine.from_result(
            result, config=miner._artifact_config())
        for topic in result.hierarchy.topics():
            quoted = urllib.parse.quote(topic.notation)
            _, over_http = _get(server, f"/v1/topics/{quoted}")
            assert json.dumps(over_http, sort_keys=True) == \
                json.dumps(direct.topic(topic.notation), sort_keys=True)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(phrases=st.integers(min_value=0, max_value=20),
           entities=st.integers(min_value=0, max_value=8),
           terms=st.integers(min_value=0, max_value=15))
    def test_topic_parameters_round_trip(self, server, phrases, entities,
                                         terms):
        _, over_http = _get(
            server,
            f"/v1/topics/o/1?phrases={phrases}&entities={entities}"
            f"&terms={terms}")
        direct = server.engine.topic("o/1", max_phrases=phrases,
                                     max_entities=entities, max_terms=terms)
        assert json.dumps(over_http, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query=st.text(alphabet="abcdefgstuv ", min_size=0, max_size=8),
           mode=st.sampled_from(["prefix", "substring"]),
           limit=st.integers(min_value=1, max_value=20))
    def test_search_round_trip(self, server, query, mode, limit):
        encoded = urllib.parse.quote(query)
        _, over_http = _get(
            server, f"/v1/search?q={encoded}&mode={mode}&limit={limit}")
        direct = server.engine.search_phrases(query, mode=mode, limit=limit)
        assert json.dumps(over_http, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)


class TestErrorMapping:
    def test_unknown_topic_is_404(self, server):
        status, payload = _get(server, "/v1/topics/o/9/9",
                               expect_status=404)
        assert status == 404 and "error" in payload

    def test_unknown_route_is_404(self, server):
        status, _ = _get(server, "/v1/nope", expect_status=404)
        assert status == 404

    def test_bad_parameter_is_400(self, server):
        status, payload = _get(server, "/v1/topics/o?phrases=many",
                               expect_status=400)
        assert status == 400 and "integer" in payload["error"]

    def test_search_without_query_is_400(self, server):
        status, _ = _get(server, "/v1/search", expect_status=400)
        assert status == 400

    def test_bad_batch_body_is_400(self, server):
        url = f"http://{server.host}:{server.port}/v1/batch"
        request = urllib.request.Request(url, data=b"not json{")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.status == 400

    def test_unknown_entity_is_404(self, server):
        status, _ = _get(server, "/v1/entities/nobody", expect_status=404)
        assert status == 404


class TestMetrics:
    def test_metrics_count_requests(self, server):
        _get(server, "/healthz")
        _get(server, "/v1/topics/o/9/9", expect_status=404)
        _, payload = _get(server, "/metrics")
        counters = payload["server"]["counters"]
        assert counters["serve.http.requests"] >= 3
        assert counters["serve.http.status.404"] >= 1
        assert counters["serve.http.status.200"] >= 1
        assert "serve.http.latency" in payload["server"]["timers"]
        assert "hits" in payload["cache"] and "misses" in payload["cache"]

    def test_registry_property_matches_endpoint(self, server):
        _get(server, "/healthz")
        snapshot = server.registry.snapshot()
        assert snapshot["counters"]["serve.http.requests"] >= 1


class TestKeepAlive:
    def test_sequential_requests_do_not_stall(self, server):
        """Headers and body leave as two small writes; without
        TCP_NODELAY the body waits on the client's delayed ACK, ~40 ms
        per request on a reused connection."""
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        latencies = []
        try:
            for _ in range(50):
                start = time.perf_counter()
                connection.request("GET", "/v1/topics/o/1")
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020, latencies


class TestLifecycle:
    def test_invalid_timeout_rejected(self, fitted):  # noqa: F811
        _, result = fitted
        engine = ModelQueryEngine.from_result(result)
        with pytest.raises(ConfigurationError):
            ModelServer(engine, request_timeout=0)

    def test_shutdown_before_start_is_noop(self, fitted):  # noqa: F811
        _, result = fitted
        engine = ModelQueryEngine.from_result(result)
        server = ModelServer(engine, port=0)
        server.shutdown()  # must not deadlock
        server.close()

    def test_start_shutdown_releases_port(self, fitted):  # noqa: F811
        _, result = fitted
        engine = ModelQueryEngine.from_result(result)
        with ModelServer(engine, port=0) as first:
            first.start()
            port = first.port
            status, _ = _get(first, "/healthz")
            assert status == 200
        # The context exit shut the server down; the port is free again.
        with ModelServer(engine, port=port) as second:
            second.start()
            status, _ = _get(second, "/healthz")
            assert status == 200

    def test_sigterm_triggers_graceful_shutdown(self, fitted):  # noqa: F811
        _, result = fitted
        engine = ModelQueryEngine.from_result(result)
        server = ModelServer(engine, port=0)
        server.install_signal_handlers(signals=(signal.SIGTERM,))
        try:
            stopped = threading.Event()

            def run():
                server.serve_forever()
                stopped.set()

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            status, _ = _get(server, "/healthz")
            assert status == 200
            os.kill(os.getpid(), signal.SIGTERM)
            assert stopped.wait(timeout=10), \
                "serve_forever did not return after SIGTERM"
            thread.join(timeout=5)
        finally:
            server.close()  # also restores the original signal handlers

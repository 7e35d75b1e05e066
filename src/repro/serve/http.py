"""Stdlib threaded HTTP serving layer for mined hierarchies.

:class:`ModelServer` wraps a :class:`~repro.serve.engine.ModelQueryEngine`
in a :class:`http.server.ThreadingHTTPServer` (no third-party
dependencies) and exposes the query API as JSON endpoints:

=====================  ======================================================
``GET /healthz``        liveness probe (status, uptime, model id)
``GET /metrics``        request / latency / cache counters as JSON, or
                        Prometheus text exposition with
                        ``?format=prometheus`` (or an ``Accept`` header
                        preferring ``text/plain``); latency timers carry
                        p50/p90/p99 in both formats
``GET /v1/model``       manifest + tree-shape statistics
``GET /v1/topics/o/1``  topic detail; the path *is* the topic notation
                        (``?phrases=&entities=&terms=`` trim the answer)
``GET /v1/search``      ``?q=...&mode=prefix|substring&limit=N``
``GET /v1/entities/X``  entity roles (``?type=`` and ``?topic=`` refine)
``POST /v1/batch``      JSON array of ``{"op": ..., "args": {...}}``
``POST /v1/admin/reload``  hot-swap to a freshly loaded artifact (400
                        without a configured reloader); SIGHUP does the
                        same where the platform has it
=====================  ======================================================

Routing itself lives in :mod:`repro.serve.router`, shared with the
asyncio frontend (:mod:`repro.serve.aio`), so the two servers cannot
drift apart.  Operational behavior:

* every request is timed and counted in the server's own
  :class:`~repro.obs.MetricsRegistry` (``serve.http.*``) — always on, so
  ``/metrics`` works without global observability — and mirrored into the
  process-wide registry when :func:`repro.obs.configure` enabled it;
* every request gets a trace ID, echoed back as the ``X-Request-Id``
  response header; with span tracing enabled the whole handling path is
  wrapped in a ``serve.http.request`` span carrying that ID, so one
  request's spans are one trace in the exported Chrome timeline;
* a per-connection read timeout drops clients that stall mid-request
  instead of pinning a handler thread forever;
* POST bodies are hard-limited: no Content-Length gives 411, a
  malformed one gives 400, one past ``max_body_bytes`` gives 413 with a
  typed error payload — all before a single body byte is buffered;
* :meth:`ModelServer.install_signal_handlers` arranges a graceful
  shutdown on SIGTERM (and SIGINT): in-flight requests finish, the
  listening socket closes, and ``serve_forever`` returns.

Typed library errors map to JSON error responses: unknown topics and
entities (:class:`~repro.errors.DataError`) give 404, invalid parameters
(:class:`~repro.errors.ConfigurationError`) give 400, and anything
unexpected gives a 500 with the exception logged, never a dropped
connection.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError, DataError
from ..obs import (PROMETHEUS_CONTENT_TYPE, MetricsRegistry, get_logger,
                   set_trace_id, span)
from .engine import ModelQueryEngine
from .router import (DEFAULT_MAX_BODY_BYTES, PrometheusText,
                     RequestRejected, ServerStateMixin, parse_json_body,
                     route_request, validate_content_length)

__all__ = ["ModelServer"]

logger = get_logger("serve.http")


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the engine and answers in JSON."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: headers and body go out as separate small writes,
    #: and with Nagle on the second waits for the client's delayed ACK
    #: (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    #: Trace ID of the request being handled (echoed as X-Request-Id).
    _request_id: Optional[str] = None

    # ------------------------------------------------------------ plumbing
    def setup(self) -> None:
        # Read timeout: a client that stalls mid-request is disconnected
        # instead of occupying a handler thread indefinitely.  Must be in
        # place before setup() so the socket timeout is applied.
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_body(self, status: int, body: bytes,
                   content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        if self.close_connection:
            # Advertise the close (e.g. after a rejected body we never
            # read) so clients don't try to reuse the connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        "application/json")

    # ------------------------------------------------------------- methods
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        server: "_EngineServer" = self.server
        # One trace ID per request: every span opened while handling it
        # (this request span included) shares the ID, and the client gets
        # it back as X-Request-Id for log correlation.
        self._request_id = server.next_request_id()
        set_trace_id(self._request_id)
        start = time.perf_counter()
        endpoint = "unknown"
        # Lease the engine for the whole request: a hot swap landing
        # mid-request retires the old engine but this request keeps
        # answering from it; the engine closes after the last release.
        handle = server.acquire_engine()
        try:
            with span("serve.http.request", method=method,
                      request_id=self._request_id):
                try:
                    status, payload, endpoint = route_request(
                        server, method, self.path,
                        accept=self.headers.get("Accept", ""),
                        read_body=self._read_json_body,
                        engine=handle.engine)
                except RequestRejected as exc:
                    status, payload = exc.status, exc.payload
                    # An unread body would be parsed as the next request
                    # on this keep-alive connection; drop it instead.
                    self.close_connection = True
                except DataError as exc:
                    status, payload = 404, {"error": str(exc)}
                except (ConfigurationError, ValueError) as exc:
                    status, payload = 400, {"error": str(exc)}
                except BrokenPipeError:  # client went away mid-answer
                    self.close_connection = True
                    return
                except Exception as exc:  # noqa: BLE001 - must answer
                    logger.error("unhandled error serving %s: %r",
                                 self.path, exc)
                    status, payload = 500, {
                        "error": f"internal error: {exc!r}"}
                try:
                    if isinstance(payload, PrometheusText):
                        self._send_body(status,
                                        payload.text.encode("utf-8"),
                                        PROMETHEUS_CONTENT_TYPE)
                    else:
                        self._send_json(status, payload)
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True
                    return
                finally:
                    elapsed = time.perf_counter() - start
                    server.record_request(endpoint, status, elapsed)
        finally:
            handle.release()
            set_trace_id(None)

    def _read_json_body(self) -> Any:
        """Read and parse the POST body under the hardening contract.

        Raises :class:`RequestRejected` (411 / 400 / 413, typed payload)
        before reading a byte when the framing is absent, malformed, or
        over ``max_body_bytes``; a short read or bad JSON gives 400.
        """
        length = validate_content_length(
            self.headers.get("Content-Length"),
            self.server.max_body_bytes)
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConfigurationError(
                f"request body truncated ({len(body)} of {length} "
                f"bytes received)")
        return parse_json_body(body)


class _EngineServer(ThreadingHTTPServer, ServerStateMixin):
    """ThreadingHTTPServer carrying the engine and per-server metrics."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], engine: ModelQueryEngine,
                 request_timeout: float, max_body_bytes: int) -> None:
        super().__init__(address, _RequestHandler)
        self._init_server_state(engine)
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes


class ModelServer:
    """Lifecycle wrapper around the threaded HTTP server.

    Usage (blocking, as the CLI does)::

        server = ModelServer(engine, host="0.0.0.0", port=8080)
        server.install_signal_handlers()     # SIGTERM -> graceful stop
        server.serve_forever()

    or non-blocking (as the tests do)::

        with ModelServer(engine, port=0) as server:   # ephemeral port
            server.start()
            url = f"http://{server.host}:{server.port}/healthz"
    """

    def __init__(self, engine: ModelQueryEngine, host: str = "127.0.0.1",
                 port: int = 8080, request_timeout: float = 30.0,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        if request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive")
        if max_body_bytes <= 0:
            raise ConfigurationError("max_body_bytes must be positive")
        self._httpd = _EngineServer((host, port), engine, request_timeout,
                                    max_body_bytes)
        self._thread: Optional[threading.Thread] = None
        self._previous_handlers: Dict[int, Any] = {}
        self._started = False

    # ------------------------------------------------------------ accessors
    @property
    def engine(self) -> ModelQueryEngine:
        return self._httpd.engine

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def registry(self) -> MetricsRegistry:
        """The server-local metrics registry backing ``/metrics``."""
        return self._httpd.registry

    # ------------------------------------------------------------- hot swap
    def set_reloader(self, reloader) -> None:
        """Install the engine factory ``reload()`` / SIGHUP will call."""
        self._httpd.set_reloader(reloader)

    def swap_engine(self, engine: ModelQueryEngine) -> ModelQueryEngine:
        """Hot-swap to ``engine``; in-flight requests drain on the old."""
        return self._httpd.swap_engine(engine)

    def reload(self) -> Dict[str, Any]:
        """Rebuild via the reloader and swap (same as POST /v1/admin/reload)."""
        return self._httpd.reload_engine()

    # ------------------------------------------------------------ lifecycle
    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` is called (blocking)."""
        logger.info("serving model on %s:%d", self.host, self.port)
        self._started = True
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ModelServer":
        """Serve from a background thread (returns immediately)."""
        if self._thread is not None:
            return self
        self._started = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting requests and let ``serve_forever`` return.

        A no-op when the server never started serving (calling the
        underlying ``shutdown`` then would block forever waiting for a
        serve loop that never ran).
        """
        if self._started:
            self._httpd.shutdown()
            self._started = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        """Release the listening socket (after shutdown)."""
        self.restore_signal_handlers()
        self._httpd.server_close()

    def install_signal_handlers(self,
                                signals: Tuple[int, ...] = (signal.SIGTERM,
                                                            signal.SIGINT),
                                ) -> None:
        """Trigger a graceful shutdown when one of ``signals`` arrives.

        ``shutdown`` must not run on the thread blocked in
        ``serve_forever`` (it would deadlock waiting for the serve loop
        to exit), and signal handlers run on the main thread — so the
        handler hands the shutdown to a short-lived helper thread.
        """
        def _handler(signum, frame):  # noqa: ARG001 - signal signature
            logger.info("signal %d: shutting down gracefully", signum)
            threading.Thread(target=self._httpd.shutdown,
                             name="repro-serve-shutdown",
                             daemon=True).start()

        for signum in signals:
            self._previous_handlers[signum] = signal.signal(signum, _handler)
        self._install_reload_handler()

    def _install_reload_handler(self) -> None:
        """SIGHUP -> hot reload, where the platform has SIGHUP."""
        if not hasattr(signal, "SIGHUP"):
            return

        def _reload(signum, frame):  # noqa: ARG001 - signal signature
            logger.info("signal %d: hot-reloading the model", signum)
            threading.Thread(target=self._reload_quietly,
                             name="repro-serve-reload",
                             daemon=True).start()

        self._previous_handlers[signal.SIGHUP] = \
            signal.signal(signal.SIGHUP, _reload)

    def _reload_quietly(self) -> None:
        try:
            self.reload()
        except Exception as exc:  # noqa: BLE001 - signal ctx, must not die
            logger.error("hot reload failed: %r", exc)

    def restore_signal_handlers(self) -> None:
        """Reinstate the handlers replaced by :meth:`install_signal_handlers`."""
        while self._previous_handlers:
            signum, handler = self._previous_handlers.popitem()
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # not on the main thread
                pass

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.shutdown()
        finally:
            self.close()

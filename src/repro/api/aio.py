"""AsyncRemoteGraphService: the asyncio backend + open-loop load generator.

The ROADMAP's "async client" item: the thread-per-connection sync replay
tops out around hundreds of connections (one OS thread each); this backend
holds *thousands* of concurrent keep-alive connections in one process on a
single event loop.  Stdlib only — the HTTP/1.1 client is hand-rolled over
``asyncio.open_connection`` (the server always frames responses with
``Content-Length``, so parsing is a status line + headers + exact read).

Connections live in a bounded pool: a request checks one out (opening lazily
up to ``max_connections``), sends, reads, and parks it back idle.  ``warm``
pre-opens a given number of connections so a load test measurably *holds*
them; ``pool_stats`` reports open/peak-open/in-flight/peak-in-flight
counters the benchmarks assert on.

:func:`replay_trace_async` mirrors :func:`repro.workload.replay.replay_trace`
(same :class:`ReplayResult`, same open-loop release schedule) but issues
every query as an asyncio task multiplexed over the pool — thousands of
in-flight queries cost coroutines, not threads.  :func:`replay_trace_async_blocking`
wraps it in ``asyncio.run`` for sync callers (the CLI's ``loadgen --async-client``).
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
import uuid

from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryResponse,
    as_request,
    parse_response,
    wire_error_message,
    wire_result,
)
from repro.api.remote import (
    negotiated_version_from,
    recording_start_body,
    trace_from_stop_payload,
    validate_pinned_version,
)
from repro.errors import ProtocolError, ServerError, WorkloadError
from repro.obs.recorder import get_recorder
from repro.obs.trace import Span, TraceContext, new_span_id, new_trace_id
from repro.query_model import QueryType
from repro.workload.replay import ReplayEvent, ReplayResult, with_serving_fields
from repro.workload.workload import Workload


class _Connection:
    """One keep-alive HTTP/1.1 connection (reader/writer pair)."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def request(self, method: str, path: str, host_header: str,
                      body: bytes | None = None) -> tuple[int, dict, bool]:
        """One request/response exchange; returns (status, payload, reusable)."""
        head = [f"{method} {path} HTTP/1.1", f"Host: {host_header}"]
        if body is not None:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        else:
            head.append("Content-Length: 0")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")
        self.writer.write(raw)
        await self.writer.drain()

        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ProtocolError(f"malformed HTTP status line: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("connection closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self.reader.readexactly(length) if length else b""
        payload = json.loads(data) if data else {}
        reusable = headers.get("connection", "keep-alive").lower() != "close"
        return status, payload, reusable

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - best-effort socket teardown
            pass


class AsyncRemoteGraphService:
    """Async HTTP :class:`GraphService` backend with a connection pool."""

    backend = "remote-async"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        max_connections: int = 1024,
        protocol_version: int | None = None,
        trace_sample_rate: float = 0.0,
    ) -> None:
        if max_connections < 1:
            raise ServerError("max_connections must be at least 1")
        validate_pinned_version(protocol_version)
        if not (0.0 <= trace_sample_rate <= 1.0):
            raise ProtocolError("trace_sample_rate must be between 0 and 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_connections = max_connections
        #: Fraction of queries this client originates a trace for (v2 only).
        self.trace_sample_rate = trace_sample_rate
        # dedicated RNG: sampling must not perturb seeded workload streams
        self._sample_rng = random.Random(uuid.uuid4().int)
        self._version = protocol_version
        self._version_lock: asyncio.Lock | None = None  # bound to the running loop
        self._idle: list[_Connection] = []
        self._capacity: asyncio.Semaphore | None = None  # bound to the running loop
        self._closed = False
        # pool observability (asserted on by the S4 benchmark)
        self.open_connections = 0
        self.peak_open_connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.requests_sent = 0
        self.reconnects = 0

    @classmethod
    def for_server(cls, server, **kwargs) -> "AsyncRemoteGraphService":
        """Client bound to an in-process :class:`QueryServer`."""
        return cls(server.host, server.port, **kwargs)

    # ------------------------------------------------------------------ #
    # connection pool
    # ------------------------------------------------------------------ #
    def _semaphore(self) -> asyncio.Semaphore:
        if self._capacity is None:
            self._capacity = asyncio.Semaphore(self.max_connections)
        return self._capacity

    async def _open(self) -> _Connection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # request head and body go out as separate writes; without
            # NODELAY, Nagle holds the second one for the peer's delayed
            # ACK (~40ms per request, even on loopback)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.open_connections += 1
        self.peak_open_connections = max(self.peak_open_connections, self.open_connections)
        return _Connection(reader, writer)

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise ServerError("async client is closed")
        await self._semaphore().acquire()
        if self._idle:
            return self._idle.pop()
        try:
            return await self._open()
        except BaseException:
            self._semaphore().release()
            raise

    def _release(self, connection: _Connection, reusable: bool) -> None:
        if reusable and not self._closed:
            self._idle.append(connection)
        else:
            connection.close()
            self.open_connections -= 1
        self._semaphore().release()

    def _discard(self, connection: _Connection) -> None:
        """Drop a broken connection; the capacity slot is NOT touched here —
        every caller releases (or re-acquires) the semaphore itself."""
        connection.close()
        self.open_connections -= 1

    async def warm(self, count: int, concurrency: int = 64) -> int:
        """Pre-open ``count`` keep-alive connections and park them idle.

        Opens in bounded waves so a large warm-up doesn't overflow the
        server's listen backlog.  Returns the number of connections open
        afterwards; this is how a load test *holds* N connections while the
        open-loop schedule multiplexes queries over them.
        """
        count = min(count, self.max_connections)
        gate = asyncio.Semaphore(concurrency)

        async def open_one() -> None:
            async with gate:
                self._idle.append(await self._open())

        need = count - self.open_connections
        if need > 0:
            await asyncio.gather(*(open_one() for _ in range(need)))
        return self.open_connections

    def pool_stats(self) -> dict:
        """Pool counters (open/peak/in-flight) for benchmarks and reports."""
        return {
            "open_connections": self.open_connections,
            "peak_open_connections": self.peak_open_connections,
            "idle_connections": len(self._idle),
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "requests_sent": self.requests_sent,
            "reconnects": self.reconnects,
            "max_connections": self.max_connections,
        }

    async def aclose(self) -> None:
        """Close every idle connection and refuse further requests."""
        self._closed = True
        while self._idle:
            connection = self._idle.pop()
            connection.close()
            self.open_connections -= 1

    async def __aenter__(self) -> "AsyncRemoteGraphService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    async def _request(self, method: str, path: str,
                       body: dict | None = None) -> tuple[int, dict]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        host_header = f"{self.host}:{self.port}"
        for attempt in (0, 1):
            connection = await self._acquire()
            # counted only while a connection is held: waiters queued on the
            # pool semaphore are not "in flight" (peak stays <= pool size)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            try:
                status, response, reusable = await asyncio.wait_for(
                    connection.request(method, path, host_header, payload),
                    timeout=self.timeout,
                )
            except asyncio.TimeoutError:
                # the server may still be executing the request: retrying
                # would run the query twice, so timeouts always propagate
                self._discard(connection)
                self._semaphore().release()
                raise TimeoutError(f"{method} {path} timed out") from None
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                # stale keep-alive connection (server closed it between
                # requests, before processing anything): retry once
                self._discard(connection)
                self._semaphore().release()
                self.reconnects += 1
                if attempt:
                    raise
            except BaseException:
                # anything else (malformed response, cancellation): the
                # connection state is unknown — drop it, free the slot
                self._discard(connection)
                self._semaphore().release()
                raise
            else:
                self.requests_sent += 1
                self._release(connection, reusable)
                return status, response
            finally:
                self.in_flight -= 1
        raise ServerError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # protocol negotiation
    # ------------------------------------------------------------------ #
    async def negotiate(self) -> int:
        """Pick the highest protocol version both sides speak (404 = v1)."""
        status, payload = await self._request("GET", "/protocol")
        return negotiated_version_from(status, payload)

    async def _protocol_version(self) -> int:
        if self._version is None:
            # serialise negotiation: a fan-out of first requests must not
            # each pay (and count) its own /protocol round trip
            if self._version_lock is None:
                self._version_lock = asyncio.Lock()
            async with self._version_lock:
                if self._version is None:
                    self._version = await self.negotiate()
        return self._version

    # ------------------------------------------------------------------ #
    # GraphService surface (await-shaped)
    # ------------------------------------------------------------------ #
    def _sampled(self) -> bool:
        rate = self.trace_sample_rate
        if rate <= 0.0:
            return False
        return rate >= 1.0 or self._sample_rng.random() < rate

    async def send(self, query,
                   query_type: QueryType | str = QueryType.SUBGRAPH) -> tuple[int, dict]:
        """POST one query; returns the raw ``(http_status, payload)``.

        Client-side sampling mirrors the sync backend: a sampled query
        originates a trace (``client.request`` root span in the local
        recorder) whose context rides the v2 envelope.
        """
        request = as_request(query, query_type)
        version = await self._protocol_version()
        context = None
        if request.trace is None and version >= 2 and self._sampled():
            context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
            request.trace = context
        started_wall = time.time()
        started = time.perf_counter()
        try:
            return await self._request("POST", "/query", request.to_wire(version))
        finally:
            if context is not None:
                get_recorder().record(Span(
                    trace_id=context.trace_id, span_id=context.span_id,
                    name="client.request", start=started_wall,
                    duration_seconds=time.perf_counter() - started,
                    attributes={"request_id": request.request_id},
                ))

    async def run(self, query,
                  query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryResponse:
        """Execute one query, raising the typed error on any failure."""
        status, payload = await self.send(query, query_type)
        outcome = parse_response(payload, http_status=status)
        if isinstance(outcome, ErrorEnvelope):
            raise outcome.to_exception()
        return outcome

    async def run_batch(self, queries, concurrency: int | None = None) -> BatchResult:
        """Execute queries concurrently over the pool; per-item outcomes."""
        requests = [as_request(query) for query in queries]
        limit = self.max_connections if concurrency is None else concurrency
        if limit < 1:
            raise ServerError("concurrency must be at least 1")
        gate = asyncio.Semaphore(limit)

        async def execute(request):
            async with gate:
                try:
                    return await self.run(request)
                except Exception as exc:
                    return ErrorEnvelope.from_exception(
                        exc, request_id=request.request_id)

        items = await asyncio.gather(*(execute(request) for request in requests))
        return BatchResult(items=list(items))

    async def stream_batch(self, queries, deadline_seconds: float | None = None,
                           priority: int | None = None):
        """Submit a whole batch over one ``POST /batch``; yield as they finish.

        The async twin of :meth:`RemoteGraphService.stream_batch`: one
        connection, one submission round-trip, per-query NDJSON lines back
        in the server's completion order, yielded as ``(index, outcome)``
        pairs.  The response is framed by connection close, so the
        connection is checked out of the pool for the whole stream and
        dropped (never re-parked) afterwards.
        """
        version = await self._protocol_version()
        if version < 2:
            raise ProtocolError(
                "streamed batch submission needs protocol v2; "
                "the server only speaks v1"
            )
        requests = []
        for query in queries:
            request = as_request(query)
            if deadline_seconds is not None and request.deadline_seconds is None:
                request.deadline_seconds = deadline_seconds
            if priority is not None and not request.priority:
                request.priority = priority
            requests.append(request)
        body = json.dumps({
            "version": version,
            "queries": [request.to_wire(version) for request in requests],
        }).encode("utf-8")
        connection = await self._acquire()
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            head = (
                f"POST /batch HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            connection.writer.write(head + body)
            await connection.writer.drain()
            status_line = await asyncio.wait_for(
                connection.reader.readline(), timeout=self.timeout)
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
                raise ProtocolError(f"malformed HTTP status line: {status_line!r}")
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(
                    connection.reader.readline(), timeout=self.timeout)
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    raise ConnectionError("connection closed mid-headers")
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if status != 200:
                length = int(headers.get("content-length", "0"))
                data = (await connection.reader.readexactly(length)
                        if length else b"")
                payload = json.loads(data) if data else {}
                outcome = parse_response(payload, http_status=status)
                if isinstance(outcome, ErrorEnvelope):
                    raise outcome.to_exception()
                raise ServerError(f"/batch replied {status}: {payload}")
            self.requests_sent += 1
            while True:
                line = await asyncio.wait_for(
                    connection.reader.readline(), timeout=self.timeout)
                if not line:  # EOF: server closed — the batch is complete
                    break
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                index = payload.pop("index", None)
                if not isinstance(index, int):
                    raise ProtocolError(
                        f"batch result line without an index: {payload!r}")
                yield index, parse_response(payload)
        finally:
            self.in_flight -= 1
            self._discard(connection)  # close-framed: never reuse
            self._semaphore().release()

    async def run_batch_streamed(self, queries,
                                 deadline_seconds: float | None = None,
                                 priority: int | None = None) -> BatchResult:
        """:meth:`stream_batch`, gathered back into submission order."""
        queries = list(queries)
        items: list = [None] * len(queries)
        async for index, outcome in self.stream_batch(
                queries, deadline_seconds=deadline_seconds, priority=priority):
            if 0 <= index < len(items):
                items[index] = outcome
        for index, item in enumerate(items):
            if item is None:  # the server never answered this index
                items[index] = ErrorEnvelope.from_exception(
                    ServerError(f"no batch result line for index {index}"))
        return BatchResult(items=items)

    async def metrics(self) -> MetricsSnapshot:
        return MetricsSnapshot.from_wire(await self._ok("GET", "/metrics"))

    async def stats(self) -> dict:
        return await self._ok("GET", "/stats")

    async def health(self) -> dict:
        return await self._ok("GET", "/health")

    async def debug_traces(self, trace_id: str | None = None,
                           sort: str = "recent", count: int = 10) -> dict:
        """Fetch span trees from ``GET /debug/traces``."""
        if trace_id is not None:
            path = f"/debug/traces?trace_id={trace_id}"
        else:
            path = f"/debug/traces?sort={sort}&count={int(count)}"
        return await self._ok("GET", path)

    async def _ok(self, method: str, path: str, body: dict | None = None) -> dict:
        status, payload = await self._request(method, path, body)
        if status != 200:
            raise ServerError(f"{path} replied {status}: {payload}")
        return payload

    # ------------------------------------------------------------------ #
    # server-side trace recording
    # ------------------------------------------------------------------ #
    async def start_recording(self, name: str | None = None,
                              path: str | None = None) -> dict:
        return await self._ok("POST", "/record/start",
                              recording_start_body(name, path))

    async def stop_recording(self) -> Workload:
        return trace_from_stop_payload(await self._ok("POST", "/record/stop", {}))


# ---------------------------------------------------------------------- #
# open-loop async trace replay
# ---------------------------------------------------------------------- #
async def replay_trace_async(
    service: AsyncRemoteGraphService,
    trace: Workload,
    target_qps: float | None = None,
    concurrency: int | None = None,
    warm_connections: int | None = None,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
) -> ReplayResult:
    """Replay ``trace`` through the async client, one task per query.

    Mirrors :func:`repro.workload.replay.replay_trace` exactly — same
    open-loop release schedule (query *i* is released at ``i / target_qps``
    seconds), same :class:`ReplayResult` — but concurrency costs coroutines,
    not threads, so one process holds thousands of connections.

    ``concurrency`` bounds in-flight queries (default: the pool size);
    ``warm_connections`` pre-opens that many keep-alive connections before
    the clock starts, so the run *holds* them for its whole duration.
    ``deadline_seconds``/``priority_mix`` stamp the v2 serving fields on
    every request exactly as in the sync replay (same deterministic
    priority assignment).
    """
    if target_qps is not None and target_qps <= 0:
        raise WorkloadError("target_qps must be positive (or None for closed-loop)")
    queries = with_serving_fields(list(trace), deadline_seconds=deadline_seconds,
                                  priority_mix=priority_mix)
    limit = service.max_connections if concurrency is None else concurrency
    if limit < 1:
        raise WorkloadError("concurrency must be at least 1")
    if warm_connections:
        await service.warm(warm_connections)
    events: list[ReplayEvent | None] = [None] * len(queries)
    gate = asyncio.Semaphore(limit)
    start = time.perf_counter()

    async def one(index: int) -> None:
        if target_qps is not None:
            delay = (start + index / target_qps) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        async with gate:
            sent = time.perf_counter()
            priority = getattr(queries[index], "priority", None)
            try:
                status, payload = await service.send(queries[index])
            except Exception as exc:  # transport failure, not a server verdict
                events[index] = ReplayEvent(
                    index=index, status=-1,
                    latency_seconds=time.perf_counter() - sent,
                    error=f"{type(exc).__name__}: {exc}",
                    priority=priority,
                )
                return
            latency = time.perf_counter() - sent
            body = wire_result(payload) if status == 200 else {}
            server_meta = body.get("server", {})
            events[index] = ReplayEvent(
                index=index,
                status=status,
                latency_seconds=latency,
                answer=frozenset(body["answer"]) if status == 200 else None,
                batch_size=server_meta.get("batch_size"),
                queue_seconds=server_meta.get("queue_seconds"),
                error=None if status == 200 else wire_error_message(payload),
                priority=priority,
            )

    await asyncio.gather(*(one(index) for index in range(len(queries))))
    return ReplayResult(
        trace_name=trace.name,
        events=[event for event in events if event is not None],
        elapsed_seconds=time.perf_counter() - start,
        target_qps=target_qps,
        num_threads=1,
        num_connections=service.peak_open_connections,
    )


def replay_trace_async_blocking(
    host: str,
    port: int,
    trace: Workload,
    target_qps: float | None = None,
    max_connections: int = 1024,
    warm_connections: int | None = None,
    timeout: float = 60.0,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
) -> ReplayResult:
    """Sync entry point for the async replay (builds its own event loop)."""

    async def main() -> ReplayResult:
        async with AsyncRemoteGraphService(
            host, port, timeout=timeout, max_connections=max_connections
        ) as service:
            return await replay_trace_async(
                service, trace, target_qps=target_qps,
                warm_connections=warm_connections,
                deadline_seconds=deadline_seconds,
                priority_mix=priority_mix,
            )

    return asyncio.run(main())

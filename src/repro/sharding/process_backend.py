"""ProcessShardBackend: one spawned worker process per shard, one pipe each.

The GIL makes ``shard_backend="thread"`` a single-core deployment for
CPU-bound verification: the C1b benchmark shows 4 threads running *slower*
than 1.  This backend keeps the whole scatter-gather architecture — planner,
merge, cost-based admission, ``/metrics`` fan-in, snapshots — and swaps only
the shard hosting: each shard becomes a spawned OS process running
:func:`repro.sharding.worker.worker_main` (its own
:class:`~repro.runtime.system.GraphCacheSystem`, its own interpreter, its
own core).  The coordinator reaches each worker over the duplex
``multiprocessing`` pipe it spawned it with: an anonymous socketpair that
only the parent holds, so no worker binds a port.  Frames are pickled
``(request_id, op, payload)`` requests and ``(request_id, ok, result)``
replies (see :mod:`repro.sharding.worker`); a query batch crosses as
:class:`~repro.query_model.Query` objects and comes back as full
:class:`~repro.runtime.report.QueryReport` objects, with no envelope codec
on either side.  Per worker, one send lock serialises writes and one
receiver thread resolves a :class:`~concurrent.futures.Future` per request
id, so concurrent calls to one worker (the scatter pool's batches, a hedge,
a metrics scrape) overlap rather than queue.

:class:`ProcessShardClient` implements the same shard surface
:class:`~repro.sharding.system.ShardedGraphCacheSystem` already scatters to
(``run_query``/``run_queries_concurrent``/``statistics``/``dataset``/
snapshots/memory accessors), so the sharded system treats thread shards and
process shards identically.  Each proxy keeps a coordinator-side
:class:`StatisticsManager` mirror fed from the full per-query reports the
worker returns, which is what keeps ``attach_shard`` fan-in and cost-based
admission (``observed_test_cost``/``mean_dataset_tests``) working unchanged.

Worker lifecycle: spawn + ready-handshake at construction (startup errors
travel back over the pipe), graceful drain (``shutdown`` op → join →
kill) at close, and crash recovery in between — a dead worker shows up as
end-of-file on its pipe, which fails every call pending on it; the first
failed caller spends bounded respawn budget (``GCConfig.shard_respawn_limit``)
and each failed call is re-issued against the cold replacement (sound: the
cache only ever prunes guaranteed candidates, so answers are invariant
under cache state).  A worker that stays down surfaces as a typed,
retryable :class:`~repro.errors.ShardWorkerError` (wire code
``shard-worker``, HTTP 503).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as CallTimeoutError

from repro.api.envelopes import ErrorEnvelope
from repro.cache.statistics import QueryRecord, StatisticsManager
from repro.errors import ConfigurationError, ServerError, ShardWorkerError
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.obs.logs import get_logger
from repro.obs.recorder import get_recorder
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.runtime.report import QueryReport
from repro.sharding.worker import worker_main

logger = get_logger("sharding.process")

#: Seconds a spawned worker gets to build its index and say it is ready.
DEFAULT_STARTUP_TIMEOUT = 120.0

#: Per-request timeout against a worker (generous: a shard query is the
#: same work an in-process shard would do, plus pickling).
DEFAULT_REQUEST_TIMEOUT = 300.0


class _WorkerHandle:
    """One live worker: its process, its pipe and the calls awaiting replies."""

    def __init__(self, index: int, process, conn, describe: dict) -> None:
        self.index = index
        self.process = process
        #: Kept past ``close()``, which releases the process object.
        self.pid = process.pid
        self.conn = conn
        self.describe = describe
        self._send_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._request_ids = itertools.count()
        self._lost = False
        self._receiver = threading.Thread(
            target=self._receive, name=f"gc-procshard-recv-{index}", daemon=True
        )
        self._receiver.start()

    def submit(self, op: str, payload=None) -> Future:
        """Send one request frame; the future resolves with the worker's reply."""
        future: Future = Future()
        with self._pending_lock:
            if self._lost:
                raise EOFError(f"shard {self.index} worker pipe is closed")
            request_id = next(self._request_ids)
            self._pending[request_id] = future
        try:
            with self._send_lock:
                self.conn.send((request_id, op, payload))
        except BaseException:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise
        return future

    def _receive(self) -> None:
        try:
            while True:
                request_id, ok, result = self.conn.recv()
                with self._pending_lock:
                    future = self._pending.pop(request_id, None)
                if future is None:
                    continue
                if ok:
                    future.set_result(result)
                else:
                    future.set_exception(ErrorEnvelope.from_wire(result).to_exception())
        except Exception as exc:  # EOF/OSError once the worker is gone
            with self._pending_lock:
                self._lost = True
                pending, self._pending = self._pending, {}
            for future in pending.values():
                future.set_exception(EOFError(
                    f"shard {self.index} worker pipe closed ({type(exc).__name__})"
                ))

    def close(self) -> None:
        """Release the pipe; the worker process must already have exited."""
        self._receiver.join(timeout=5.0)
        self.conn.close()


class _RemoteMethodInfo:
    """Read-only stand-in for a worker-resident Method M (name + describe)."""

    def __init__(self, describe_payload: dict) -> None:
        self.name = str(describe_payload.get("method_name", "unknown"))
        self._description = dict(describe_payload.get("method") or {})

    def describe(self) -> dict:
        return dict(self._description)


class ProcessShardBackend:
    """Spawns, supervises and speaks to one worker process per shard."""

    def __init__(
        self,
        partitions: Sequence[Sequence[Graph]],
        shard_config: GCConfig,
        respawn_limit: int = 1,
        method_factory: Callable[[], MethodM] | None = None,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if method_factory is not None and isinstance(method_factory, MethodM):
            raise ConfigurationError(
                "the process shard backend needs a method *factory*; "
                "pass a zero-argument callable, not a built MethodM"
            )
        self._ctx = multiprocessing.get_context("spawn")
        self._dataset_payloads = [
            [graph.to_dict() for graph in partition] for partition in partitions
        ]
        self._config_payload = shard_config.to_dict()
        self._method_factory = method_factory
        self._startup_timeout = startup_timeout
        self._request_timeout = request_timeout
        self._respawn_limit = respawn_limit
        self._respawns_left = [respawn_limit] * len(self._dataset_payloads)
        #: Workers successfully replaced after a crash (asserted by tests).
        self.respawns_performed = 0
        self._lock = threading.Lock()
        self._closed = False

        self._handles: list[_WorkerHandle] = []
        started: list = []
        try:
            # start every worker first, then collect handshakes: startup
            # (imports + index build) overlaps across workers
            for index in range(len(self._dataset_payloads)):
                started.append(self._start_process(index))
            for index, (process, conn) in enumerate(started):
                self._handles.append(self._await_ready(index, process, conn))
        except Exception:
            self._teardown(started, self._handles)
            raise

        self.clients = [
            ProcessShardClient(self, index, partition, shard_config)
            for index, partition in enumerate(partitions)
        ]

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _start_process(self, index: int):
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._dataset_payloads[index],
                  self._config_payload, index, self._method_factory),
            name=f"gc-shard-worker-{index}",
            daemon=True,
        )
        try:
            process.start()
        except Exception as exc:
            conn.close()
            raise ConfigurationError(
                f"failed to spawn shard {index} worker: {exc} — a process "
                "backend ships its method factory to the child by pickling, "
                "so it must be a module-level callable (or None for the "
                "config-driven default)"
            ) from exc
        finally:
            child_conn.close()  # the child holds its end now
        return process, conn

    def _await_ready(self, index: int, process, conn) -> _WorkerHandle:
        if not conn.poll(self._startup_timeout):
            raise ShardWorkerError(
                index, f"startup handshake timed out after {self._startup_timeout}s"
            )
        try:
            payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                index, f"worker died during startup ({type(exc).__name__})"
            ) from exc
        if not isinstance(payload, dict) or "describe" not in payload:
            reason = payload.get("error") if isinstance(payload, dict) else repr(payload)
            raise ShardWorkerError(index, f"worker failed to start: {reason}")
        return _WorkerHandle(index, process, conn, dict(payload["describe"] or {}))

    def describe_payload(self, index: int) -> dict:
        """The handshake describe payload of shard ``index``'s worker."""
        return dict(self._handles[index].describe)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def call(self, index: int, op: str, payload=None):
        """One request to shard ``index``'s worker, with crash recovery.

        A transport failure against a *dead* worker spends respawn budget,
        brings up a cold replacement and re-issues the request there (every
        op is answer-safe to re-execute, and a lost reply means the whole
        request is re-run, so a crash can neither drop nor duplicate an
        answer); a timeout against a live worker propagates — a query that
        may still be executing is never re-run.
        """
        attempts = 0
        while True:
            handle = self._handle(index)
            try:
                return handle.submit(op, payload).result(timeout=self._request_timeout)
            except CallTimeoutError as exc:
                if handle.process.is_alive():
                    raise
                self._recover(index, handle, "worker died mid-request", cause=exc)
            except (OSError, EOFError) as exc:
                self._recover(index, handle, f"{type(exc).__name__}: {exc}", cause=exc)
            attempts += 1
            if attempts > self._respawn_limit + 1:  # pragma: no cover - safety net
                raise ShardWorkerError(index, "worker kept failing after respawn",
                                       self.respawns_performed)

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #
    def _handle(self, index: int) -> _WorkerHandle:
        if self._closed:
            raise ServerError("process shard backend is closed")
        with self._lock:
            return self._handles[index]

    def _recover(self, index: int, failed_handle: _WorkerHandle,
                 reason: str, cause: BaseException | None = None) -> None:
        """Replace a dead worker under budget; generation-safe across threads.

        Many in-flight requests can fail together when one worker dies; only
        the first caller spends budget and respawns, the rest observe the
        swapped handle and simply retry.  A transport error against a worker
        that is demonstrably alive is not a crash — it propagates.
        """
        with self._lock:
            current = self._handles[index]
            if current is not failed_handle:
                return  # a sibling thread already replaced this worker
            process = failed_handle.process
            if process.is_alive():
                process.join(timeout=0.5)  # a dying worker needs a beat to reap
            if process.is_alive():
                raise cause if cause is not None else ShardWorkerError(
                    index, reason, self.respawns_performed)
            if self._respawns_left[index] <= 0:
                logger.error("shard %d worker down (%s); respawn budget exhausted",
                             index, reason)
                raise ShardWorkerError(
                    index, f"{reason}; respawn budget exhausted",
                    self.respawns_performed,
                ) from cause
            self._respawns_left[index] -= 1
            failed_handle.close()
            replacement, conn = self._start_process(index)
            try:
                self._handles[index] = self._await_ready(index, replacement, conn)
            except ShardWorkerError:
                self._teardown([(replacement, conn)], [])
                raise
            self.respawns_performed += 1
            logger.warning(
                "shard %d worker respawned after crash (%s); "
                "%d respawn(s) left for this shard",
                index, reason, self._respawns_left[index],
            )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def liveness(self) -> list[dict]:
        """One row per worker: alive/pid plus respawn accounting."""
        with self._lock:
            handles = list(self._handles)
            respawns_left = list(self._respawns_left)
            closed = self._closed
        return [
            {
                "shard": handle.index,
                "backend": "process",
                "alive": not closed and handle.process.is_alive(),
                "pid": handle.pid,
                "respawns": self._respawn_limit - respawns_left[handle.index],
                "respawns_left": respawns_left[handle.index],
            }
            for handle in handles
        ]

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    @staticmethod
    def _teardown(started: list, handles: list[_WorkerHandle]) -> None:
        """Startup-failure cleanup: stop every worker that did start."""
        for process, _ in started:
            process.terminate()
        for process, _ in started:
            process.join(timeout=2.0)
        for handle in handles:
            handle.close()
        for _, conn in started:
            conn.close()

    def close(self) -> None:
        """Drain and join every worker: shutdown → join → kill."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        acks = []
        for handle in handles:
            try:
                acks.append(handle.submit("shutdown"))
            except Exception:
                pass  # a dead worker cannot drain; it is reaped below
        for ack in acks:
            try:
                ack.result(timeout=5.0)
            except Exception:
                pass
        for handle in handles:
            process = handle.process
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
            handle.close()
            process.close()


class ProcessShardClient:
    """One shard's proxy: the GraphCacheSystem shard surface over a worker.

    ``cache`` is ``None`` (the real cache lives in the worker; resident-key
    exact routing simply never primes, which is sound — summaries still
    prune on partition features).  ``statistics`` is a coordinator-side
    mirror recording the full per-query reports the worker returns, so
    ``/metrics`` fan-in and cost-based admission read genuine numbers.
    """

    cache = None

    def __init__(self, backend: ProcessShardBackend, index: int,
                 partition: Sequence[Graph], config: GCConfig) -> None:
        self._backend = backend
        self.index = index
        self.dataset = list(partition)
        self.config = config
        self.statistics = StatisticsManager()
        self.method = _RemoteMethodInfo(backend.describe_payload(index))

    # -- query execution ------------------------------------------------ #
    @staticmethod
    def _as_query(query: Query | Graph, query_type: QueryType | str) -> Query:
        if isinstance(query, Query):
            return query
        return Query(graph=query, query_type=QueryType.parse(query_type))

    @staticmethod
    def _wire(query: Query) -> Query:
        # the live ScatterPlan stashed by cost-based admission is a
        # coordinator-side object; the rest of the metadata, the trace
        # carrier included, crosses the pipe as it is
        metadata = {key: value for key, value in query.metadata.items()
                    if key != "scatter_plan"}
        return Query(graph=query.graph, query_type=query.query_type,
                     query_id=query.query_id, metadata=metadata)

    def _execute(self, queries: list[Query], query_type: QueryType | str,
                 max_workers: int) -> list[QueryReport]:
        reports = self._backend.call(
            self.index, "query",
            ([self._wire(query) for query in queries], query_type, max_workers),
        )
        for query, report in zip(queries, reports):
            report.query = query
            if report.spans:
                # the worker recorded these in *its* process; replay them into
                # the coordinator's recorder so the tree is whole on this side
                get_recorder().record_many(report.spans)
            # mirror records in submission order, matching the thread
            # backend's post-batch statistics reorder
            self.statistics.record(QueryRecord.from_report(report))
        return reports

    def run_query(self, query: Query | Graph,
                  query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryReport:
        return self._execute([self._as_query(query, query_type)], query_type, 1)[0]

    def run_queries(self, queries, query_type: QueryType | str = QueryType.SUBGRAPH):
        return [self.run_query(query, query_type) for query in queries]

    def run_queries_concurrent(self, queries,
                               query_type: QueryType | str = QueryType.SUBGRAPH,
                               max_workers: int | None = None):
        query_list = [self._as_query(query, query_type) for query in queries]
        if not query_list:
            return []
        workers = self.config.max_workers if max_workers is None else max_workers
        if workers < 1:
            raise ConfigurationError("max_workers must be at least 1")
        return self._execute(query_list, query_type, workers)

    # -- shard lifecycle hooks ------------------------------------------ #
    def flush_window(self) -> None:
        self._backend.call(self.index, "flush-window")

    def reset_remote_statistics(self) -> None:
        self._backend.call(self.index, "reset-statistics")

    def save_snapshot(self, path) -> int:
        return int(self._backend.call(self.index, "snapshot-save", str(path)))

    def restore_snapshot(self, path) -> int:
        return int(self._backend.call(self.index, "snapshot-restore", str(path)))

    # -- observability --------------------------------------------------- #
    def remote_describe(self) -> dict:
        """A live describe of the worker (cache population, memory)."""
        return self._backend.call(self.index, "describe")

    def registry_snapshot(self) -> dict:
        """The worker's own :class:`MetricsRegistry` snapshot (for fan-in)."""
        return self._backend.call(self.index, "registry")

    def drain_logs(self) -> dict:
        """Pop the worker's buffered warning/error log entries."""
        return self._backend.call(self.index, "drain-logs")

    def cache_memory_bytes(self) -> int:
        try:
            return int(self.remote_describe().get("cache_memory_bytes", 0))
        except Exception:  # metrics must not mask a serving-path failure
            return 0

    def index_memory_bytes(self) -> int:
        try:
            return int(self.remote_describe().get("index_memory_bytes", 0))
        except Exception:
            return 0

    def close(self) -> None:
        """Worker teardown is backend-wide; see ProcessShardBackend.close."""

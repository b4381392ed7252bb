"""Shard worker process: one unsharded GraphCacheSystem behind a pipe.

The process shard backend spawns one of these per shard
(``multiprocessing`` *spawn* context — no inherited locks or sockets, the
worker rebuilds everything from serialised payloads).  Each worker hosts its
own :class:`~repro.runtime.system.GraphCacheSystem` over its partition —
its own Method M index, its own thread-safe cache, its own admission window.

Its only channel is the duplex pipe it was spawned with, which nothing but
the coordinator can reach.  The first message on it is the ready handshake
(``{"describe": ...}``, or ``{"error": ...}`` when startup failed); every
later message is a request frame ``(request_id, op, payload)`` answered by
``(request_id, ok, result)``:

* ``query`` — ``(queries, query_type, max_workers)`` runs through
  :meth:`GraphCacheSystem.run_queries_concurrent`, the very call an
  in-process shard gets, and answers with the full pickled
  :class:`~repro.runtime.report.QueryReport` list (journey sets, stage
  timings, spans) the coordinator's scatter-gather merge consumes;
* ``flush-window``, ``reset-statistics``, ``snapshot-save`` /
  ``snapshot-restore`` (a path; worker-side file I/O — coordinator and
  workers share a filesystem), ``describe``, ``registry`` and
  ``drain-logs`` — the lifecycle and telemetry an in-process shard gets for
  free;
* ``shutdown`` — finish the in-flight ops, acknowledge, exit.

A failed op answers ``ok=False`` with an
:class:`~repro.api.envelopes.ErrorEnvelope` wire dict, so the coordinator
re-raises the same typed exception.  Frames are multiplexed: one receive
loop hands ops to a small thread pool and replies leave under a send lock,
so a hedge or a metrics scrape never waits behind a running batch.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.envelopes import ErrorEnvelope
from repro.cache.statistics import json_safe
from repro.errors import ProtocolError
from repro.obs.collectors import recorder_samples, system_samples
from repro.obs.logs import BufferedLogHandler, current_trace_id, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder
from repro.obs.trace import TRACE_KEY
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.runtime.system import GraphCacheSystem

logger = get_logger("sharding.worker")

#: Ops one worker runs at once.  The scatter pool sends a shard at most a
#: primary and a hedge batch; the rest keeps admin ops (scrapes, log
#: drains, describes) from queueing behind them.
OP_THREADS = 8


class ShardWorkerSystem(GraphCacheSystem):
    """A worker's engine: every query counted, and attributed to its shard.

    :meth:`run_queries_concurrent` funnels each query through
    :meth:`run_query`, so overriding it alone stamps the trace carrier's
    ``shard`` (pipeline spans name their shard) and sets the log trace id
    (forwarded log lines keep it) for every query of a batch.
    """

    def __init__(self, dataset, config: GCConfig, method, shard_index: int) -> None:
        super().__init__(dataset, config, method=method)
        self.shard_index = shard_index
        #: This worker's own telemetry registry, fanned into the
        #: coordinator's text exposition under a ``shard`` label.
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "worker_requests_total", help="Queries served by this worker")
        self._request_errors = self.registry.counter(
            "worker_request_errors_total", help="Queries that failed")
        self._latency = self.registry.histogram(
            "worker_query_seconds", help="Worker-side query latency")
        self.registry.register_collector(lambda: system_samples(self))
        self.registry.register_collector(lambda: recorder_samples(get_recorder()))

    def run_query(self, query: Query, query_type: QueryType | str = QueryType.SUBGRAPH):
        carrier = query.metadata.get(TRACE_KEY)
        trace_token = None
        if isinstance(carrier, dict):
            carrier["shard"] = self.shard_index
            trace_token = current_trace_id.set(str(carrier.get("trace_id") or "") or None)
        self._requests.inc()
        started = time.perf_counter()
        try:
            return super().run_query(query, query_type)
        except Exception as exc:
            self._request_errors.inc()
            logger.error("shard %d query failed: %s: %s",
                         self.shard_index, type(exc).__name__, exc)
            raise
        finally:
            self._latency.observe(time.perf_counter() - started)
            if trace_token is not None:
                current_trace_id.reset(trace_token)


class ShardWorker:
    """Answers the coordinator's request frames for one shard."""

    def __init__(self, system: ShardWorkerSystem, log_handler: BufferedLogHandler) -> None:
        self.system = system
        #: The worker's buffered warning/error log, drained by the
        #: coordinator with the ``drain-logs`` op.
        self.log_handler = log_handler

    def describe(self) -> dict:
        """Everything the coordinator mirrors about this worker's system."""
        system = self.system
        return json_safe({
            "shard": system.shard_index,
            "method_name": system.method.name,
            "method": system.method.describe(),
            "dataset_size": len(system.dataset),
            "cache": system.cache.describe() if system.cache is not None else None,
            "cache_memory_bytes": system.cache_memory_bytes(),
            "index_memory_bytes": system.index_memory_bytes(),
        })

    def run_op(self, op: str, payload):
        system = self.system
        if op == "query":
            queries, query_type, max_workers = payload
            return system.run_queries_concurrent(queries, query_type, max_workers)
        if op == "flush-window":
            return system.flush_window()
        if op == "reset-statistics":
            return system.statistics.reset()
        if op == "snapshot-save":
            return system.save_snapshot(payload)
        if op == "snapshot-restore":
            return system.restore_snapshot(payload)
        if op == "describe":
            return self.describe()
        if op == "registry":
            return system.registry.snapshot()
        if op == "drain-logs":
            return self.log_handler.drain()
        raise ProtocolError(f"unknown shard worker op {op!r}")

    def serve(self, conn) -> None:
        """Answer frames until ``shutdown`` or until the coordinator is gone."""
        send_lock = threading.Lock()

        def answer(request_id: int, op: str, payload) -> None:
            try:
                reply = (request_id, True, self.run_op(op, payload))
            except Exception as exc:
                reply = (request_id, False, ErrorEnvelope.from_exception(exc).to_wire())
            with send_lock:
                try:
                    conn.send(reply)
                except OSError:
                    pass  # the coordinator is gone; the receive loop ends too

        with ThreadPoolExecutor(max_workers=OP_THREADS,
                                thread_name_prefix="gc-worker-op") as pool:
            while True:
                try:
                    request_id, op, payload = conn.recv()
                except (EOFError, OSError):
                    return  # the coordinator is gone: finish in-flight ops, exit
                if op == "shutdown":
                    break
                pool.submit(answer, request_id, op, payload)
        conn.send((request_id, True, None))  # every in-flight op has replied


def worker_main(
    conn,
    dataset_payload: list[dict],
    config_payload: dict,
    shard_index: int,
    method_factory=None,
) -> None:
    """Entry point of a spawned shard worker process.

    Rebuilds the partition (:meth:`Graph.from_dict`) and the per-shard
    configuration, builds the system (config-driven method unless a picklable
    ``method_factory`` was shipped), sends ``{"describe": ...}`` on ``conn``
    and serves request frames until ``shutdown`` (or the process is killed).
    A startup failure is reported as ``{"error": ...}`` instead, so the
    coordinator can surface the real reason rather than a bare handshake
    timeout.
    """
    from repro.graph.graph import Graph  # deferred: after spawn bootstrap

    try:
        # buffer warnings/errors for the coordinator to drain and re-emit —
        # a spawned worker's stderr is otherwise lost
        log_handler = BufferedLogHandler()
        logging.getLogger("repro").addHandler(log_handler)
        dataset = [Graph.from_dict(payload) for payload in dataset_payload]
        config = GCConfig.from_dict(config_payload)
        get_recorder().configure(
            buffer_size=config.trace_buffer_size,
            slow_threshold_seconds=config.slow_query_threshold_s,
        )
        method = method_factory() if method_factory is not None else None
        system = ShardWorkerSystem(dataset, config, method, shard_index)
    except Exception as exc:
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            conn.close()
        return
    worker = ShardWorker(system, log_handler)
    try:
        conn.send({"describe": worker.describe()})
        worker.serve(conn)
    finally:
        conn.close()
        system.close()

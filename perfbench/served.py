"""The served-sharded workload: a load generator against a separate server.

The server (``server_main.py``) runs in its own process and hosts a
``QueryServer`` over two process shards.  This process is the load
generator: at most two threads and two keep-alive connections, speaking v2
through ``RemoteGraphService``.

* Set-up: the server is started three times; ``setup_s`` is the median time
  from system construction to a healthy ``/health`` with every worker alive.
  The last server is the one measured.
* Open-loop phase (the first 70% of ``--seconds``): queries are due at a fixed
  40 q/s; latency runs from each query's due time, and the generator's own
  lateness is recorded.  ``p50_ms``/``p99_ms`` come from here.
* Closed-loop phase (the last 30%): two connections send back to back;
  ``throughput_qps`` comes from here.  In a traced run its first half is
  untraced and its second half traced, which gives the tracing overhead.
* Oracle: after the server stops, every query sent is replayed in this
  process exactly as an embedded pass does (fresh unsharded system, plain
  Method M and GC interleaved per query).  Method M's answers must equal
  the served ones.  The replay's Method M time over GC time on the
  open-loop queries is this workload's ``cache_speedup``.  The served
  layers never enter it: worker-side stage times taken under load and a
  Method M time taken on a quiet host do not divide into a steady ratio.

The trace is corpus trace 0, zipfian mixed: one steady working set for the
whole run, as a long-lived server would see it.  Its first queries feed the
open loop in generator order, like a recorded trace replayed; the rest feed
the closed loop in the order the workload seed draws.  The open loop's
order is fixed because its latency tail hinges on which expensive queries
miss the cache, and a miss holds the single batch dispatcher for up to
~100 ms: with seed-drawn orders, ``p99_ms`` spread 0.41 over ten runs and
the replayed ``cache_speedup`` 1.15-1.64 over three.

Time metrics are reported at the reference host speed (``common.slowdown``).
The load generator runs the host-speed kernel only while the server has
nothing to do: in the open loop, one call shortly before a query is due
whenever no query is in flight, and twenty calls after the closed loop.
Each open-loop latency is divided by the slowdown of the kernel calls
around it, and closed-loop throughput is multiplied by the run's.  The
times as measured are returned too.  ``setup_s`` is reported as measured:
a start-up is mostly process spawn, imports and health polling spread over
both CPUs, which the kernel's slowdown does not describe; divided by it,
ten runs spread 0.23 instead of 0.12.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (OUT, ROOT, empty_layer_metrics, kernel_seconds, local_slowdowns,
                    make_dataset, median, metric, ratio, shuffled, slowdown, tail_percentile,
                    zipf_queries)
from ledger import Ledger, load_spans, totals

HERE = Path(__file__).resolve().parent
SETUPS = 3
TRACE_QUERIES = 1600
OPEN_LOOP_QPS = 40.0
OPEN_LOOP_SHARE = 0.7
#: Load-generator threads and connections: one per core of a 2-CPU host.
CONNECTIONS = 2
#: Host-speed kernel calls taken after the closed loop, the server idle.
IDLE_KERNELS = 20
#: How long before an open-loop query is due its kernel call starts.
KERNEL_LEAD_SECONDS = 0.003


class Record:
    """One query sent: its outcome and timings (seconds)."""

    __slots__ = ("position", "response", "latency", "service", "late", "phase", "kernel")

    def __init__(self, position: int, phase: str) -> None:
        self.position = position
        self.phase = phase
        self.response = None
        self.latency = 0.0   # from due time (open loop) or send time
        self.service = 0.0   # send to reply
        self.late = 0.0      # send time minus due time
        self.kernel = 0.0    # host-speed kernel CPU time before sending, if run


class ServerProcess:
    """A ``server_main.py`` child; always stopped, workers included."""

    def __init__(self, trace: bool, spans: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "server_main.py"), "--trace", str(int(trace))]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.process = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.workers: list[int] = []
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        try:
            started = self._event("started", timeout=150.0)
            self.port = started["port"]
            self.workers = started["workers"]
            self.setup_seconds = self._healthy_at() - started["construct_started"]
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _event(self, name: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"server sent no {name!r} event in {timeout}s") from None
            if line is None:
                raise RuntimeError(f"server exited before its {name!r} event")
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict) and payload.get("event") == name:
                return payload

    def _healthy_at(self) -> float:
        from repro.api import RemoteGraphService

        client = RemoteGraphService("127.0.0.1", self.port, timeout=10.0, protocol_version=2)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                health = client.health()
                workers = health.get("workers", [])
                if (health.get("status") == "ok" and len(workers) == len(self.workers)
                        and all(row.get("alive") for row in workers)):
                    return time.time()
                time.sleep(0.01)
        finally:
            client.close()
        raise TimeoutError("server never became healthy")

    def command(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Stop the server and its workers; returns the ``stopped`` event."""
        stopped: dict = {}
        try:
            if self.process.poll() is None:
                self.command("stop")
                self.process.stdin.close()
                stopped = self._event("stopped", timeout=60.0)
        except (OSError, TimeoutError, RuntimeError) as exc:
            print(f"perfbench: server did not stop cleanly: {exc!r}", file=sys.stderr)
        finally:
            self._reap()
        return stopped

    def _reap(self) -> None:
        try:
            self.process.wait(timeout=30.0)
            return  # a server that exits by itself has joined its workers
        except subprocess.TimeoutExpired:
            self.process.terminate()
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for pid in self.workers:  # may be orphaned by the forced stop
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


class InFlight:
    """How many queries the load generator has outstanding."""

    def __init__(self) -> None:
        self.count = 0
        self.lock = threading.Lock()

    def __enter__(self) -> None:
        with self.lock:
            self.count += 1

    def __exit__(self, *exc) -> None:
        with self.lock:
            self.count -= 1


def send(client, queries, record: Record, due: float | None,
         in_flight: InFlight) -> Record:
    sent = time.perf_counter()
    try:
        with in_flight:
            record.response = client.run(queries[record.position % len(queries)])
    except Exception as exc:  # 429, 504, transport: counted as failed
        print(f"perfbench: query {record.position} failed: {exc!r}", file=sys.stderr)
    done = time.perf_counter()
    record.service = done - sent
    record.latency = done - (sent if due is None else due)
    record.late = 0.0 if due is None else sent - due
    return record


def open_loop(client, queries, total: int, phase: str) -> list[Record]:
    """Send ``total`` queries at ``OPEN_LOOP_QPS``.  Shortly before a query
    is due, its sender runs the host-speed kernel if no query is in flight,
    so the kernel does not run beside the server's work on a query."""
    records = [Record(i, phase) for i in range(total)]
    counter = itertools.count()
    in_flight = InFlight()
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        while (i := next(counter)) < total:
            due = origin + i / OPEN_LOOP_QPS
            delay = due - KERNEL_LEAD_SECONDS - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
                if in_flight.count == 0:
                    records[i].kernel = kernel_seconds()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send(client, queries, records[i], due, in_flight)

    _run_threads(sender)
    return records


def closed_loop(client, queries, start: int, duration: float,
                phase: str) -> tuple[list[Record], float]:
    records: list[Record] = []
    counter = itertools.count(start)
    started = time.perf_counter()
    deadline = started + duration
    in_flight = InFlight()

    def sender() -> None:
        while time.perf_counter() < deadline:
            records.append(send(client, queries, Record(next(counter), phase), None,
                                in_flight))

    _run_threads(sender)
    return records, time.perf_counter() - started


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def install_client_wrappers(ledger: Ledger) -> None:
    import repro.api.remote as remote
    from repro.api.envelopes import QueryRequest

    ledger.wrap(remote, "as_request", "api.codec")
    ledger.wrap(remote, "parse_response", "api.codec")
    ledger.wrap(QueryRequest, "to_wire", "api.codec")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.api import RemoteGraphService

    dataset = make_dataset()
    opening = int(OPEN_LOOP_QPS * seconds * OPEN_LOOP_SHARE)
    corpus = zipf_queries(dataset, max(TRACE_QUERIES, 2 * opening), 0)
    queries = corpus[:opening] + shuffled(corpus[opening:], f"{seed}:closed")
    spans_path = OUT / f"spans-{workload}-seed{seed}-server.json" if trace else None
    setups = []
    for _ in range(SETUPS - 1):
        probe = ServerProcess(trace=False)
        probe.stop()
        setups.append(probe.setup_seconds)
    ledger = Ledger()
    if trace:
        install_client_wrappers(ledger)
    server = ServerProcess(trace=trace, spans=spans_path)
    try:
        setups.append(server.setup_seconds)
        client = RemoteGraphService("127.0.0.1", server.port, timeout=60.0,
                                    protocol_version=2)
        _phase(server, ledger, trace, "open")
        records = open_loop(client, queries, opening, "open")
        closing = seconds * (1.0 - OPEN_LOOP_SHARE)
        _phase(server, ledger, False, "off")
        start = len(records)
        if trace:
            untraced, untraced_seconds = closed_loop(client, queries, start, closing / 2,
                                                     "closed")
            _phase(server, ledger, True, "closed-traced")
            traced, traced_seconds = closed_loop(client, queries, start + len(untraced),
                                                 closing / 2, "closed-traced")
            _phase(server, ledger, False, "off")
            closed, closed_seconds = untraced + traced, untraced_seconds + traced_seconds
        else:
            closed, closed_seconds = closed_loop(client, queries, start, closing, "closed")
        records += closed
        closing_kernels = [kernel_seconds() for _ in range(IDLE_KERNELS)]
        client.close()
    finally:
        stopped = server.stop()

    problems, speedup, gauge_ms = check_answers(dataset, queries, records, opening)
    if "rss_mb" not in stopped:
        problems.append("the server did not stop cleanly")
    failed = sum(record.response is None for record in records)
    if trace:
        ledger.dump(OUT / f"spans-{workload}-seed{seed}.json")
        overhead = 1.0 - (len(traced) / traced_seconds) / (len(untraced) / untraced_seconds)
        metrics = layer_metrics(records, ledger.spans, load_spans(spans_path), overhead)
        measured = metrics
    else:
        metrics = end_to_end(setups, records, closed, closed_seconds, closing_kernels,
                             failed, speedup, stopped, normalise=True)
        measured = end_to_end(setups, records, closed, closed_seconds, closing_kernels,
                              failed, speedup, stopped, normalise=False)
    open_kernels = [r.kernel for r in records if r.phase == "open" and r.kernel]
    return {"problems": problems, "attempted": len(records), "failed": failed,
            "metrics": metrics, "measured": measured, "slowdown": slowdown(open_kernels),
            "gauge_ms": gauge_ms}


def end_to_end(setups: list[float], records: list[Record], closed: list[Record],
               closed_seconds: float, closing_kernels: list[float], failed: int,
               speedup: float, stopped: dict, normalise: bool) -> dict:
    """Normalised, each open-loop latency is divided by the host slowdown
    around it and closed-loop throughput multiplied by the slowdown over
    the run.  Set-up is never normalised (see the module notes)."""
    open_records = [r for r in records if r.phase == "open"]
    latencies = [r.latency for r in open_records]
    qps = sum(r.response is not None for r in closed) / closed_seconds
    if normalise:
        factors = local_slowdowns([r.kernel for r in open_records])
        latencies = [latency / factor for latency, factor in zip(latencies, factors)]
        qps *= slowdown([r.kernel for r in open_records if r.kernel] + closing_kernels)
    return {
        "setup_s": metric(median(setups), "s"),
        "throughput_qps": metric(qps, "1/s"),
        "p50_ms": metric(median(latencies) * 1e3, "ms"),
        "p99_ms": metric(tail_percentile(latencies) * 1e3, "ms"),
        "ok_frac": metric(1.0 - failed / len(records), "frac"),
        "cache_speedup": metric(speedup, "x"),
        "rss_mb": metric(stopped.get("rss_mb", 0.0), "MB"),
    }


def _phase(server: ServerProcess, ledger: Ledger, active: bool, phase: str) -> None:
    if server.process.poll() is not None:
        raise RuntimeError("the server process exited during the run")
    ledger.active, ledger.phase = active, phase
    server.command(f"trace {phase if active else 'off'}")


def check_answers(dataset, queries, records,
                  opened: int) -> tuple[list[str], float, float]:
    """Replay the trace prefix sent in process; Method M is the oracle.

    Returns the problems found, the replay's ``cache_speedup`` over the
    first ``opened`` queries, the open-loop ones, and Method M's mean
    milliseconds per query over them (the host gauge).
    """
    from embedded import run_pass

    sent = min(len(queries), 1 + max(record.position for record in records))
    replay = run_pass(dataset, queries[:sent], "served-replay", None)
    mismatches = sum(1 for record in records if record.response is not None
                     and set(record.response.answer)
                     != replay.expected[record.position % len(queries)])
    problems = [f"{mismatches} served answers differ from Method M"] if mismatches else []
    if replay.failed or replay.mismatches:
        problems.append(f"in-process replay: {replay.failed} failed, "
                        f"{replay.mismatches} answers differ from Method M")
    reference = replay.ref_seconds[:opened]
    return (problems, ratio(sum(reference), sum(replay.gc_seconds[:opened])),
            ratio(sum(reference), len(reference)) * 1e3)


def layer_metrics(records, client_spans: list, server_spans: list,
                  overhead: float) -> dict:
    """The ledger of the traced open-loop phase.

    Coordinator layers (server, codec, planner, shard calls) come from the
    spans; the layers inside the shard workers come from the per-stage
    seconds and counts the workers return on every response.  Worker-only
    counts (screened entries, admissions, evictions, feature extractions,
    verify yield) are not visible across the hop and read 0.
    """
    opened = [r for r in records if r.phase == "open" and r.response is not None]
    responses = [r.response for r in opened]
    n = len(opened)
    client = totals([s for s in client_spans if s[8] == "open"])
    server_spans = [s for s in server_spans if s[8] == "open"]
    server = totals(server_spans)

    def stage_ms(name: str) -> float:
        return sum(resp.stage_seconds.get(name, 0.0) for resp in responses) / n * 1e3

    def tests(key: str) -> int:
        return sum(resp.tests.get(key, 0) for resp in responses)

    hits = [resp.hits.get("sub", 0) + resp.hits.get("super", 0)
            + bool(resp.hits.get("exact")) for resp in responses]
    calls = [s for s in server_spans if s[2] == "sharding.shard_call"]
    stragglers = []
    for batch in (s for s in server_spans if s[2] == "sharding.batch"):
        durations = [c[5] for c in calls if batch[4] <= c[4] <= batch[4] + batch[5]]
        if len(durations) >= 2:
            stragglers.append(max(durations) - median(durations))
    plan = server["sharding.plan"]
    metrics = empty_layer_metrics()
    metrics.update({
        "cache.probe_ms": metric(stage_ms("probe"), "ms"),
        "cache.probe_tests_per_query": metric(tests("probe") / n, "count"),
        "cache.hit_frac": metric(sum(h > 0 for h in hits) / n, "frac"),
        "cache.probe_yield": metric(ratio(sum(hits), tests("probe")), "frac"),
        "cache.prune_ms": metric(stage_ms("prune"), "ms"),
        "cache.tests_saved_frac": metric(
            ratio(tests("baseline") - tests("dataset"), tests("baseline")), "frac"),
        "cache.admit_ms": metric(stage_ms("admit"), "ms"),
        "methods.filter_ms": metric(stage_ms("filter"), "ms"),
        "methods.candidates_per_query": metric(tests("baseline") / n, "count"),
        "methods.filter_precision": metric(
            ratio(sum(len(resp.answer) for resp in responses), tests("baseline")), "frac"),
        "methods.verify_ms": metric(stage_ms("verify"), "ms"),
        "methods.tests_per_query": metric(tests("dataset") / n, "count"),
        "isomorphism.ms_per_test": metric(
            ratio(stage_ms("verify") * n, tests("dataset")), "ms"),
        "runtime.pipeline_ms": metric(
            sum(resp.total_seconds or 0.0 for resp in responses) / n * 1e3, "ms"),
        "runtime.residue_ms": metric(
            server["sharding.shard_call"]["worker_residue"] / n * 1e3, "ms"),
        "server.queue_ms": metric(
            sum(resp.queue_seconds or 0.0 for resp in responses) / n * 1e3, "ms"),
        "server.batch_size": metric(
            sum(resp.batch_size or 0 for resp in responses) / n, "count"),
        "server.residue_ms": metric(
            sum(r.service - (r.response.queue_seconds or 0.0)
                - (r.response.total_seconds or 0.0) for r in opened) / n * 1e3, "ms"),
        "api.codec_ms": metric(
            (client["api.codec"]["self_seconds"] + server["api.codec"]["self_seconds"])
            / n * 1e3, "ms"),
        "sharding.plan_ms": metric(plan["self_seconds"] / n * 1e3, "ms"),
        "sharding.merge_ms": metric(stage_ms("merge"), "ms"),
        "sharding.fanout": metric(ratio(plan["fanout"], plan["calls"]), "count"),
        "sharding.transport_ms": metric(
            ratio(sum(c[5] - c[7]["pipeline"] for c in calls), len(calls)) * 1e3, "ms"),
        "sharding.straggler_ms": metric(
            ratio(sum(stragglers), len(stragglers)) * 1e3, "ms"),
        "loadgen.late_p99_ms": metric(
            tail_percentile([r.late for r in records if r.phase == "open"]) * 1e3, "ms"),
        "obs.trace_overhead_frac": metric(overhead, "frac"),
    })
    return metrics

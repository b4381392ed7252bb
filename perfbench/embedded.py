"""The embedded workloads: one closed-loop caller of ``LocalGraphService``.

A run is a sequence of passes.  Each pass builds a fresh system (timed as
``setup_s``), then replays one 200-query trace.  For every query it runs
plain Method M (``system.method.execute``, no cache) and GC
(``service.run``) back to back, in alternating order, so both arms see the
same machine state; the Method M answer is the oracle for GC's answer.
After each query it runs the host-speed kernel (``common.host_kernel``).

An untraced run replays corpus traces ``0 .. n-1`` (``common.zipf_queries``
or ``fresh_queries``, in the order the workload seed draws), with
``n = 4 * round(--seconds / 10)``: about ``--seconds`` of work on a 2-CPU
host.  The work is fixed by the seed and ``--seconds`` alone, so a run's
inputs never depend on how fast the host happened to be.  Trace 0 is
replayed once more at the end, and both of its passes must produce
identical count metrics (the exact-repeat check).  A traced run replays
half as many traces, each twice, untraced then traced, so every pair gives
one tracing-overhead sample.

Time metrics are reported at the reference host speed: each query's times
are divided by the host slowdown the kernel calls around it measured, and
each set-up time by the slowdown of the kernel calls just before and after
it.  The times as measured are returned too.
"""

from __future__ import annotations

import json
import sys
import time

from common import (OUT, code_digest, empty_layer_metrics, fresh_queries, kernel_seconds,
                    local_slowdowns, make_dataset, median, metric, peak_rss_mb, ratio,
                    shuffled, slowdown, tail_percentile, zipf_queries)
from ledger import Ledger, install_pipeline_wrappers, totals

QUERIES_PER_PASS = 200
#: Passes per ten seconds of ``--seconds``.
PASSES_PER_10S = 4
#: Kernel calls on each side of a system construction.
SETUP_KERNELS = 5

TRACES = {"embedded-zipf": zipf_queries, "embedded-fresh": fresh_queries}

#: Count metrics that must repeat exactly for the same trace and code.
COUNT_KEYS = ("candidates", "tests", "probe_tests", "hits", "admissions", "evictions")


class PassResult:
    def __init__(self, trace_key: str, traced: bool) -> None:
        self.trace_key = trace_key
        self.traced = traced
        self.setup_seconds = 0.0
        self.setup_slowdown = 1.0
        #: Trace positions answered, with their GC and Method M seconds.
        self.positions: list[int] = []
        self.gc_seconds: list[float] = []
        self.ref_seconds: list[float] = []
        #: Host-speed kernel CPU times, one after each query.
        self.kernel_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.hit_queries = 0
        self.answers = 0
        #: Method M's answer to each query, in trace order.
        self.expected: list[set] = []
        self.spans: list = []

    @property
    def qps(self) -> float:
        return ratio(len(self.gc_seconds), sum(self.gc_seconds))

    @property
    def speedup(self) -> float:
        return ratio(sum(self.ref_seconds), sum(self.gc_seconds))


def run_pass(dataset, queries, trace_key: str, ledger: Ledger | None) -> PassResult:
    from repro.api import LocalGraphService
    from repro.runtime import GCConfig

    result = PassResult(trace_key, ledger is not None)
    kernels = [kernel_seconds() for _ in range(SETUP_KERNELS)]
    started = time.perf_counter()
    service = LocalGraphService(dataset, GCConfig())
    result.setup_seconds = time.perf_counter() - started
    result.setup_slowdown = slowdown(kernels + [kernel_seconds()
                                                for _ in range(SETUP_KERNELS)])
    system = service.system
    first_span = len(ledger.spans) if ledger is not None else 0
    try:
        for position, query in enumerate(queries):
            result.attempted += 1
            reference_first = (position // 2) % 2 == 0
            if reference_first:
                expected, ref_seconds = _reference(system, query)
            try:
                response, gc_seconds = _served(service, query, ledger)
            except Exception as exc:  # counted, never hidden
                print(f"perfbench: query {position} failed: {exc!r}", file=sys.stderr)
                response = None
            if not reference_first:
                expected, ref_seconds = _reference(system, query)
            result.expected.append(set(expected.answer))
            result.kernel_seconds.append(kernel_seconds())
            if response is None:
                result.failed += 1
                continue
            result.positions.append(position)
            result.gc_seconds.append(gc_seconds)
            result.ref_seconds.append(ref_seconds)
            if set(response.answer) != result.expected[-1]:
                result.mismatches += 1
            hits = (response.hits.get("sub", 0) + response.hits.get("super", 0)
                    + bool(response.hits.get("exact")))
            result.counts["candidates"] += response.tests.get("baseline", 0)
            result.counts["tests"] += response.tests.get("dataset", 0)
            result.counts["probe_tests"] += response.tests.get("probe", 0)
            result.counts["hits"] += hits
            result.hit_queries += hits > 0
            result.answers += len(response.answer)
        for report in system.cache.eviction_reports():
            result.counts["admissions"] += report.num_admitted
            result.counts["evictions"] += report.num_evicted
    finally:
        service.close()
    if ledger is not None:
        result.spans = ledger.spans[first_span:]
    return result


def _reference(system, query):
    started = time.perf_counter()
    expected = system.method.execute(query.graph, query.query_type)
    return expected, time.perf_counter() - started


def _served(service, query, ledger: Ledger | None):
    started = time.perf_counter()
    if ledger is None:
        response = service.run(query)
    else:
        ledger.active = True
        try:
            with ledger.span("runtime.pipeline"):
                response = service.run(query)
        finally:
            ledger.active = False
    return response, time.perf_counter() - started


def schedule(trace: bool, traces: int):
    """The ``(trace index, traced)`` pass plan: untraced, every trace once
    and trace 0 again at the end; traced, every trace untraced then traced."""
    for index in range(traces):
        yield index, False
        if trace:
            yield index, True
    if not trace:
        yield 0, False


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    dataset = make_dataset()
    make_trace = TRACES[workload]
    traces: dict[int, list] = {}
    ledger = None
    if trace:
        ledger = Ledger()
        install_pipeline_wrappers(ledger)
    passes: list[PassResult] = []
    try:
        count = PASSES_PER_10S * max(1, round(seconds / 10 / (2 if trace else 1)))
        for index, traced in schedule(trace, count):
            if index not in traces:
                traces[index] = shuffled(make_trace(dataset, QUERIES_PER_PASS, index),
                                         f"{seed}:{index}")
            passes.append(run_pass(dataset, traces[index], str(index),
                                   ledger if traced else None))
    finally:
        if ledger is not None:
            ledger.restore()

    problems = check_repeats(workload, seed, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    mismatches = sum(p.mismatches for p in passes)
    if mismatches:
        problems.append(f"{mismatches} answers differ from Method M")
    if trace:
        ledger.dump(OUT / f"spans-{workload}-seed{seed}.json")
        metrics = layer_metrics(passes)
        measured = metrics
    else:
        metrics = end_to_end(passes, normalise=True)
        measured = end_to_end(passes, normalise=False)
    reference = [s for p in passes for s in p.ref_seconds]
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "measured": measured,
            "slowdown": median(f for p in passes for f in local_slowdowns(p.kernel_seconds)),
            "gauge_ms": ratio(sum(reference), len(reference)) * 1e3}


def check_repeats(workload: str, seed: int, passes: list[PassResult]) -> list[str]:
    """Counts of one trace must repeat exactly, within and across runs of
    the same code."""
    problems = []
    by_trace: dict[str, dict] = {}
    for result in passes:
        if result.failed:
            continue
        first = by_trace.setdefault(result.trace_key, result.counts)
        if first != result.counts:
            problems.append(f"trace {result.trace_key}: counts {result.counts} "
                            f"differ from {first} on a repeat pass")
    record = OUT / f"counts-{workload}-seed{seed}-{code_digest()}.json"
    previous = json.loads(record.read_text()) if record.exists() else {}
    for key, counts in by_trace.items():
        if key in previous and previous[key] != counts:
            problems.append(f"trace {key}: counts {counts} differ from an "
                            f"earlier run's {previous[key]}")
    OUT.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**previous, **by_trace}, sort_keys=True))
    return problems


def per_query(passes: list[PassResult], normalise: bool) -> tuple[list[float], list[float]]:
    """Per query, its GC and its Method M seconds, each the median over the
    repeats of its trace: ``(gc_seconds, ref_seconds)``.  Normalised, every
    time is first divided by the host's slowdown around it."""
    samples: dict[tuple[str, int], tuple[list[float], list[float]]] = {}
    for result in passes:
        factors = local_slowdowns(result.kernel_seconds) if normalise else None
        for position, gc, ref in zip(result.positions, result.gc_seconds,
                                     result.ref_seconds):
            factor = factors[position] if normalise else 1.0
            gcs, refs = samples.setdefault((result.trace_key, position), ([], []))
            gcs.append(gc / factor)
            refs.append(ref / factor)
    return ([median(gcs) for gcs, _ in samples.values()],
            [median(refs) for _, refs in samples.values()])


def end_to_end(passes: list[PassResult], normalise: bool) -> dict:
    """Set-up is the median over every pass; the rest is taken over the
    per-query times of :func:`per_query`."""
    latencies, reference = per_query(passes, normalise)
    gc_seconds = sum(latencies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": metric(median(p.setup_seconds / (p.setup_slowdown if normalise else 1.0)
                                 for p in passes), "s"),
        "throughput_qps": metric(len(latencies) / gc_seconds, "1/s"),
        "p50_ms": metric(median(latencies) * 1e3, "ms"),
        "p99_ms": metric(tail_percentile(latencies) * 1e3, "ms"),
        "ok_frac": metric(1.0 - failed / attempted, "frac"),
        "cache_speedup": metric(sum(reference) / gc_seconds, "x"),
        "rss_mb": metric(peak_rss_mb(), "MB"),
    }


def layer_metrics(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]

    rows = totals([span for p in traced for span in p.spans])
    queries = sum(len(p.gc_seconds) for p in traced)
    counts = {key: sum(p.counts[key] for p in traced) for key in COUNT_KEYS}

    def per_query_ms(name: str) -> float:
        return rows[name]["self_seconds"] / queries * 1e3

    probe, verify, filt = rows["cache.probe"], rows["methods.verify"], rows["methods.filter"]
    untraced = {p.trace_key: p for p in passes if not p.traced}
    overheads = [1.0 - p.qps / untraced[p.trace_key].qps for p in traced]
    metrics = empty_layer_metrics()
    metrics.update({
        "cache.probe_ms": metric(per_query_ms("cache.probe"), "ms"),
        "cache.screened_per_query": metric(probe["screened"] / queries, "count"),
        "cache.probe_tests_per_query": metric(probe["probe_tests"] / queries, "count"),
        "cache.hit_frac": metric(sum(p.hit_queries for p in traced) / queries, "frac"),
        "cache.probe_yield": metric(ratio(probe["hits"], probe["probe_tests"]), "frac"),
        "cache.prune_ms": metric(per_query_ms("cache.prune"), "ms"),
        "cache.tests_saved_frac": metric(
            ratio(counts["candidates"] - counts["tests"], counts["candidates"]), "frac"),
        "cache.admit_ms": metric(per_query_ms("cache.admit"), "ms"),
        "cache.admissions_per_query": metric(counts["admissions"] / queries, "count"),
        "cache.evictions_per_query": metric(counts["evictions"] / queries, "count"),
        "features.extract_calls_per_query": metric(
            rows["features.extract"]["outer"] / queries, "count"),
        "features.extract_ms": metric(per_query_ms("features.extract"), "ms"),
        "methods.filter_ms": metric(per_query_ms("methods.filter"), "ms"),
        "methods.candidates_per_query": metric(filt["candidates"] / queries, "count"),
        "methods.filter_precision": metric(
            ratio(sum(p.answers for p in traced), filt["candidates"]), "frac"),
        "methods.verify_ms": metric(per_query_ms("methods.verify"), "ms"),
        "methods.tests_per_query": metric(verify["tests"] / queries, "count"),
        "methods.verify_yield": metric(ratio(verify["answers"], verify["tests"]), "frac"),
        "isomorphism.ms_per_test": metric(
            ratio(verify["self_seconds"], verify["tests"]) * 1e3, "ms"),
        "runtime.pipeline_ms": metric(
            rows["runtime.pipeline"]["seconds"] / queries * 1e3, "ms"),
        "runtime.residue_ms": metric(per_query_ms("runtime.pipeline"), "ms"),
        "obs.trace_overhead_frac": metric(median(overheads), "frac"),
    })
    return metrics

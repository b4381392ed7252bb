"""Differential correctness: process-sharded ≡ thread-sharded ≡ cached ≡ direct.

The acceptance property of the multiprocess backend: hosting every shard in
a spawned worker process behind the v2 envelope transport changes *nothing
observable*.  On a seeded mixed sub/supergraph workload the process-sharded
engine — sequential, concurrent, short-circuit-planned and served over HTTP
with cost-based admission — returns answer sets byte-identical to plain
Method M execution, and at one shard reproduces the cached engine's hit/miss
accounting exactly (the full report really does survive the wire).

Worker-crash fault injection lives here too: a shard worker killed
mid-trace is respawned within ``shard_respawn_limit`` with zero dropped or
duplicated answers, and with the budget at 0 the failure surfaces as the
typed, retryable ``shard-worker`` error.

Worker lifecycle: a failed startup raises its typed error and leaves no
worker behind, ``close()`` returns threads, child processes and file
descriptors to their baseline, concurrent calls sharing one worker pipe
each get their own reply, and a library error raised inside a worker
reaches the caller as the same class the thread backend raises.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import resource_tracker

import pytest

from repro.api.envelopes import ErrorEnvelope
from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    ServerError,
    ShardWorkerError,
)
from repro.graph import molecule_dataset
from repro.isomorphism import VF2Matcher
from repro.methods import DirectSIMethod
from repro.runtime.config import GCConfig
from repro.runtime.system import GraphCacheSystem
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import generate_trace

from tests.differential import (
    assert_answers_equal,
    assert_hit_counts_equal,
    clone_queries,
    run_cached,
    run_direct,
    run_served,
    run_sharded,
)


class _BudgetRefusingMatcher(VF2Matcher):
    """A verifier that gives up on every test with a typed library error."""

    def find_embedding(self, query, target):
        raise BudgetExceededError(7)


def budget_refusing_method():
    """Module-level, so it pickles across the spawn boundary."""
    return DirectSIMethod(verifier=_BudgetRefusingMatcher())


def unbuildable_method():
    """Fails inside the worker, after the spawn itself succeeded."""
    raise ConfigurationError("no method for this shard")


def _open_fd_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(14, min_vertices=7, max_vertices=12, rng=177)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_trace(dataset, 120, skew="zipfian", query_type="mixed", seed=29)


@pytest.fixture(scope="module")
def direct(dataset, workload):
    return run_direct(dataset, workload)


@pytest.fixture(scope="module")
def cached(dataset, workload):
    return run_cached(dataset, workload)


class TestProcessShardedEquivalence:
    @pytest.mark.parametrize("num_shards", (1, 2))
    def test_process_sharded_matches_direct_and_cached(self, dataset, workload,
                                                       direct, cached, num_shards):
        process = run_sharded(dataset, workload, num_shards,
                              shard_backend="process")
        assert_answers_equal(direct, process)
        assert_answers_equal(cached, process)

    def test_single_process_shard_hit_accounting_is_identical(self, dataset,
                                                              workload, cached):
        """process-sharded(1) is the cached engine behind a pipe: every hit,
        miss and sub-iso test count must survive envelope serialisation."""
        process = run_sharded(dataset, workload, num_shards=1,
                              shard_backend="process")
        assert_hit_counts_equal(cached, process)

    def test_thread_and_process_backends_agree_exactly(self, dataset, workload):
        """Same shard count, same workload: the two backends must agree on
        answers *and* accounting — partitioning is identical, only the
        hosting differs."""
        thread = run_sharded(dataset, workload, num_shards=2)
        process = run_sharded(dataset, workload, num_shards=2,
                              shard_backend="process")
        assert_answers_equal(thread, process)
        assert_hit_counts_equal(thread, process)

    def test_concurrent_process_sharded_matches_direct(self, dataset, workload,
                                                       direct):
        """Per-worker concurrent streams (4 in-flight envelopes per shard)
        must not change answers."""
        concurrent = run_sharded(dataset, workload, num_shards=2,
                                 concurrent_workers=4, shard_backend="process")
        assert_answers_equal(direct, concurrent)

    def test_short_circuit_process_sharded_matches_direct(self, dataset,
                                                          workload, direct):
        """Summary-driven shard pruning composes with process hosting (the
        planner runs coordinator-side; pruned workers never see the query)."""
        pruned = run_sharded(dataset, workload, num_shards=2,
                             scatter_mode="short-circuit",
                             shard_backend="process")
        assert_answers_equal(direct, pruned)
        assert pruned.mean_fanout <= 2.0

    def test_served_process_backend_matches_direct(self, dataset, workload,
                                                   direct):
        """The full production path: HTTP server → scatter → worker
        processes, with cost-based admission charging per-shard budgets."""
        served = run_served(dataset, workload, num_shards=2,
                            num_threads=4, max_batch_size=4,
                            shard_backend="process",
                            admission_mode="cost-based")
        assert_answers_equal(direct, served)


class TestProcessShardSnapshots:
    def test_snapshot_round_trip_across_backends(self, dataset, workload, tmp_path):
        """A snapshot written by process workers restores into a fresh
        process deployment (and counts entries symmetrically)."""
        path = tmp_path / "snap.json"
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.warm_cache(clone_queries(workload)[:30])
            saved = system.save_snapshot(path)
        assert saved > 0
        with ShardedGraphCacheSystem(dataset, config) as system:
            restored = system.restore_snapshot(path)
            assert restored == saved
            # the warm cache still answers correctly
            queries = clone_queries(workload)[:20]
            with GraphCacheSystem(dataset, GCConfig(cache_enabled=False)) as ref:
                expected = [frozenset(r.answer) for r in ref.run_queries(
                    clone_queries(workload)[:20])]
            got = [frozenset(r.answer) for r in system.run_queries(queries)]
            assert got == expected


class TestWorkerCrashRecovery:
    def test_mid_trace_crash_respawns_with_no_answer_loss(self, dataset, workload,
                                                          direct):
        """Kill one worker halfway through the trace: the coordinator must
        respawn it within budget and the full answer list must still match
        direct execution — nothing dropped, nothing duplicated."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process", shard_respawn_limit=1)
        queries = clone_queries(workload)
        half = len(queries) // 2
        with ShardedGraphCacheSystem(dataset, config) as system:
            answers = [frozenset(r.answer)
                       for r in system.run_queries(queries[:half])]
            victim = system._process_backend._handles[0].process
            victim.terminate()
            victim.join(timeout=10)
            answers += [frozenset(r.answer)
                        for r in system.run_queries(queries[half:])]
            assert system._process_backend.respawns_performed == 1
        assert len(answers) == len(direct.answers)
        assert answers == direct.answers

    def test_crash_under_concurrent_batch_respawns_once(self, dataset, workload,
                                                        direct):
        """A dead worker fails many in-flight envelopes at once; only one
        respawn may be spent and only the failed queries re-issued."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process", shard_respawn_limit=1)
        queries = clone_queries(workload)[:40]
        with ShardedGraphCacheSystem(dataset, config) as system:
            victim = system._process_backend._handles[1].process
            victim.terminate()
            victim.join(timeout=10)
            reports = system.run_queries_concurrent(queries, max_workers=4)
            assert system._process_backend.respawns_performed == 1
        answers = [frozenset(r.answer) for r in reports]
        assert answers == direct.answers[:40]

    def test_exhausted_respawn_budget_surfaces_typed_retryable_error(self, dataset,
                                                                     workload):
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process", shard_respawn_limit=0)
        queries = clone_queries(workload)[:5]
        with ShardedGraphCacheSystem(dataset, config) as system:
            victim = system._process_backend._handles[0].process
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(ShardWorkerError) as excinfo:
                system.run_queries(queries)
        assert excinfo.value.shard == 0
        # the taxonomy classifies it as a retryable 503 on the wire
        envelope = ErrorEnvelope.from_exception(excinfo.value)
        assert envelope.code == "shard-worker"
        assert envelope.http_status == 503
        assert envelope.retryable is True
        assert envelope.details.get("shard") == 0


class TestProcessShardObservability:
    def test_describe_and_metrics_fan_in(self, dataset, workload):
        """/metrics-style fan-in reads worker-side cache state through the
        describe fallback, and the statistics mirror matches the merged view."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)[:30]
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.run_queries(queries)
            rows = system.describe_shards()
            assert len(rows) == 2
            for row in rows:
                assert "cache" in row, "worker cache state missing from fan-in"
                assert row["index_memory_bytes"] > 0
            snapshot = system.statistics.to_dict()
            assert snapshot["num_queries"] == len(queries)
            per_shard = [shard["num_queries"]
                         for shard in snapshot["shards"].values()]
            assert all(count == len(queries) for count in per_shard)
            description = system.describe()
            assert description["config"]["shard_backend"] == "process"


class TestProcessShardLifecycle:
    def test_unpicklable_method_factory_is_a_configuration_error(self, dataset):
        """A lambda cannot cross the spawn boundary: the caller gets the
        typed error, and no worker outlives the failed construction."""
        config = GCConfig(num_shards=2, shard_backend="process")
        children = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="module-level callable"):
            ShardedGraphCacheSystem(dataset, config,
                                    method_factory=lambda: DirectSIMethod())
        assert set(multiprocessing.active_children()) <= children

    def test_worker_startup_failure_stops_every_started_worker(self, dataset):
        config = GCConfig(num_shards=2, shard_backend="process")
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with pytest.raises(ShardWorkerError, match="no method for this shard"):
            ShardedGraphCacheSystem(dataset, config,
                                    method_factory=unbuildable_method)
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads

    def test_close_leaks_no_thread_process_or_fd(self, dataset, workload):
        # the first spawn in a process starts multiprocessing's resource
        # tracker, which holds one fd for the life of the process
        resource_tracker.ensure_running()
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        fds = _open_fd_count()
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        system = ShardedGraphCacheSystem(dataset, config)
        system.run_queries_concurrent(clone_queries(workload)[:20], max_workers=4)
        system.run_queries(clone_queries(workload)[20:25])
        assert len(system.describe_shards()) == 2
        system.close()
        assert set(threading.enumerate()) <= threads
        assert set(multiprocessing.active_children()) <= children
        if fds is not None:
            assert _open_fd_count() == fds

    def test_shard_calls_after_close_raise_server_error(self, dataset, workload):
        config = GCConfig(num_shards=2, shard_backend="process")
        system = ShardedGraphCacheSystem(dataset, config)
        shard = system.shards[0]
        system.close()
        queries = clone_queries(workload)[:3]
        with pytest.raises(ServerError):
            shard.run_query(queries[0])
        with pytest.raises(ServerError):
            shard.run_queries_concurrent(queries, max_workers=2)
        with pytest.raises(ServerError):
            shard.flush_window()


class TestPipeMultiplexing:
    def test_concurrent_calls_to_one_worker_each_get_their_own_reply(
            self, dataset, workload, direct):
        """Many threads share one worker pipe: every reply must reach the
        call that asked for it, whatever order the worker answers in."""
        config = GCConfig(num_shards=1, shard_backend="process")
        queries = clone_queries(workload)[:24]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedGraphCacheSystem(dataset, config) as system:
                shard = system.shards[0]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    answers = [pool.submit(shard.run_query, query)
                               for query in queries]
                    describes = [pool.submit(shard.remote_describe)
                                 for _ in range(8)]
                    reports = [future.result(timeout=120) for future in answers]
                    described = [future.result(timeout=120) for future in describes]
        finally:
            sys.setswitchinterval(previous)
        assert all(report.query is query for report, query in zip(reports, queries))
        assert [frozenset(report.answer) for report in reports] == direct.answers[:24]
        assert all(payload["shard"] == 0 for payload in described)


class TestTypedErrorsAcrossTheHop:
    @pytest.mark.parametrize("shard_backend", ("thread", "process"))
    def test_verifier_error_keeps_its_class_and_code(self, dataset, workload,
                                                     shard_backend):
        """A ``repro.errors`` exception raised by a shard's verifier reaches
        the caller as the same class with the same taxonomy code, whether
        the shard runs in a thread or behind the worker pipe."""
        config = GCConfig(num_shards=2, shard_backend=shard_backend)
        queries = clone_queries(workload)[:4]
        with ShardedGraphCacheSystem(dataset, config,
                                     method_factory=budget_refusing_method) as system:
            with pytest.raises(BudgetExceededError) as single:
                system.run_query(queries[0])
            with pytest.raises(BudgetExceededError) as batch:
                system.run_queries_concurrent(queries[1:], max_workers=2)
        for excinfo in (single, batch):
            assert type(excinfo.value) is BudgetExceededError
            assert str(excinfo.value) == str(BudgetExceededError(7))
            assert excinfo.value.budget == 7
            envelope = ErrorEnvelope.from_exception(excinfo.value)
            assert envelope.code == "isomorphism-budget-exceeded"

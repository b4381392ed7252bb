"""Host the served-sharded system in a process of its own.

    python3 perfbench/server_main.py --trace 0|1 --spans PATH

Builds the standard dataset, then a ``QueryServer`` (default batching) over
two process shards with short-circuit scatter, and prints one JSON line
``{"event": "started", "port": ..., "construct_started": <wall time>,
"workers": [pids]}``.  It then reads commands on stdin, one per line:

* ``trace <phase>`` — record ledger spans, tagged with ``phase``;
* ``trace off``     — stop recording;
* ``stop`` (or end of input) — stop the server, write the spans to
  ``--spans`` when tracing was requested, and print
  ``{"event": "stopped", "rss_mb": ...}``.

Spawned shard workers re-import this file as ``__mp_main__``, so everything
runs under the ``__main__`` check.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from common import make_dataset, peak_rss_mb, require_program
from ledger import Ledger

SHARDS = 2
PRE_ADMIT = ("filter", "probe", "prune", "verify", "assemble")


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def install_server_wrappers(ledger: Ledger) -> None:
    """Wrap the coordinator's layer boundaries (the workers are not traced)."""
    import repro.server.app as app
    from repro.api.envelopes import QueryResponse
    from repro.server.batcher import RequestBatcher, ServedQuery
    from repro.sharding.planner import ScatterPlanner
    from repro.sharding.process_backend import ProcessShardClient
    from repro.sharding.system import ShardedGraphCacheSystem

    ledger.wrap(app.QueryServer, "serve_query", "server.request")
    ledger.wrap(app, "parse_request", "api.codec")
    ledger.wrap(ServedQuery, "to_response", "api.codec")
    ledger.wrap(QueryResponse, "to_wire", "api.codec")
    ledger.wrap(RequestBatcher, "submit", "server.submit")
    ledger.wrap(ShardedGraphCacheSystem, "run_queries_concurrent", "sharding.batch")
    ledger.wrap(ScatterPlanner, "plan", "sharding.plan",
                lambda args, plan: {"fanout": len(plan.targets)})
    ledger.wrap(ProcessShardClient, "run_queries_concurrent", "sharding.shard_call",
                _describe_shard_call)


def _describe_shard_call(args, reports) -> dict:
    """Worker-reported pipeline time of one per-shard batch call.

    A report's ``total_seconds`` closes at the assemble stage, so the
    worker's pipeline is that plus the admit stage; whatever the stage
    timers inside it do not cover is the worker-side runtime residue.
    """
    stages = [sum(report.stage_seconds.get(stage, 0.0) for stage in PRE_ADMIT)
              for report in reports]
    return {
        "queries": len(reports),
        "pipeline": max((report.total_seconds + report.stage_seconds.get("admit", 0.0)
                         for report in reports), default=0.0),
        "worker_residue": sum(report.total_seconds - covered
                              for report, covered in zip(reports, stages)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    require_program()
    from repro.runtime import GCConfig
    from repro.server import QueryServer

    # a plain SIGTERM must still run the finally block that stops the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    dataset = make_dataset()
    ledger = Ledger()
    if args.trace:
        install_server_wrappers(ledger)
    config = GCConfig(num_shards=SHARDS, shard_backend="process",
                      scatter_mode="short-circuit")
    started = time.time()
    server = QueryServer(dataset, config)
    try:
        server.start()
        emit({"event": "started", "port": server.port, "construct_started": started,
              "workers": [row["pid"] for row in server.system.worker_liveness()]})
        for line in sys.stdin:
            command = line.split()
            if command == ["stop"]:
                break
            if command[:1] == ["trace"] and len(command) == 2:
                ledger.phase = command[1]
                ledger.active = command[1] != "off"
    finally:
        ledger.active = False
        server.stop()
    if args.trace and args.spans is not None:
        ledger.dump(args.spans)
    emit({"event": "stopped", "rss_mb": peak_rss_mb(include_children=SHARDS)})
    return 0


if __name__ == "__main__":
    sys.exit(main())

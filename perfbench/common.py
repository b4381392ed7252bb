"""Inputs, statistics and process helpers shared by every workload.

Everything the program under test receives is generated here: a fixed
dataset and query corpus, in an order the workload seed draws.  The program
itself never sees the seed.

The host the benchmark runs on is shared, and its speed drifts for minutes
at a time under identical work.  A fixed kernel of the benchmark's own
(``host_kernel``), timed between the program's calls, measures that drift;
time metrics are divided by it (``slowdown``) and so reported at the
reference host speed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: The dataset every workload runs on: ``standard_dataset(1000)`` of the
#: repository's benchmark harness (AIDS-like molecules, 10-35 vertices).
#: It is fixed; the workload seed only orders the queries.
DATASET_SIZE = 1000
DATASET_SEED = 2018


def require_program() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def code_digest() -> str:
    """A digest of the program's and the benchmark's Python sources: records
    kept across runs are only compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def declared_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def empty_layer_metrics() -> dict:
    """Every per-layer metric at 0: the value of a layer a workload never
    crosses (the embedded workloads have no server, codec or shards)."""
    return {name: metric(0.0, unit) for name, unit in declared_metrics("per_layer").items()}


def make_dataset():
    from repro.graph import molecule_dataset

    return molecule_dataset(DATASET_SIZE, min_vertices=10, max_vertices=35,
                            rng=DATASET_SEED)


#: The query corpus is fixed: trace ``k`` is always generated with seed
#: ``CORPUS_SEED + k``, and the workload seed only draws the order in which
#: its queries arrive.  The generator draws queries independently, so a
#: shuffled trace is a trace of the same shape.  A 20-pattern zipfian pool
#: is dominated by its most popular pattern: when this benchmark was written,
#: one 200-query trace's Method M time ranged from 0.67 s to 3.40 s between
#: generator seeds, and its ``cache_speedup`` from 0.71 to 3.08.  Drawing
#: the queries themselves from the workload seed would make the run-to-run
#: spread that pattern's spread.
CORPUS_SEED = 1000


def zipf_queries(dataset, num_queries: int, index: int):
    """Zipfian mixed sub/super trace ``index`` of the corpus:
    ``generate_trace(skew="zipfian", query_type="mixed")``, alternating
    subgraph and supergraph queries, each half drawn from its own 20-pattern
    pool with zipf 1.2 and 40% repeats."""
    from repro.workload import generate_trace

    return list(generate_trace(dataset, num_queries, skew="zipfian", query_type="mixed",
                               seed=2 * (CORPUS_SEED + index)).queries)


def fresh_queries(dataset, num_queries: int, index: int):
    """``STANDARD_MIXES["fresh"]`` trace ``index`` of the corpus: 90%
    never-seen patterns, 10% repeats, subgraph queries."""
    from repro.workload import STANDARD_MIXES, WorkloadGenerator

    generator = WorkloadGenerator(dataset, rng=CORPUS_SEED + index)
    return list(generator.generate(num_queries, mix=STANDARD_MIXES["fresh"]).queries)


def shuffled(queries: list, seed: str) -> list:
    """The queries in a seed-drawn order; each position keeps its query
    type, so a mixed trace still alternates subgraph and supergraph."""
    rng = random.Random(seed)
    order = list(queries)
    for kind in sorted({query.query_type.value for query in order}):
        slots = [i for i, query in enumerate(order) if query.query_type.value == kind]
        picked = [order[i] for i in slots]
        rng.shuffle(picked)
        for slot, query in zip(slots, picked):
            order[slot] = query
    return order


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
def _kernel_graph(vertices: int = 120, edges: int = 300) -> tuple[list[set[int]], list[str]]:
    rng = random.Random(7)
    adjacency: list[set[int]] = [set() for _ in range(vertices)]
    for _ in range(edges):
        a, b = rng.sample(range(vertices), 2)
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency, [rng.choice("CNO") for _ in range(vertices)]


#: A fixed labelled graph and path pattern for the host-speed kernel.  They
#: belong to the benchmark, not the program, so no change to the program
#: can change the kernel's work.
_KERNEL_ADJ, _KERNEL_LABELS = _kernel_graph()
_KERNEL_PATTERN = "CCNCOC"
#: The kernel's CPU time on the host the benchmark was built on, in a fast
#: stretch.  Time metrics are reported at this host speed.
KERNEL_REFERENCE_SECONDS = 0.8e-3
#: Kernel samples on each side of a query that set its slowdown.
SLOWDOWN_WINDOW = 10


def host_kernel() -> int:
    """Count the embeddings of a labelled 6-vertex path in a fixed
    120-vertex graph by backtracking: about 1 ms of the same kind of
    pure-Python work as sub-iso verification (set membership, recursion,
    label tests).  Returns the count, which is always 554."""
    count = 0

    def extend(mapping: list[int]) -> None:
        nonlocal count
        depth = len(mapping)
        if depth == len(_KERNEL_PATTERN):
            count += 1
            return
        for vertex in _KERNEL_ADJ[mapping[-1]]:
            if vertex not in mapping and _KERNEL_LABELS[vertex] == _KERNEL_PATTERN[depth]:
                mapping.append(vertex)
                extend(mapping)
                mapping.pop()

    for vertex in range(len(_KERNEL_ADJ)):
        if _KERNEL_LABELS[vertex] == _KERNEL_PATTERN[0]:
            extend([vertex])
    return count


def kernel_seconds() -> float:
    """CPU time of one kernel call.  CPU time, not wall time: a slow host
    stretches both, while being descheduled (behind the benchmark's own
    server, say) stretches only wall time."""
    started = time.thread_time()
    host_kernel()
    return time.thread_time() - started


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the host ran while
    ``samples`` (kernel CPU times) were taken."""
    return statistics.median(samples) / KERNEL_REFERENCE_SECONDS


def local_slowdowns(samples: list[float]) -> list[float]:
    """The slowdown around each place of ``samples`` (kernel CPU times, 0
    where no kernel ran): over the samples within ``SLOWDOWN_WINDOW``
    places of it, or over all of them if none lies that close."""
    taken = [sample for sample in samples if sample > 0]
    overall = slowdown(taken)
    factors = []
    for i in range(len(samples)):
        near = [sample for sample in samples[max(0, i - SLOWDOWN_WINDOW):i + SLOWDOWN_WINDOW + 1]
                if sample > 0]
        factors.append(slowdown(near) if near else overall)
    return factors


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def tail_percentile(values: list[float], wanted: float = 99.0) -> float:
    """The ``wanted`` percentile, capped so at least ten samples lie beyond.

    With fewer than 1000 samples p99 has fewer than ten samples above it;
    the percentile is then lowered to ``100 * (1 - 10 / n)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    pct = min(wanted, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 0.0
    rank = max(0, min(n - 1, math.ceil(pct / 100.0 * n) - 1))
    return ordered[rank]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(include_children: int = 0) -> float:
    """Peak RSS of this process, plus ``include_children`` times the largest
    waited-for child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + include_children * child) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}

"""The per-layer ledger: spans recorded around the program's public calls.

A :class:`Ledger` patches the public functions at each layer boundary from
the benchmark's side (class attributes or module functions) and records one
span per call while it is active: name, parent span on the same thread,
start, duration, self time (duration minus the nested spans) and a few
counts taken from the call's result.  Spans stay in memory and are written
out once, at the end of the run.  Inactive wrappers only test a flag, so
untraced passes run the program's own code.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span record layout (one list per span, cheap to build and to dump).
FIELDS = ("id", "parent", "name", "thread", "start", "seconds", "self_seconds", "attrs",
          "phase")


class Ledger:
    def __init__(self) -> None:
        self.active = False
        #: Label stamped on every span recorded from now on.
        self.phase = ""
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict for the caller to fill."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name, 0.0]  # id, name, nested seconds
        attrs: dict = {}
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield attrs
        finally:
            seconds = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][2] += seconds
            self.spans.append([frame[0], parent, name, threading.get_ident(),
                               started, seconds, seconds - frame[2], attrs, self.phase])

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Patch ``owner.attr`` (a class or module function) with a span.

        ``describe(args, result)`` returns counts to attach to the span.
        """
        original = owner.__dict__[attr]
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            outer = ledger.parent_name() != name
            with ledger.span(name) as attrs:
                if outer:
                    attrs["outer"] = 1
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, result))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle)


def totals(spans) -> dict[str, dict]:
    """Per span name: calls, seconds, self seconds and summed counts."""
    rows: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = rows[span[2]]
        row["calls"] += 1
        row["seconds"] += span[5]
        row["self_seconds"] += span[6]
        for key, value in span[7].items():
            row[key] += value
    return rows


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def install_pipeline_wrappers(ledger: Ledger) -> None:
    """Wrap the in-process query pipeline's layer boundaries."""
    from repro.cache.graph_cache import GraphCache
    from repro.cache.pruner import CandidateSetPruner
    from repro.features.base import FeatureExtractor
    from repro.methods.base import MethodM

    ledger.wrap(MethodM, "filter_candidates", "methods.filter",
                lambda args, result: {"candidates": len(result)})
    ledger.wrap(MethodM, "verify_candidates", "methods.verify",
                lambda args, result: {"tests": result.num_tests,
                                      "answers": len(result.answers)})
    ledger.wrap(GraphCache, "lookup", "cache.probe",
                lambda args, result: {
                    "screened": result.screened_sub_candidates
                    + result.screened_super_candidates,
                    "probe_tests": result.probe_tests,
                    "hits": len(result.sub_hits) + len(result.super_hits)
                    + (result.exact_entry is not None),
                })
    ledger.wrap(CandidateSetPruner, "prune", "cache.prune",
                lambda args, result: {"saved": result.tests_saved})
    ledger.wrap(CandidateSetPruner, "exact_hit_result", "cache.prune",
                lambda args, result: {"saved": result.tests_saved})
    ledger.wrap(GraphCache, "credit", "cache.admit")
    ledger.wrap(GraphCache, "offer", "cache.admit")
    for cls in _subclasses(FeatureExtractor):
        if "extract" in cls.__dict__ and not getattr(cls, "__abstractmethods__", None):
            ledger.wrap(cls, "extract", "features.extract")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)

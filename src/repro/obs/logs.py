"""Structured logging: per-subsystem loggers, trace-id-aware records.

Every subsystem logs through a child of the ``repro`` root logger
(``repro.server``, ``repro.sharding.worker``, …) obtained from
:func:`get_logger`.  A :class:`TraceIdFilter` injects the active query's
trace id (a :mod:`contextvars` value set by the serving path) into every
record so a slow-query trace and its log lines can be joined.

Shard worker processes install a :class:`BufferedLogHandler` on the
``repro`` root: warnings and errors are buffered (bounded) and drained by
the coordinator over each worker's pipe, then re-emitted into the
coordinator's log stream with a ``shard=N`` prefix — one terminal shows
the whole distributed system's problems.
"""

from __future__ import annotations

import contextvars
import logging
import threading
from collections import deque

#: The active request's trace id, set around each served query.
current_trace_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None,
)

ROOT_LOGGER_NAME = "repro"

#: Warning+ records a worker buffers awaiting coordinator drain.
DEFAULT_LOG_BUFFER = 256

LOG_FORMAT = "%(asctime)s %(levelname)s %(name)s [trace=%(trace_id)s] %(message)s"


class TraceIdFilter(logging.Filter):
    """Stamp ``record.trace_id`` from the contextvar (or ``-``)."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "trace_id") or record.trace_id is None:
            record.trace_id = current_trace_id.get() or "-"
        return True


def get_logger(name: str) -> logging.Logger:
    """The subsystem logger ``repro.<name>`` (or ``name`` if already rooted)."""
    if name != ROOT_LOGGER_NAME and not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


def configure_logging(level: int = logging.INFO,
                      stream=None) -> logging.Logger:
    """Attach one trace-aware stream handler to the ``repro`` root.

    Idempotent: reconfiguring adjusts the level instead of stacking
    handlers (the CLI calls this once per process).
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(level)
    for handler in root.handlers:
        if getattr(handler, "_repro_obs_handler", False):
            handler.setLevel(level)
            return root
    handler = logging.StreamHandler(stream)
    handler._repro_obs_handler = True
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler.addFilter(TraceIdFilter())
    root.addHandler(handler)
    return root


class BufferedLogHandler(logging.Handler):
    """Bounded in-memory buffer of formatted records for remote draining.

    Installed on a shard worker's ``repro`` root at WARNING level; the
    coordinator drains it with the ``drain-logs`` op and replays the
    entries into its own log stream.  Overflow drops the oldest entries and
    counts them, so a chatty worker can never grow without bound.
    """

    def __init__(self, capacity: int = DEFAULT_LOG_BUFFER,
                 level: int = logging.WARNING) -> None:
        super().__init__(level=level)
        self._buffer_lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=max(1, capacity))
        self._dropped = 0
        self.addFilter(TraceIdFilter())

    def emit(self, record: logging.LogRecord) -> None:
        try:
            entry = {
                "level": record.levelname,
                "logger": record.name,
                "message": record.getMessage(),
                "trace_id": getattr(record, "trace_id", None) or "-",
                "created": record.created,
            }
        except Exception:
            self.handleError(record)
            return
        with self._buffer_lock:
            if len(self._entries) == self._entries.maxlen:
                self._dropped += 1
            self._entries.append(entry)

    def drain(self) -> dict:
        """Pop everything buffered: ``{"entries": [...], "dropped": n}``."""
        with self._buffer_lock:
            entries = list(self._entries)
            self._entries.clear()
            dropped, self._dropped = self._dropped, 0
        return {"entries": entries, "dropped": dropped}


def replay_entries(entries: list[dict], source: str,
                   logger: logging.Logger | None = None,
                   dropped: int = 0) -> None:
    """Re-emit drained worker log entries into this process's stream."""
    logger = logger or get_logger("sharding.workers")
    for entry in entries:
        level = logging.getLevelName(str(entry.get("level", "WARNING")))
        if not isinstance(level, int):
            level = logging.WARNING
        logger.log(
            level, "[%s] %s", source, entry.get("message", ""),
            extra={"trace_id": entry.get("trace_id") or "-"},
        )
    if dropped:
        logger.warning("[%s] %d log entries dropped before drain", source, dropped)

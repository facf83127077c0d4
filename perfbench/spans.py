"""Layer spans recorded from outside the program.

:func:`install` wraps the program's public callables (listed in
``TARGETS``) so every call records one span: its layer name, start and
end (``perf_counter_ns``, one monotonic clock across processes on
Linux), the span that caused it, the cell key it worked on, and a few
attributes read off its arguments or result. Spans stay in memory and
are written to one JSON file when the process exits. Nothing here runs
unless a benchmark process asks for tracing.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

#: Environment variable naming the file a traced process writes its
#: spans to at exit.
SPANS_ENV = "PERFBENCH_SPANS"

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


def _key_arg(args: tuple, _kwargs: dict) -> str | None:
    """The cell key passed as the first argument after ``self``."""
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _job_key(args: tuple, _kwargs: dict) -> str | None:
    return args[0].cache_key() if args else None


def _events(result: Any, _args: tuple) -> dict:
    return {"events": getattr(result, "events_processed", 0)}


def _bytes_out(result: Any, _args: tuple) -> dict:
    return {"bytes": len(result)} if result is not None else {"miss": 1}


def _bytes_in(_result: Any, args: tuple) -> dict:
    return {"bytes": len(args[2])}


def _hit(result: Any, _args: tuple) -> dict:
    return {"hit": int(result is not None)}


def _leader(result: Any, _args: tuple) -> dict:
    return {"leader": int(bool(result and result[1]))}


#: (layer name, module, attribute path, cell-key reader, attribute reader)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("workloads.generate", "repro.runner.jobs", "WorkloadSpec.generate",
     None, None),
    ("core.sim_init", "repro.core.engine", "Simulation.__init__", None, None),
    ("core.sim_run", "repro.core.engine", "Simulation.run", None, _events),
    ("runner.execute_job", "repro.runner.runner", "execute_job", _job_key,
     None),
    ("runner.payload_build", "repro.runner.runner", "payload_from_result",
     None, None),
    ("runner.payload_decode", "repro.runner.runner", "result_from_payload",
     None, None),
    ("runner.digest", "repro.runner.runner", "canonical_payload_digest",
     None, None),
    ("runner.run_many", "repro.runner.runner", "SweepRunner.run_many", None,
     None),
    ("runner.cache.disk_get", "repro.runner.cache", "DirectoryBackend.get",
     _key_arg, _bytes_out),
    ("runner.cache.disk_put", "repro.runner.cache", "DirectoryBackend.put",
     _key_arg, _bytes_in),
    ("runner.cache.memory_load", "repro.runner.cache",
     "MemoryResultCache.load", _key_arg, _hit),
    ("runner.singleflight.claim", "repro.runner.singleflight",
     "SingleFlight.claim", _key_arg, _leader),
    ("dist.local_dispatch", "repro.dist.dispatch",
     "LocalPoolDispatcher.compute", None, None),
    ("service.lookup", "repro.service.app", "SimulationService.lookup_raw",
     _key_arg, _hit),
    ("service.envelope", "repro.service.app",
     "SimulationService.envelope_bytes", _key_arg, None),
    ("service.digest_for", "repro.service.app",
     "SimulationService.digest_for", _key_arg, None),
    ("service.run_job", "repro.service.app", "SimulationService.run_job",
     None, None),
    # The benchmark's own host-speed calibration, so it can be taken out
    # of the wall-time account.
    ("bench.calibration", "calib", "loop_ms", None, None),
)


class Recorder:
    """Collects spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)

    def _record(self, name: str, start: int, end: int, parent: int | None,
                span_id: int, key: str | None, attrs: dict | None) -> None:
        # list.append is atomic under the interpreter lock.
        self.spans.append([name, start, end, parent, span_id, key,
                           threading.get_ident(), attrs])

    def wrap(self, name: str, fn: Callable,
             key_of: Callable | None = None,
             attrs_of: Callable | None = None) -> Callable:
        """``fn`` timed as one span per call (coroutines included)."""
        record, ids = self._record, self._ids

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                key = key_of(args, kwargs) if key_of else None
                span_id = next(ids)
                parent = _current.get()
                token = _current.set(span_id)
                start = time.perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _current.reset(token)
                    record(name, start, end, parent, span_id, key,
                           attrs_of(result, args) if attrs_of else None)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = key_of(args, kwargs) if key_of else None
            span_id = next(ids)
            parent = _current.get()
            token = _current.set(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                _current.reset(token)
                record(name, start, end, parent, span_id, key,
                       attrs_of(result, args) if attrs_of else None)
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span recorded so far to ``path``."""
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def install(path: str) -> Recorder:
    """Wrap every target in every loaded ``repro`` module; dump at exit.

    Module-level functions are also rebound wherever another module
    imported them by name, so callers that hold their own reference
    (``from repro.runner.runner import execute_job``) record too.
    """
    import importlib

    recorder = Recorder()
    for module_name in {target[1] for target in TARGETS} | {
            "repro.service.client",
            "repro.analysis.cli"}:
        importlib.import_module(module_name)
    for name, module_name, attr, key_of, attrs_of in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[member]
            setattr(owner, member,
                    recorder.wrap(name, original, key_of, attrs_of))
            continue
        original = getattr(module, member)
        wrapped = recorder.wrap(name, original, key_of, attrs_of)
        setattr(module, member, wrapped)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, member, None) is original):
                setattr(loaded, member, wrapped)
    atexit.register(recorder.dump, path)
    return recorder


def install_from_env() -> Recorder | None:
    """:func:`install` when the spans environment variable is set."""
    path = os.environ.get(SPANS_ENV)
    return install(path) if path else None

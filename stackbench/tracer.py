"""Spans around the public entry points of every layer, recorded from outside.

The tracer wraps functions in place (class attributes, module globals and
the live :class:`~repro.kernels.KernelSet`) and restores every original on
:meth:`Tracer.uninstall`; the library itself carries no tracing code.  Each
span is ``(id, parent, name, start, end, attrs)`` with ``time.perf_counter``
stamps (``CLOCK_MONOTONIC``, so client and server processes share a clock).

* Synchronous spans take their parent from a per-thread stack, so a batch
  draw's subtree (manager -> session -> sampler -> kernels) nests exactly.
* Asynchronous spans (``ServiceCore.draw`` / ``update`` and the batch task)
  interleave on the event loop, so they have no parent; they and the
  coalescer's submit events are linked to a request by its seed, which
  travels with the request through every layer.
* ``JoinSampler.sample`` / ``prepare`` re-enter through the dynamic wrapper
  around the concrete sampler; only the outermost call is recorded.

``ServiceCore._run_batch`` is the one private function wrapped: its start
is the moment a coalesced batch flushes, which no public call marks.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from typing import Any

Span = tuple[int, int | None, str, float, float, dict[str, Any] | None]

AttrsOf = Callable[[tuple, dict, Any], dict[str, Any] | None]


def _seed_kwarg(args: tuple, kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"seed": kwargs.get("seed")}


def _pending_seeds(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"seeds": [item.seed for item in args[2]]}


def _submit_seed(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"seed": args[3]}


def _batch_seeds(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"seeds": [seed for _t, seed in args[1]]}


def _reply_seed(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"seed": args[0].metadata.get("request_seed")}


def _evicted(_args: tuple, _kwargs: dict, result: Any) -> dict[str, Any]:
    return {"evicted": bool(result)}


def _sample_outcome(_args: tuple, _kwargs: dict, result: Any) -> dict[str, Any] | None:
    if result is None:
        return None
    return {"iterations": int(result.iterations), "pairs": len(result.pairs)}


def _assign(owner: Any, attr: str, value: Any) -> None:
    # object.__setattr__ also reaches the frozen KernelSet dataclass.
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # ------------------------------------------------------------------
    def _targets(self) -> list[tuple[Any, str, str, str, AttrsOf | None]]:
        """``(owner, attribute, span name, kind, attrs)`` for every wrap."""
        import repro.core.grid_sampler_base as grid_sampler_base
        import repro.service.http as service_http
        from repro.alias.walker import AliasTable
        from repro.api.session import SamplingSession
        from repro.bbst.join_index import BBSTJoinIndex
        from repro.core.base import JoinSampler
        from repro.dynamic.sampler import DynamicSampler
        from repro.grid.grid import Grid
        from repro.kernels import get_kernels
        from repro.manager.manager import SessionHandle, SessionManager
        from repro.service.core import Coalescer, ServiceCore

        targets: list[tuple[Any, str, str, str, AttrsOf | None]] = [
            (ServiceCore, "draw", "service.draw", "async", _seed_kwarg),
            (ServiceCore, "_run_batch", "service.run_batch", "async", _pending_seeds),
            (ServiceCore, "update", "service.update", "async", None),
            (Coalescer, "submit", "service.submit", "sync", _submit_seed),
            (service_http, "result_to_json", "http.result_to_json", "sync", _reply_seed),
            (SessionHandle, "draw_batch", "manager.draw_batch", "sync", _batch_seeds),
            (SessionHandle, "update", "manager.update", "sync", None),
            (SessionManager, "enforce_budget", "manager.enforce_budget", "sync", None),
            (SamplingSession, "draw_batch", "session.draw_batch", "sync", None),
            (SamplingSession, "update", "session.update", "sync", None),
            (SamplingSession, "evict", "session.evict", "sync", _evicted),
            (JoinSampler, "prepare", "sampler.prepare", "outermost", None),
            (JoinSampler, "sample", "sampler.sample", "outermost", _sample_outcome),
            (grid_sampler_base, "build_sample_pairs", "sampler.assemble", "sync", None),
            (AliasTable, "draw_many", "alias.draw_many", "sync", None),
            (AliasTable, "__init__", "alias.build", "sync", None),
            (BBSTJoinIndex, "__init__", "bbst.index_build", "sync", None),
            (BBSTJoinIndex, "nbytes", "bbst.nbytes", "sync", None),
            (Grid, "__init__", "grid.build", "sync", None),
            (DynamicSampler, "update", "dynamic.update", "sync", None),
            (DynamicSampler, "flush", "dynamic.flush", "sync", None),
        ]
        kernels = get_kernels()
        for entry in fields(kernels):
            if entry.name != "name":
                targets.append((kernels, entry.name, f"kernels.{entry.name}", "sync", None))
        return targets

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, kind, attrs_of in self._targets():
                if attr not in vars(owner):
                    raise AttributeError(f"{owner!r} defines no {attr!r} to trace")
                original = vars(owner)[attr]
                if kind == "async":
                    wrapped = self._wrap_async(name, original, attrs_of)
                else:
                    wrapped = self._wrap_sync(name, original, attrs_of, kind == "outermost")
                _assign(owner, attr, wrapped)
                self._saved.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back (in reverse order); idempotent."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            _assign(owner, attr, original)

    # ------------------------------------------------------------------
    def _wrap_sync(
        self, name: str, fn: Callable, attrs_of: AttrsOf | None, outermost: bool
    ) -> Callable:
        tls = self._tls
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            if outermost and any(entry[1] == name for entry in stack):
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
                spans.append((span_id, parent, name, start, end, attrs))

        return wrapper

    def _wrap_async(self, name: str, fn: Callable, attrs_of: AttrsOf | None) -> Callable:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                attrs = attrs_of(args, kwargs, None) if attrs_of is not None else None
                spans.append((span_id, None, name, start, clock(), attrs))

        return wrapper

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON (done once, when the run ends)."""
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: Path) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    return [
        (int(sid), parent, name, start, end, attrs)
        for sid, parent, name, start, end, attrs in json.loads(path.read_text("utf-8"))
    ]

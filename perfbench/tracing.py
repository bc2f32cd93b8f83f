"""Span recording for the benchmark's traced run.

The traced run wraps the public function of each layer (named after the
modules under ``src/repro``) and records one span per call in a private
``repro.obs.MetricsRegistry``: a name, a start, a duration, the span that
was open when it started (its parent) and, in its attributes, the id of
the benchmark step it belongs to.  The registry is never installed, so the
program's own observability stays off.  Spans stay in memory and are
written out once, at the end, with ``repro.obs.to_chrome_trace`` (Chrome
``trace_event`` JSON, which Perfetto opens).

Nothing here runs in the untraced runs that produce the end-to-end
numbers: :meth:`Tracer.wrap` patches a wrapper in and
:meth:`Tracer.uninstall` restores the original functions.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro import obs


def layer(span: obs.SpanData) -> str:
    return span.name.split(".", 1)[0]


class Tracer:
    """Records spans and patches layer entry points to emit them."""

    def __init__(self) -> None:
        self.registry = obs.MetricsRegistry()
        self._origin = perf_counter()
        self._step: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the block as a span; yields its attributes, still writable."""
        if self._step is not None:
            attrs["step"] = self._step
        started = perf_counter()
        index = self.registry.begin_span(name, started - self._origin, attrs)
        try:
            yield attrs
        finally:
            self.registry.end_span(index, perf_counter() - started)

    @contextmanager
    def step(self, step_id: int, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """A benchmark step: its span and every span under it share *step_id*."""
        self._step = step_id
        try:
            with self.span(name, **attrs) as span_attrs:
                yield span_attrs
        finally:
            self._step = None

    # -- patching -----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Callable[..., Optional[str]],
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span.

        Only calls made inside a :meth:`step` are traced.  *name* maps the
        call's ``(args, kwargs)`` to a span name, or None to leave the call
        untraced; *after* sees ``(attrs, result, args, kwargs)`` and may
        set span attributes such as an event count.  Every module of the
        package that imported the function by name is patched too, so the
        wrapper is seen wherever the function is called from.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if self._step is not None else None
            if label is None:
                return original(*args, **kwargs)
            with self.span(label) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    after(attrs, result, args, kwargs)
            return result

        targets = [owner] + [
            module for key, module in list(sys.modules.items())
            if key.startswith("repro") and module is not owner
            and getattr(module, attr, None) is original
        ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reports ------------------------------------------------------------

    def spans(self) -> list[obs.SpanData]:
        return self.registry.snapshot().spans

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent outside the spans nested in it."""
        spans = self.spans()
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(spans):
            out[layer(span)] += span.duration - child_time[index]
        return dict(out)

    def totals(self, name: str) -> tuple[float, float]:
        """``(seconds, events)`` summed over the spans called *name*."""
        seconds = events = 0.0
        for span in self.spans():
            if span.name == name:
                seconds += span.duration
                events += span.attrs.get("events", 0)
        return seconds, events

    def write_chrome_trace(self, path: Path) -> Path:
        """Write the spans as Chrome ``trace_event`` JSON (opens in Perfetto)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(obs.to_chrome_trace(self.registry.snapshot()))
        return path

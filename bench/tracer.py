"""Run one emckit command with timing wrappers around every layer.

    python3 bench/tracer.py SPANS_FILE cli ARGS...    # emckit.cli.main(ARGS)
    python3 bench/tracer.py SPANS_FILE nu FAMILY_FILE # bench/nu.py

Every public function of each layer module is wrapped, and so is
``Family.__init__`` (family builds and members).  A wrapper is installed in
every emckit module that binds the function, because modules import each
other's names (``audit`` binds ``candidate_count`` from ``weights``), so
patching the defining module alone would miss those calls.

Spans stay in memory, each with its parent, and are written to SPANS_FILE
when the command ends; worker processes forked by ``--jobs`` write
SPANS_FILE.<pid>.  A layer's self time is the time during which one of its
spans is the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

LAYERS = (
    "core",
    "matching",
    "shifting",
    "constructions",
    "weights",
    "transversals",
    "audit",
    "search",
    "cli",
)

# O(1) integer helpers called up to a million times per command.  A wrapper
# would cost several times the call itself, so their time is charged to the
# calling layer instead.
UNTRACED = {"core.binom", "constructions.prefix_size"}

# Spans shorter than this are counted and timed but not kept as records, so
# that hot leaf calls do not fill memory.  A parent lasts at least as long as
# its children, so every kept span's parent is kept too.
MIN_SPAN_S = 50e-6

# Exceptions counted where they leave a layer: (metric, layer, class name).
COUNTED_EXCEPTIONS = (
    ("weights.enumeration_infeasible", "weights", "EnumerationInfeasible"),
    ("search.budget_exceeded", "search", "BudgetExceeded"),
)


class Tracer:
    def __init__(self, out: Path):
        self.out = out
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, active seconds)
        # open spans: [id, layer, name, resumed at, active seconds, parent id, start]
        self.stack: list[list] = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.counts = {"core.family_builds": 0, "core.family_members": 0}
        self.counts.update({metric: 0 for metric, _, _ in COUNTED_EXCEPTIONS})
        self.seen_exceptions: list[BaseException] = []
        self.ids = itertools.count()
        self.last = time.perf_counter()

    def _charge(self, now: float) -> None:
        if self.stack:
            self.self_s[self.stack[-1][1]] += now - self.last
        self.last = now

    def enter(self, layer: str, name: str) -> list:
        now = time.perf_counter()
        self._charge(now)
        parent = self.stack[-1][0] if self.stack else None
        span = [next(self.ids), layer, name, now, 0.0, parent, now]
        self.stack.append(span)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.depth[name] = self.depth.get(name, 0) + 1
        return span

    def suspend(self, span: list) -> float:
        """Close the active interval of the innermost span (a generator yields)."""
        now = time.perf_counter()
        self._charge(now)
        if self.stack.pop() is not span:
            raise RuntimeError("span stack out of order")
        span[4] += now - span[3]
        return now

    def resume(self, span: list) -> None:
        now = time.perf_counter()
        self._charge(now)
        span[3] = now
        self.stack.append(span)

    def finish(self, span: list, end: float, exc: BaseException | None = None) -> None:
        """Record a span whose active intervals are all closed."""
        sid, layer, name, _, active, parent, start = span
        if end - start >= MIN_SPAN_S:
            self.spans.append((sid, parent, name, start, end, active))
        self.depth[name] -= 1
        if self.depth[name] == 0:  # outermost call of a recursive function
            self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + active
        if exc is not None and not any(exc is e for e in self.seen_exceptions):
            for metric, exc_layer, cls in COUNTED_EXCEPTIONS:
                if layer == exc_layer and type(exc).__name__ == cls:
                    self.seen_exceptions.append(exc)
                    self.counts[metric] += 1

    def after_fork(self) -> None:
        self._reset()
        self.out = self.out.with_name(f"{self.out.name}.{os.getpid()}")
        multiprocessing.util.Finalize(self, self.dump, exitpriority=0)

    def dump(self) -> None:
        self._charge(time.perf_counter())
        data = {
            "self_s": self.self_s,
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "counts": self.counts,
            "spans": self.spans,
        }
        self.out.write_text(json.dumps(data), encoding="utf-8")


def wrap(tracer: Tracer, layer: str, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            span = tracer.enter(layer, name)
            exc = None
            try:
                gen = fn(*args, **kwargs)
                tracer.suspend(span)
                while True:
                    tracer.resume(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.suspend(span)
                    yield item
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.finish(span, time.perf_counter(), exc)

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.enter(layer, name)
        exc = None
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            exc = e
            raise
        finally:
            tracer.finish(span, tracer.suspend(span), exc)

    return traced


def install(tracer: Tracer) -> None:
    modules = {layer: importlib.import_module(f"emckit.{layer}") for layer in LAYERS}
    package = importlib.import_module("emckit")
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            qualname = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and qualname not in UNTRACED
            ):
                wrapped[obj] = wrap(tracer, layer, qualname, obj)
    for mod in [package, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    family = modules["core"].Family
    init = family.__init__

    def traced_init(self, *args, **kwargs):
        span = tracer.enter("core", "core.Family.__init__")
        exc = None
        try:
            init(self, *args, **kwargs)
        except BaseException as e:
            exc = e
            raise
        finally:
            tracer.finish(span, tracer.suspend(span), exc)
        tracer.counts["core.family_builds"] += 1
        tracer.counts["core.family_members"] += len(self.members)

    family.__init__ = traced_init
    for name in ("from_text", "from_masks", "to_text"):
        attr = vars(family)[name]
        if isinstance(attr, classmethod):
            setattr(family, name, classmethod(wrap(tracer, "core", f"core.Family.{name}", attr.__func__)))
        else:
            setattr(family, name, wrap(tracer, "core", f"core.Family.{name}", attr))


def main(argv: list[str]) -> int:
    spans_file, program, *args = argv
    tracer = Tracer(Path(spans_file))
    install(tracer)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    try:
        if program == "cli":
            from emckit import cli

            return cli.main(args)
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import nu

        return nu.main(args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

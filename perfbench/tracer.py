"""Span tracer wrapped around the public boundaries of each layer.

Tracing is done from the benchmark's own files: :meth:`Tracer.install`
replaces each boundary method on its class with a wrapper that records a
span ``(name, start, end, parent)`` in memory, and :meth:`Tracer.uninstall`
puts the original methods back.  Nothing in ``src/`` changes, and the
untraced runs execute the original methods.

Spans nest through a per-thread stack.  Simulated processes on thread
contexts run in their own OS threads while the kernel thread waits inside
``ThreadContext.resume``; a span opened on such a thread with an empty
stack takes the innermost active ``resume`` span as its parent, so the
thread's work is covered by (and subtracted from) the resume that ran it.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.gras.datadesc import ArrayDesc, StructDesc
from repro.kernel.context import GeneratorContext, ThreadContext
from repro.kernel.timer import TimerQueue
from repro.platform.platform import Platform
from repro.s4u.engine import Engine
from repro.surf.engine import SurfEngine
from repro.surf.lmm import MaxMinSystem
from repro.surf.model import FluidModel

#: Span name of the simulation's run call: the root of every run tree.
RUN_SPAN = "s4u.engine"
#: Span name shared by both context kinds; it is the thread hand-off point.
RESUME_SPAN = "kernel.context.resume"

#: (class, method, span name).  GRAS descriptors are traced at the
#: container level only (array/struct), never per scalar.
BOUNDARIES: Tuple[Tuple[type, str, str], ...] = (
    (Engine, "run", RUN_SPAN),
    (Engine, "add_actor", "s4u.engine.add_actor"),
    (Engine, "fail_host", "s4u.engine.fail_host"),
    (Engine, "restore_host", "s4u.engine.restore_host"),
    (GeneratorContext, "resume", RESUME_SPAN),
    (ThreadContext, "resume", RESUME_SPAN),
    (TimerQueue, "fire_until", "kernel.timer.fire_until"),
    (SurfEngine, "step", "surf.engine.step"),
    (SurfEngine, "execute", "surf.engine.execute"),
    (SurfEngine, "communicate", "surf.engine.communicate"),
    (FluidModel, "share_resources", "surf.model.share_resources"),
    (FluidModel, "update_actions_state", "surf.model.update_actions_state"),
    (MaxMinSystem, "solve", "surf.lmm.solve"),
    (Platform, "realize", "platform.realize"),
    (Platform, "route_resources", "platform.route_resources"),
    (ArrayDesc, "encode", "gras.datadesc.encode"),
    (ArrayDesc, "decode", "gras.datadesc.decode"),
    (ArrayDesc, "wire_size", "gras.datadesc.wire_size"),
    (StructDesc, "encode", "gras.datadesc.encode"),
    (StructDesc, "decode", "gras.datadesc.decode"),
    (StructDesc, "wire_size", "gras.datadesc.wire_size"),
)

#: Every span name the tracer can record, in declaration order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(b[2] for b in BOUNDARIES))


class Tracer:
    """In-memory span recorder; one instance per traced execution."""

    def __init__(self) -> None:
        # Flat arrays keep ~10^6 spans compact and out of the collector.
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stacks: Dict[int, List[int]] = {}
        self._handoff = -1          # innermost active resume span, or -1
        self._saved: List[Tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attr, name in BOUNDARIES:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name: str):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = time.perf_counter
        tracer = self
        is_resume = name == RESUME_SPAN

        def traced(*args, **kwargs):
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks[get_ident()] = []
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else tracer._handoff)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            if is_resume:
                outer = tracer._handoff
                tracer._handoff = index
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if is_resume:
                    tracer._handoff = outer

        return functools.wraps(fn)(traced)

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(index)
        starts, ends = self.starts, self.ends
        result = [end - start for start, end in zip(starts, ends)]
        for parent, kids in children.items():
            low, high = starts[parent], ends[parent]
            covered = 0.0
            cursor = low
            for kid in sorted(kids, key=starts.__getitem__):
                begin = max(starts[kid], cursor)
                finish = min(ends[kid], high)
                if finish > begin:
                    covered += finish - begin
                    cursor = finish
            result[parent] -= covered
        return result

    def roots(self) -> List[int]:
        """Index of the root span of every span (parents precede children)."""
        root = list(range(len(self.parents)))
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                root[index] = root[parent]
        return root

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"self_s", "calls"}}`` for every boundary name."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for name, own in zip(self.names, self.self_times()):
            entry = out[name]
            entry["self_s"] += own
            entry["calls"] += 1
        return out

    def run_time(self) -> float:
        """Total duration of the run spans (the simulation's run calls)."""
        return sum(end - start for name, start, end, parent in
                   zip(self.names, self.starts, self.ends, self.parents)
                   if name == RUN_SPAN and parent < 0)

    def self_time_under_runs(self) -> float:
        """Sum of the self times of every span inside a run span."""
        own = self.self_times()
        total = 0.0
        for index, root in enumerate(self.roots()):
            if self.names[root] == RUN_SPAN and self.parents[root] < 0:
                total += own[index]
        return total

    def write_tsv(self, path: str) -> None:
        """Write the spans, one ``index name start end parent`` per line."""
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                out.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")

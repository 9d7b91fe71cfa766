"""Span tracing from outside the program, and per-layer attribution.

The traced run wraps the public functions at each layer boundary of
``repro`` (see :data:`BOUNDARIES`) for the duration of one pass, records
one span per call in flat in-memory arrays, and writes them out at the
end.  Nothing here is installed during timed runs.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``item`` the capture or frame
id current when it opened.  A layer's *self time* is its spans' total
duration minus the part covered by their direct child spans, so self
times over all spans add up exactly to the time the root spans cover;
whatever the measured segments spent outside every root span is the
unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modules.base import KalisModule
from repro.core.modules.registry import available_modules, module_class


class SpanRecorder:
    """Flat, append-only span storage with a parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("q")
        self._stack: List[int] = [-1]
        self.current_item = -1
        self._next_item = {"capture": 0, "frame": 0}

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def __len__(self) -> int:
        return len(self.start)

    def call(self, code: int, fn, args, kwargs, item_kind: Optional[str] = None):
        """Run ``fn`` inside a new span named by ``code``."""
        index = len(self.start)
        previous_item = self.current_item
        if item_kind is not None:
            self.current_item = self._next_item[item_kind]
            self._next_item[item_kind] += 1
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = self.clock()
            self._stack.pop()
            self.current_item = previous_item

    def save(self, path, **meta) -> None:
        """Write the spans as an ``.npz`` archive (names and ``meta`` alongside)."""
        np.savez(
            path,
            **{key: np.array(value) for key, value in meta.items()},
            names=np.array(self.names, dtype=object),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int64),
        )


# -- installing wrappers ---------------------------------------------------------


def _span_wrapper(recorder: SpanRecorder, name: str, fn, item_kind=None):
    code = recorder.code(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(code, fn, args, kwargs, item_kind)

    return wrapper


def _module_wrapper(recorder: SpanRecorder, operation: str, fn, open_for: List[object]):
    """Per-module spans (``modules.<op>:<NAME>``), folding super() chains.

    An override that calls ``super().required(kb)`` is one boundary
    crossing, not two: the inner call runs inside the outer span.
    ``open_for`` is the stack of modules with an open span for this
    operation, shared by every class's wrapper.
    """
    codes: Dict[type, int] = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if open_for and open_for[-1] is self:
            return fn(self, *args, **kwargs)
        cls = type(self)
        code = codes.get(cls)
        if code is None:
            code = codes[cls] = recorder.code(f"modules.{operation}:{cls.NAME}")
        open_for.append(self)
        try:
            return recorder.call(code, fn, (self,) + args, kwargs)
        finally:
            open_for.pop()

    return wrapper


@dataclass
class Boundary:
    """One wrapped callable: where it lives and the span name it gets."""

    owner: str          # dotted module path of the owning module
    attr: str           # "Class.method" or a module-level function name
    span: str           # span name (layer.operation)
    item_kind: Optional[str] = None   # "capture"/"frame": opens a new item id


#: The layer boundaries the traced run wraps.  Module handle/required
#: are added per class by :func:`install` (every registered module).
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.trace.trace", "Trace.load", "trace.load"),
    Boundary("repro.net.packets.codec", "decode_packet", "packets.decode"),
    Boundary("repro.trace.record", "decode_packet", "packets.decode"),
    Boundary("repro.core.comm", "CommunicationSystem.on_capture", "comm.on_capture",
             item_kind="capture"),
    Boundary("repro.core.datastore", "DataStore.add", "datastore.add"),
    Boundary("repro.core.manager", "ModuleManager.on_capture", "manager.route"),
    Boundary("repro.core.manager", "ModuleManager.reevaluate", "manager.reevaluate"),
    Boundary("repro.core.knowledge", "KnowledgeBase.put", "knowledge.put"),
    Boundary("repro.core.knowledge", "KnowledgeBase.get", "knowledge.get"),
    Boundary("repro.core.knowledge", "KnowledgeBase.get_knowgget", "knowledge.get_knowgget"),
    Boundary("repro.core.knowledge", "encode_key", "knowledge.encode_key"),
    Boundary("repro.eventbus.bus", "EventBus.publish", "bus.publish"),
    Boundary("repro.net.packets.base", "Packet.find_layer", "packets.find_layer"),
    Boundary("repro.sim.engine", "Simulator.run_until", "sim.run_until"),
    Boundary("repro.sim.engine", "Simulator.transmit", "sim.transmit", item_kind="frame"),
    Boundary("repro.sim.engine", "Simulator.schedule_at", "sim.schedule_at"),
    Boundary("repro.sim.spatial", "SpatialGrid.near_arrays", "spatial.near_arrays"),
    Boundary("repro.sim.medium", "PathLossParams.mean_rssi_block", "medium.block"),
    Boundary("repro.sim.medium", "RadioMedium.pair_sample_block", "medium.block"),
    Boundary("repro.sim.medium", "RadioMedium.pair_rssi_block", "medium.block"),
    Boundary("repro.sim.medium", "RadioMedium.pair_frame_lost_block", "medium.block"),
    Boundary("repro.util.rng", "HashedStream.sample_block", "rng.sample_block"),
    Boundary("repro.sim.node", "SimNode.handle_frame", "proto.handle_frame"),
)


class Installation:
    """Wrappers installed on the live program; :meth:`remove` restores it."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every boundary and each module class's handle/required."""
    done = Installation()
    try:
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.owner)
            owner: object = module
            attr = boundary.attr
            if "." in attr:
                class_name, attr = attr.split(".", 1)
                owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_span_wrapper(
                    recorder, boundary.span, raw.__func__, boundary.item_kind))
            else:
                wrapped = _span_wrapper(recorder, boundary.span, raw, boundary.item_kind)
            done.replace(owner, attr, wrapped)
        classes = {KalisModule}
        for name in available_modules():
            classes.update(c for c in module_class(name).__mro__ if issubclass(c, KalisModule))
        open_for: Dict[str, List[object]] = {"handle": [], "required": []}
        for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__)):
            for operation, stack in open_for.items():
                if operation in cls.__dict__:
                    done.replace(cls, operation, _module_wrapper(
                        recorder, operation, cls.__dict__[operation], stack))
    except BaseException:
        done.remove()
        raise
    return done


# -- attribution -------------------------------------------------------------------


@dataclass
class Attribution:
    """Self time, inclusive time and call counts per span name.

    ``total_s`` sums span durations, so it counts a re-entered name's
    nested time twice; ``self_s`` never does.  ``root_s`` is the time the
    root spans cover, which equals the sum of all self times.
    """

    self_s: Dict[str, float]
    total_s: Dict[str, float]
    calls: Dict[str, int]
    root_s: float

    def self_of(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + ":"))

    def calls_of(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k == prefix or k.startswith(prefix + ":"))


def attribute(recorder: SpanRecorder, first: int = 0, last: Optional[int] = None) -> Attribution:
    """Self time per span name for spans ``first..last`` (a closed subtree set).

    The range must hold whole trees: every span's parent is either a root
    (-1) or inside the range, which holds for any range cut between two
    top-level calls.
    """
    last = len(recorder) if last is None else last
    start = np.frombuffer(recorder.start, dtype=np.float64)[first:last]
    end = np.frombuffer(recorder.end, dtype=np.float64)[first:last]
    names = np.frombuffer(recorder.name, dtype=np.int32)[first:last]
    parents = np.frombuffer(recorder.parent, dtype=np.int32)[first:last].astype(np.int64)
    count = last - first
    duration = end - start
    has_parent = parents >= 0
    local_parent = parents[has_parent] - first
    if local_parent.size and (local_parent.min() < 0 or local_parent.max() >= count):
        raise ValueError("span range cuts through a span tree")
    children = np.bincount(local_parent, weights=duration[has_parent], minlength=count)
    own = duration - children
    size = len(recorder.names)
    per_self = np.bincount(names, weights=own, minlength=size)
    per_total = np.bincount(names, weights=duration, minlength=size)
    per_calls = np.bincount(names, minlength=size)
    self_s, total_s, calls = {}, {}, {}
    for code, label in enumerate(recorder.names):
        if per_calls[code]:
            self_s[label] = float(per_self[code])
            total_s[label] = float(per_total[code])
            calls[label] = int(per_calls[code])
    return Attribution(self_s=self_s, total_s=total_s, calls=calls,
                       root_s=float(duration[~has_parent].sum()))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 3:
        raise ValueError("need at least three pairs")

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        position = 0
        while position < len(order):
            tail = position
            while tail + 1 < len(order) and values[order[tail + 1]] == values[order[position]]:
                tail += 1
            mean_rank = (position + tail) / 2.0 + 1.0
            for k in range(position, tail + 1):
                result[order[k]] = mean_rank
            position = tail + 1
        return result

    rx = np.array(ranks(list(xs)))
    ry = np.array(ranks(list(ys)))
    rx -= rx.mean()
    ry -= ry.mean()
    denominator = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denominator == 0.0:
        raise ValueError("constant input has no rank correlation")
    return float((rx * ry).sum() / denominator)

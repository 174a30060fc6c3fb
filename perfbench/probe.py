"""Per-layer attribution for the traced benchmark run, measured from outside.

:class:`Probe` wraps public entry points of each ``src/repro`` layer --
nothing inside the program changes.  Every wrapped call becomes a span
on an in-memory stack: a span's *self* time is its duration minus the
time of the spans nested in it, and both are aggregated per span name.
Coarse spans (one per invariant audit, per solver/kernel call, per
engine run) are also kept as records and written out at the end.

Each hook is optional.  When its target is gone -- ``Engine.schedule_run``
once the fabric no longer needs it, ``Event.__lt__`` after a switch to a
tuple heap -- the hook is skipped and the metrics that depend on it are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import heapq as _heapq
import inspect
import sys
from time import perf_counter

#: Event-label namespaces charged separately (the label prefix before ``:``).
NAMESPACES = ("fabric", "dra", "sru", "traffic", "eib", "detect", "fault")

#: Span names whose individual records are kept (the rest are aggregated only).
_KEPT = frozenset({"sim", "invariants", "markov", "mc", "op"})


def _namespace(label: str) -> str:
    return label.split(":", 1)[0] if label else ""


class _CountingHeapq:
    """Stands in for the ``heapq`` module inside ``repro.sim.engine``."""

    def __init__(self) -> None:
        self.pushes = 0
        self.pops = 0
        self.peak = 0

    def heappush(self, heap, item):
        self.pushes += 1
        _heapq.heappush(heap, item)
        if len(heap) > self.peak:
            self.peak = len(heap)

    def heappop(self, heap):
        self.pops += 1
        return _heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(_heapq, name)


class Probe:
    """Installs the hooks, aggregates spans and counts, restores on exit."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        #: span name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        #: kept span records: [name, start, end, parent record index or -1]
        self.records: list[tuple] = []
        self.scheduled: dict[str, int] = {}
        self.cancelled: dict[str, int] = {}
        self.fabric_packets = 0
        self.fabric_cells = 0
        self.injected_packets = 0
        self.trace_kinds: dict[str, int] = {}
        self.compares = 0
        self.heap: _CountingHeapq | None = None
        self.validate_pairs = 0
        self.fabric_hooked = False
        self.invariants_hooked = False
        self.missing: list[str] = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        record = None
        if name in _KEPT:
            parent = next((f[3] for f in reversed(stack) if f[3] is not None), -1)
            record = len(self.records)
            self.records.append([name, 0.0, 0.0, parent])
        # frame: name, start, seconds covered by child spans, kept record
        frame = [name, perf_counter(), 0.0, record]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            end = perf_counter()
            dur = end - frame[1]
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[2]
            if record is not None:
                self.records[record][1:3] = frame[1], end
            if stack:
                stack[-1][2] += dur

    def outermost(self, name: str) -> bool:
        """True when no span called ``name`` is already open."""
        return all(frame[0] != name for frame in self._stack)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, func, wrapper) -> None:
        """Point every ``repro`` module global bound to ``func`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapper)

    def install(self) -> list[str]:
        """Install every hook whose target exists; return the missing ones."""
        self._hook_engine()
        self._hook_event_compare()
        self._hook_cancel()
        self.fabric_hooked = self._hook_class_method(
            "repro.router.fabric", "SwitchFabric", "transfer_run", self._wrap_transfer_run
        )
        self._hook_class_method("repro.router.router", "Router", "inject", self._wrap_inject)
        self._hook_class_method("repro.obs.trace", "Tracer", "emit", self._wrap_emit)
        self.invariants_hooked = self._hook_function("repro.chaos.invariants", "check_invariants", "invariants")
        self._hook_family("repro.markov", "markov")
        self._hook_family("repro.montecarlo", "mc")
        self._hook_validate()
        return self.missing

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _module(name: str):
        try:
            __import__(name)
        except ImportError:
            return None
        return sys.modules[name]

    def _lookup(self, mod_name: str, *path: str):
        obj = self._module(mod_name)
        for part in path:
            obj = getattr(obj, part, None) if obj is not None else None
        if obj is None:
            self.missing.append(".".join((mod_name,) + path))
        return obj

    def _hook_engine(self) -> None:
        engine_mod = self._module("repro.sim.engine")
        engine_cls = self._lookup("repro.sim.engine", "Engine")
        if engine_cls is None:
            return
        probe = self

        def wrap_action(action, label):
            if getattr(action, "_probe_ns", None) is not None:
                return action
            name = "ns:" + _namespace(label)

            def action_span(*args):
                return probe.call(name, action, *args)

            action_span._probe_ns = name
            return action_span

        def wrap_schedule(original):
            def schedule(self, when, action, *args, label="", **kwargs):
                if getattr(action, "_probe_ns", None) is None:
                    ns = _namespace(label)
                    probe.scheduled[ns] = probe.scheduled.get(ns, 0) + 1
                    action = wrap_action(action, label)
                return original(self, when, action, *args, label=label, **kwargs)

            return schedule

        for method in ("schedule", "schedule_in", "schedule_run"):
            original = engine_cls.__dict__.get(method)
            if original is None:
                self.missing.append(f"repro.sim.engine.Engine.{method}")
                continue
            self._patch(engine_cls, method, wrap_schedule(original))

        run = engine_cls.__dict__.get("run")
        if run is None:
            self.missing.append("repro.sim.engine.Engine.run")
        else:
            self._patch(engine_cls, "run", lambda eng, *a, **k: probe.call("sim", run, eng, *a, **k))

        if engine_mod is not None and getattr(engine_mod, "heapq", None) is _heapq:
            self.heap = _CountingHeapq()
            self._patch(engine_mod, "heapq", self.heap)
        else:
            self.missing.append("repro.sim.engine.heapq")

    def _hook_event_compare(self) -> None:
        event_cls = self._lookup("repro.sim.events", "Event")
        original = event_cls.__dict__.get("__lt__") if event_cls is not None else None
        if original is None:
            if event_cls is not None:
                self.missing.append("repro.sim.events.Event.__lt__")
            self.compares = None
            return
        probe = self

        def lt(a, b):
            probe.compares += 1
            return original(a, b)

        self._patch(event_cls, "__lt__", lt)

    def _hook_cancel(self) -> None:
        handle_cls = self._lookup("repro.sim.events", "EventHandle")
        original = handle_cls.__dict__.get("cancel") if handle_cls is not None else None
        if original is None:
            if handle_cls is not None:
                self.missing.append("repro.sim.events.EventHandle.cancel")
            self.cancelled = None
            return
        probe = self

        def cancel(handle):
            if not handle.cancelled:
                ns = _namespace(handle.label)
                probe.cancelled[ns] = probe.cancelled.get(ns, 0) + 1
            return original(handle)

        self._patch(handle_cls, "cancel", cancel)

    def _hook_class_method(self, mod_name, cls_name, method, make_wrapper) -> bool:
        cls = self._lookup(mod_name, cls_name)
        original = cls.__dict__.get(method) if cls is not None else None
        if original is None:
            if cls is not None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
            return False
        self._patch(cls, method, make_wrapper(original))
        return True

    def _wrap_transfer_run(self, original):
        probe = self

        def transfer_run(fabric, cells, *args, **kwargs):
            cells = list(cells)
            probe.fabric_packets += 1
            probe.fabric_cells += len(cells)
            return probe.call("fabric.transfer", original, fabric, cells, *args, **kwargs)

        return transfer_run

    def _wrap_inject(self, original):
        probe = self

        def inject(router, packet):
            probe.injected_packets += 1
            return original(router, packet)

        return inject

    def _wrap_emit(self, original):
        probe = self
        kinds = self.trace_kinds

        def emit(tracer, kind, *args, **kwargs):
            kinds[kind] = kinds.get(kind, 0) + 1
            return probe.call("trace", original, tracer, kind, *args, **kwargs)

        return emit

    def _hook_function(self, mod_name: str, attr: str, span: str) -> bool:
        func = self._lookup(mod_name, attr)
        if func is None:
            return False
        probe = self

        def wrapper(*args, **kwargs):
            return probe.call(span, func, *args, **kwargs)

        self._rebind_function(func, wrapper)
        return True

    def _hook_family(self, package: str, span: str) -> None:
        """Span every public function of ``package``; nested calls within
        the family count once (the outermost call is the solve)."""
        module = self._module(package)
        names = getattr(module, "__all__", None) if module is not None else None
        if not names:
            self.missing.append(f"{package}.__all__")
            return
        probe = self
        for attr in names:
            func = getattr(module, attr, None)
            if not inspect.isfunction(func):
                continue

            def wrapper(*args, __func=func, **kwargs):
                if probe.outermost(span):
                    return probe.call(span, __func, *args, **kwargs)
                return __func(*args, **kwargs)

            self._rebind_function(func, wrapper)

    def _hook_validate(self) -> None:
        func = self._lookup("repro.validate.engine", "run_suite")
        if func is None:
            return
        probe = self

        def run_suite(*args, **kwargs):
            report = func(*args, **kwargs)
            probe.validate_pairs += int(report.get("n_pairs", 0))
            return report

        self._rebind_function(func, run_suite)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything measured, as plain JSON data (see :func:`merge`)."""
        return {
            "spans": {name: list(entry) for name, entry in self.agg.items()},
            "scheduled": dict(self.scheduled),
            "cancelled": None if self.cancelled is None else dict(self.cancelled),
            "compares": self.compares,
            "heap": None if self.heap is None else {"pushes": self.heap.pushes, "pops": self.heap.pops, "peak": self.heap.peak},
            "fabric": {"packets": self.fabric_packets, "cells": self.fabric_cells} if self.fabric_hooked else None,
            "invariants_hooked": self.invariants_hooked,
            "injected": self.injected_packets,
            "trace_kinds": dict(self.trace_kinds),
            "validate_pairs": self.validate_pairs,
            "missing": sorted(set(self.missing)),
            "records": [list(r) for r in self.records],
        }


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return out


def merge(snapshots: list[dict]) -> dict:
    """Combine the snapshots of several probed processes into one."""
    total = snapshots[0]
    for snap in snapshots[1:]:
        spans = {k: list(v) for k, v in total["spans"].items()}
        for name, (calls, tot, own) in snap["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += tot
            entry[2] += own
        heap = None
        if total["heap"] is not None and snap["heap"] is not None:
            heap = {
                "pushes": total["heap"]["pushes"] + snap["heap"]["pushes"],
                "pops": total["heap"]["pops"] + snap["heap"]["pops"],
                "peak": max(total["heap"]["peak"], snap["heap"]["peak"]),
            }

        def both(key: str) -> bool:
            return total[key] is not None and snap[key] is not None

        total = {
            "spans": spans,
            "scheduled": _add(total["scheduled"], snap["scheduled"]),
            "cancelled": _add(total["cancelled"], snap["cancelled"]) if both("cancelled") else None,
            "compares": total["compares"] + snap["compares"] if both("compares") else None,
            "heap": heap,
            "fabric": _add(total["fabric"], snap["fabric"]) if both("fabric") else None,
            "invariants_hooked": total["invariants_hooked"] and snap["invariants_hooked"],
            "injected": total["injected"] + snap["injected"],
            "trace_kinds": _add(total["trace_kinds"], snap["trace_kinds"]),
            "validate_pairs": total["validate_pairs"] + snap["validate_pairs"],
            "missing": sorted(set(total["missing"]) | set(snap["missing"])),
            "records": total["records"] + [
                [name, start, end, parent + len(total["records"]) if parent >= 0 else -1]
                for name, start, end, parent in snap["records"]
            ],
        }
    return total

"""In-memory span recorder that wraps eetsim's public names from outside.

Each layer is a public name looked up in the namespace of its caller (for
example ``propagate_lindblad`` as ``eetsim.cli`` sees it, ``rk4_propagate``
as ``eetsim.quantum`` sees it).  Installing a layer replaces that binding with
a wrapper that appends one span ``[layer, parent, start, end]`` per call;
uninstalling restores the original object.  A name the program no longer has
is recorded as absent and its layer reads 0, never as a failure.

A layer's self time is its spans' durations minus the parts covered by their
child spans, so the self times of all layers plus ``cli.self_s`` (pass wall
minus the top-level spans) add up to the pass wall time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (namespace, attribute, layer metric).  The namespace is where the caller
# looks the name up; "module:Class" patches a method on a class.
LAYERS = (
    ("eetsim.cli", "make_chain", "scenarios.build_s"),
    ("eetsim.cli", "load_model", "scenarios.build_s"),
    ("eetsim.cli", "propagate_lindblad", "quantum.lindblad_s"),
    ("eetsim.cli", "propagate_classical_rst", "classical.rst_s"),
    ("eetsim.quantum", "linearize_rhs", "integrate.linearize_s"),
    ("eetsim.classical", "linearize_rhs", "integrate.linearize_s"),
    ("eetsim.quantum", "rk4_propagate", "integrate.rk4_s"),
    ("eetsim.classical", "rk4_propagate", "integrate.rk4_s"),
    ("eetsim.quantum", "DensityMatrix", "model.validate_s"),
    ("eetsim.classical", "DensityMatrix", "model.validate_s"),
    ("eetsim.cli", "run_sse_ensemble", "stochastic.sse_s"),
    ("eetsim.cli", "run_kubo_ensemble", "stochastic.kubo_s"),
    ("eetsim.stochastic", "derive_stream", "stochastic.streams_s"),
    ("eetsim.stochastic:TrajectoryEnsemble", "add_path", "stochastic.accumulate_s"),
    ("eetsim.cli", "series_from_quantum", "timeseries.series_s"),
    ("eetsim.cli", "series_from_classical", "timeseries.series_s"),
    ("eetsim.cli", "series_from_ensemble", "timeseries.series_s"),
    ("eetsim.cli", "write_timeseries", "timeseries.write_s"),
    ("eetsim.cli", "read_timeseries", "timeseries.read_s"),
    ("eetsim.cli", "compare_series", "timeseries.compare_s"),
    ("eetsim.cli", "chain_bessel_populations", "bessel.reference_s"),
    ("eetsim.cli", "rca_check", "model.rca_s"),
)

#: Layers whose call arguments are kept, to compute counts after the pass.
_KEEP_ARGS = {"integrate.rk4_s", "stochastic.sse_s", "stochastic.kubo_s", "timeseries.write_s"}

SELF_TIME_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))


def _resolve(namespace: str):
    module_name, _, class_name = namespace.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Records spans for the layers in :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.calls: list[tuple] = []  # (layer, function, args, kwargs) for _KEEP_ARGS
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self._stack.clear()

    def _wrap_function(self, fn, layer: str):
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = layer in _KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [layer, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if keep:
                    calls.append((layer, fn, args, kwargs))

        return traced

    def _wrap_class(self, cls, layer: str):
        # A subclass keeps isinstance checks against the original class valid.
        traced_init = self._wrap_function(cls.__init__, layer)
        body = {"__init__": traced_init, "__module__": cls.__module__, "__slots__": ()}
        return type(cls.__name__, (cls,), body)

    def install(self) -> None:
        self.absent = []
        for namespace, name, layer in LAYERS:
            owner = _resolve(namespace)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{namespace}.{name}")
                continue
            if isinstance(original, type):
                replacement = self._wrap_class(original, layer)
            else:
                replacement = self._wrap_function(original, layer)
            setattr(owner, name, replacement)
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def summarize(self, wall: float) -> tuple[dict, list[str]]:
        """Self time per layer plus ``cli.self_s``, and any nesting faults."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_level = 0.0
        faults = []
        for i, (layer, parent, start, end) in enumerate(spans):
            duration = end - start
            if parent < 0:
                top_level += duration
                continue
            p_start, p_end = spans[parent][2], spans[parent][3]
            if start < p_start or end > p_end:
                faults.append(f"span {i} ({layer}) leaves its parent {parent}")
            child_time[parent] += duration
        self_times = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        for i, (layer, _, start, end) in enumerate(spans):
            self_times[layer] += (end - start) - child_time[i]
        self_times["cli.self_s"] = wall - top_level
        total = sum(self_times.values())
        if abs(total - wall) > 1e-9 * max(wall, 1.0):
            faults.append(f"self times add up to {total:.9f} s, pass wall is {wall:.9f} s")
        return self_times, faults

    def count(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def inclusive(self, layer: str) -> float:
        return sum(end - start for name, _, start, end in self.spans if name == layer)

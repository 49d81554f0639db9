"""Layer tracing from outside the simulator.

The tracer replaces, for the duration of a `with` block, every function that
one `vlclink` module imported from a sibling module with a wrapper that
records a span.  The wrapper list is read from the module namespaces, so a
function that is renamed, merged or moved between modules is picked up
without an edit here.  A span is labelled by the module that defines the
callee; that module is the layer.  Two functions that `scenario` calls on
itself are wrapped by name as well: `_run_frame` gives one span per simulated
frame and `calibrate` the calibration.

Spans stay in memory until the block ends; every original function is
restored on exit, also when the traced code raises.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from types import ModuleType

import numpy as np

FRAME_FUNCTION = "_run_frame"
CALIBRATE_FUNCTION = "calibrate"
SCENARIO = "scenario"
WRITE_SPAN = "write_csv"   # recorded by the worker around write_*_csv, in layer "metrics"

# Stages are picked by a word in the callee's name, not by a full name, so a
# refactor inside a layer keeps its metrics.
STAGE_WORDS = {
    "framing": (("sync", "sync"), ("mf", "matched_filter"), ("build", "build")),
    "channel": (("apply", "apply"),),
    "modem": (("demap", "demap"),),
    "adapt": (("step", "step"),),
    "numerics": (("rng", "rng"),),
}


def stage_of(layer: str, function: str) -> str:
    for stage, word in STAGE_WORDS.get(layer, ()):
        if word in function:
            return stage
    return ""


def _submodules(package: ModuleType) -> list[ModuleType]:
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]


def discover(package: ModuleType) -> list[tuple[ModuleType, str, str, str]]:
    """(module, attribute, layer, function) for every call site to wrap."""
    prefix = package.__name__ + "."
    sites = []
    for module in _submodules(package):
        own = module.__name__[len(prefix):]
        for attr, value in vars(module).items():
            defined_in = getattr(value, "__module__", None) or ""
            if inspect.isclass(value) or not callable(value) or not defined_in.startswith(prefix):
                continue
            layer = defined_in[len(prefix):]
            if attr in (FRAME_FUNCTION, CALIBRATE_FUNCTION) and layer == SCENARIO:
                sites.append((module, attr, SCENARIO, attr))
            elif layer != own:
                sites.append((module, attr, layer, getattr(value, "__name__", attr)))
    return sites


class _Patcher:
    """Swaps functions in the module namespaces for the length of a `with` block."""

    def __init__(self, package: ModuleType):
        self.package = package
        self._saved: list[tuple[ModuleType, str, object]] = []

    def replacement(self, fn, layer: str, function: str):
        raise NotImplementedError

    def __enter__(self):
        try:
            for module, attr, layer, function in discover(self.package):
                original = vars(module)[attr]
                new = self.replacement(original, layer, function)
                if new is not None:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, new)
            if not any(attr == FRAME_FUNCTION for _, attr, _ in self._saved):
                raise RuntimeError(f"no {SCENARIO}.{FRAME_FUNCTION} to count frames with")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer(_Patcher):
    """Records a span for every cross-module call inside the `with` block.

    Each span is a tuple (layer, function, duration_s, self_s, extra), where
    self time is the duration minus the time covered by child spans, and
    `extra` holds what the counters need from the call's result.
    """

    def __init__(self, package: ModuleType):
        super().__init__(package)
        self.spans: list[tuple] = []
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._stack: list[float] = []

    def replacement(self, fn, layer: str, function: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        stage = stage_of(layer, function)
        is_frame = function == FRAME_FUNCTION
        is_step = layer == "adapt" and stage == "step"
        counts_samples = stage == "apply"

        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                extra = None
                if result is not None:
                    if is_frame:
                        extra = (result.mode, result.bits)
                    elif is_step and args and hasattr(args[0], "pending"):
                        extra = result != args[0].pending
                    elif counts_samples and isinstance(result, np.ndarray):
                        extra = result.size
                spans.append((layer, function, duration, duration - child, extra))

        traced.__wrapped__ = fn
        return traced

    def run(self, fn, *args):
        """Call fn(*args) as the root span; its self time is the loop time."""
        if self._stack:
            raise RuntimeError("root span must not be nested")
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            duration = time.perf_counter() - t0
            self.root_s = duration
            self.root_self_s = duration - self._stack.pop()

    def span(self, layer: str, function: str, fn, *args):
        """Call fn(*args) inside a span recorded by the caller, not a wrapper."""
        return self.replacement(fn, layer, function)(*args)


class FrameCounter(_Patcher):
    """Counts frames without reading a clock: the untraced sweep's only hook."""

    def __init__(self, package: ModuleType):
        super().__init__(package)
        self.frames = 0

    def replacement(self, fn, layer: str, function: str):
        if function != FRAME_FUNCTION:
            return None

        def counted(*args, **kwargs):
            self.frames += 1
            return fn(*args, **kwargs)

        return counted


def layer_metrics(tracer: Tracer, encode_mode, measured_bits: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-function detail from a finished trace.

    `encode_mode` maps a frame's mode to its 3-bit code; `measured_bits` is
    the payload bit count the sweep reported, for `scenario.measured_frac`.
    """
    self_s: dict[str, float] = defaultdict(float)
    stage_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    stage_calls: Counter = Counter()
    detail: dict[str, list] = {}
    frame_ms: list[float] = []
    modes: Counter = Counter()
    frame_bits = 0
    noise_samples = 0
    mode_changes = 0
    calibrate_s = 0.0
    write_s = 0.0
    for layer, function, duration, own, extra in tracer.spans:
        self_s[layer] += own
        calls[layer] += 1
        stage = stage_of(layer, function)
        if stage:
            stage_s[layer, stage] += own
            stage_calls[layer, stage] += 1
        row = detail.setdefault(f"{layer}.{function}", [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration * 1e3
        row[2] += own * 1e3
        if function == FRAME_FUNCTION:
            frame_ms.append(duration * 1e3)
            if extra is not None:
                modes[encode_mode(extra[0])] += 1
                frame_bits += extra[1]
        elif function == CALIBRATE_FUNCTION and layer == SCENARIO:
            calibrate_s += duration
        elif layer == "metrics" and function == WRITE_SPAN:
            write_s += duration
        elif stage == "apply" and extra is not None:
            noise_samples += extra
        elif stage == "step" and extra:
            mode_changes += 1

    frames = len(frame_ms)
    m = {
        "framing.self_ms_per_frame": self_s["framing"] * 1e3 / frames,
        "framing.sync_ms_per_frame": stage_s["framing", "sync"] * 1e3 / frames,
        "framing.mf_ms_per_frame": stage_s["framing", "mf"] * 1e3 / frames,
        "framing.build_ms_per_frame": stage_s["framing", "build"] * 1e3 / frames,
        "framing.calls_per_frame": calls["framing"] / frames,
        "channel.self_ms_per_frame": self_s["channel"] * 1e3 / frames,
        "channel.apply_calls_per_frame": stage_calls["channel", "apply"] / frames,
        "channel.noise_samples_per_frame": noise_samples / frames,
        "modem.self_ms_per_frame": self_s["modem"] * 1e3 / frames,
        "modem.demap_ms_per_frame": stage_s["modem", "demap"] * 1e3 / frames,
        "receiver.self_ms_per_frame": self_s["receiver"] * 1e3 / frames,
        "receiver.calls_per_frame": calls["receiver"] / frames,
        "adapt.self_ms_per_frame": self_s["adapt"] * 1e3 / frames,
        "adapt.controller_steps": stage_calls["adapt", "step"],
        "adapt.mode_changes": mode_changes,
        "numerics.self_ms_per_frame": self_s["numerics"] * 1e3 / frames,
        "numerics.rng_calls_per_frame": stage_calls["numerics", "rng"] / frames,
        "metrics.write_ms": write_s * 1e3,
        "scenario.frames": frames,
        "scenario.frame_ms_p50": statistics.median(frame_ms),
        "scenario.frame_ms_p90": statistics.quantiles(frame_ms, n=10)[8] if frames > 1 else frame_ms[0],
        "scenario.self_ms_per_frame": self_s[SCENARIO] * 1e3 / frames,
        "scenario.loop_self_ms": tracer.root_self_s * 1e3,
        "scenario.measured_frac": measured_bits / frame_bits if frame_bits else 0.0,
        "scenario.calibrate_ms": calibrate_s * 1e3,
    }
    for code in range(8):
        m[f"scenario.frames_mode{code}"] = modes[code]
    layer_self_ms = {layer: s * 1e3 for layer, s in self_s.items()}
    extra = {
        "root_ms": tracer.root_s * 1e3,
        "layer_self_ms": layer_self_ms,
        "functions": {k: {"calls": c, "ms": t, "self_ms": s} for k, (c, t, s) in sorted(detail.items())},
    }
    return m, extra

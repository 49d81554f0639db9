"""What the benchmark runs and what it reports: workloads and metric tables.

`BENCHMARK.json` at the repository root is generated from this file
(`python3 bench/run.py --all` rewrites it, and a self-test compares them),
so the names, units and bounds the benchmark prints cannot drift from the
ones it declares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Long runs average over the host's slow phases; with two listed workloads,
# 4 + 22 runs per workload of about 58 s each still end within 3420 s.
RUN_SECONDS = 55


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str              # "blockage" or "ber": which public sweep the worker drives
    config_text: str        # config lines on top of the defaults; base_seed is appended
    why: str
    seed1_sha256: str       # CSV digest at seed 1, recorded at the seed commit
    listed: bool = True     # declared in BENCHMARK.json; an unlisted one runs by name or with --all


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blockage-default",
            sweep="blockage",
            config_text="",
            why=(
                "the paper's adaptive-vs-fixed obstacle sweep at the default config; "
                "DSP kernels dominate, and it runs the controller with three runs sharing noise seeds"
            ),
            seed1_sha256="c51c15554cec85360529f9179e1f2d4b1c84f45722c3f7ea1bf57ba1c5f2c890",
        ),
        Workload(
            name="ber-default",
            sweep="ber",
            config_text="",
            why=(
                "eight fixed-mode BER curves: the same frame chain with no controller and no shared noise, "
                "all four demappers, and points of very uneven cost"
            ),
            seed1_sha256="a795bcdc1160856957a712eeb947fa8426d83f3e16077d38a7ca27b0d7ab538b",
        ),
        Workload(
            name="blockage-short",
            sweep="blockage",
            config_text=(
                "frame.payload_len = 256\n"
                "sweep.positions.step = 1\n"
                "sweep.frames_per_position = 8\n"
                "sweep.payload_bits = 4096\n"
            ),
            why=(
                "short frames on a 1 cm grid with fast feedback, so fixed per-frame and per-position "
                "costs weigh about three times more than at the default"
            ),
            seed1_sha256="f79310691e086405c5b6253f4b6449e4f3c1d41dd7fd0824281d97ff6fd0310c",
            listed=False,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end only: tolerated worsening, as a share of the median


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("frames_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("framing.self_ms_per_frame", "ms", "lower"),
    Metric("framing.sync_ms_per_frame", "ms", "lower"),
    Metric("framing.mf_ms_per_frame", "ms", "lower"),
    Metric("framing.build_ms_per_frame", "ms", "lower"),
    Metric("framing.calls_per_frame", "count", "lower"),
    Metric("channel.self_ms_per_frame", "ms", "lower"),
    Metric("channel.apply_calls_per_frame", "count", "lower"),
    Metric("channel.noise_samples_per_frame", "count", "lower"),
    Metric("modem.self_ms_per_frame", "ms", "lower"),
    Metric("modem.demap_ms_per_frame", "ms", "lower"),
    Metric("receiver.self_ms_per_frame", "ms", "lower"),
    Metric("receiver.calls_per_frame", "count", "lower"),
    Metric("adapt.self_ms_per_frame", "ms", "lower"),
    Metric("adapt.controller_steps", "count", "lower"),
    Metric("adapt.mode_changes", "count", "lower"),
    Metric("numerics.self_ms_per_frame", "ms", "lower"),
    Metric("numerics.rng_calls_per_frame", "count", "lower"),
    Metric("metrics.write_ms", "ms", "lower"),
    Metric("scenario.frames", "count", "lower"),
    Metric("scenario.frame_ms_p50", "ms", "lower"),
    Metric("scenario.frame_ms_p90", "ms", "lower"),
    Metric("scenario.self_ms_per_frame", "ms", "lower"),
    Metric("scenario.loop_self_ms", "ms", "lower"),
    Metric("scenario.measured_frac", "ratio", "higher"),
    Metric("scenario.calibrate_ms", "ms", "lower"),
    *(Metric(f"scenario.frames_mode{code}", "count", "lower") for code in range(8)),
    Metric("trace.overhead_frac", "ratio", "lower"),
)

# Layers are the vlclink modules that define the traced callees.
LAYERS = ("framing", "channel", "modem", "receiver", "adapt", "numerics", "metrics", "scenario")


def benchmark_json_text() -> str:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.listed],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent

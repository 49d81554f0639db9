"""Self-tests of the benchmark: tracing, the correctness gate, the spec.

    python3 -m pytest bench/test_bench.py -q

They run small configs in-process, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import gate
import worker
from spans import FRAME_FUNCTION, Tracer
from spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, Workload, benchmark_json_text, repo_root

SMALL = {
    "blockage": (
        "frame.payload_len = 256\n"
        "sweep.positions.start = -5\n"
        "sweep.positions.stop = 5\n"
        "sweep.frames_per_position = 3\n"
        "sweep.payload_bits = 1000\n"
    ),
    "ber": (
        "frame.payload_len = 256\n"
        "bersweep.snr_start = 20\n"
        "bersweep.snr_stop = 22\n"
        "bersweep.max_bits = 4000\n"
    ),
}


@pytest.fixture(scope="module")
def vlclink():
    return worker.import_vlclink()


def small_workload(sweep: str) -> Workload:
    return Workload(name=f"small-{sweep}", sweep=sweep, config_text=SMALL[sweep], why="", seed1_sha256="")


def small_config(vlclink, sweep: str, seed: int = 2):
    return vlclink.scenario.parse_config(worker.config_text(small_workload(sweep), seed))


def namespace_snapshot(vlclink) -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.startswith("vlclink.")
        for attr, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("sweep", ["blockage", "ber"])
def test_traced_and_untraced_csv_identical(vlclink, sweep):
    cfg = small_config(vlclink, sweep)
    plain, frames = worker.counted_sweep(vlclink, sweep, cfg)
    traced, traced_frames, metrics, _, _ = worker.traced_sweep(vlclink, sweep, cfg)
    assert traced == plain
    assert traced_frames == frames == metrics["scenario.frames"] > 0


def test_wrapped_functions_are_restored(vlclink):
    before = namespace_snapshot(vlclink)
    original = vlclink.scenario._run_frame
    cfg = small_config(vlclink, "blockage")
    with pytest.raises(ZeroDivisionError):
        with Tracer(vlclink) as tracer:
            assert vlclink.scenario._run_frame is not original
            wrapped = [k for k, v in namespace_snapshot(vlclink).items() if v is not before[k]]
            assert ("vlclink.scenario", FRAME_FUNCTION) in wrapped
            assert ("vlclink.scenario", "apply_channel") in wrapped
            tracer.run(worker.run_sweep, vlclink.scenario, "blockage", cfg)
            1 / 0
    assert namespace_snapshot(vlclink) == before
    assert tracer.spans


def test_wrapper_list_comes_from_sibling_imports(vlclink):
    from spans import discover

    sites = {(m.__name__, attr): layer for m, attr, layer, _ in discover(vlclink)}
    for (module, attr), layer in sites.items():
        defined_in = getattr(sys.modules[module], attr).__module__
        assert defined_in == f"vlclink.{layer}"
        assert defined_in != module or attr in (FRAME_FUNCTION, "calibrate")
    assert sites[("vlclink.adapt", "stream_snrs")] == "receiver"


@pytest.mark.parametrize("sweep", ["blockage", "ber"])
def test_self_times_sum_to_traced_run_time(vlclink, sweep):
    cfg = small_config(vlclink, sweep)
    _, _, metrics, detail, _ = worker.traced_sweep(vlclink, sweep, cfg)
    total = sum(detail["layer_self_ms"].values()) + metrics["scenario.loop_self_ms"]
    assert math.isclose(total, detail["root_ms"], rel_tol=1e-9, abs_tol=1e-6)
    assert set(detail["layer_self_ms"]) <= set(LAYERS)


@pytest.mark.parametrize("sweep, row, field", [("blockage", 3, 4), ("ber", 1, 6)])
def test_gate_accepts_output_and_rejects_a_changed_field(vlclink, sweep, row, field):
    """Field 4 of a blockage row is eff_bshz; field 6 of a ber row is errors."""
    workload = small_workload(sweep)
    csv, _ = worker.counted_sweep(vlclink, sweep, small_config(vlclink, sweep))
    assert gate.check(workload, 2, csv) == []
    lines = csv.split("\n")
    fields = lines[row].split(",")
    fields[field] = str(int(float(fields[field])) + 1)
    lines[row] = ",".join(fields)
    assert gate.check(workload, 2, "\n".join(lines))


def test_gate_checks_seed1_digest(vlclink):
    csv, _ = worker.counted_sweep(vlclink, "blockage", small_config(vlclink, "blockage", seed=1))
    recorded = replace(small_workload("blockage"), seed1_sha256=gate.sha256(csv))
    assert gate.check(recorded, 1, csv) == []
    assert gate.check(recorded, 2, csv) == []
    other = replace(recorded, seed1_sha256=gate.sha256(csv + "\n"))
    assert any("sha256" in p for p in gate.check(other, 1, csv))


def test_benchmark_json_matches_spec():
    assert (repo_root() / "BENCHMARK.json").read_text() == benchmark_json_text()


def test_doc_names_every_metric_and_workload():
    doc = (repo_root() / "bench" / "README.md").read_text()
    for name in [m.name for m in END_TO_END + PER_LAYER if "frames_mode" not in m.name] + list(WORKLOADS):
        assert f"`{name}`" in doc, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(repo_root() / "BENCHMARK.json", tmp_path)
    shutil.copytree(repo_root() / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blockage-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)

"""vlclink benchmark: time the sweeps end to end, or trace them layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

--trace 0 spawns set-up probes and then fresh workers, one sweep each, for
about S seconds, and reports the end-to-end metrics: sweep time and
throughput over all the run's sweeps, set-up time and memory as medians.
--trace 1 alternates untraced and traced sweeps and reports the per-layer
metrics.
Every sweep's CSV goes through the correctness gate.  The last line of
standard output is one JSON object: correct, attempted and failed frames,
and the metrics.  --all runs every workload both ways, prints every metric,
writes a run record to bench/out/record.json and rewrites BENCHMARK.json
from bench/spec.py.

Workers run one at a time with BLAS pinned to one thread, so the figures
measure the simulator rather than the scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json_text, repo_root

ROOT = repo_root()
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
DEADLINE_S = 170.0   # a run must end within 180 s
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


class CannotRun(Exception):
    """The program is missing or no sweep finished: exit without a result."""


def stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion; time it from the moment of spawning."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    t_spawn = stamp()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "frames": 0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "frames": 0}
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["t_setup"] - t_spawn
    if "t_done" in rep:
        rep["wall_s"] = rep["t_done"] - t_spawn
    return rep


def judge(workload, seed: int, reps: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed frames over the sweeps, and the problems found."""
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        frames = max(rep.get("frames", 0), 1)
        attempted += frames
        found = [rep["error"]] if "error" in rep else gate.check(workload, seed, rep["csv"])
        if found:
            failed += frames
            problems += found
    csvs = {rep["csv"] for rep in reps if "csv" in rep}
    if len(csvs) > 1:
        problems.append("sweeps of the same seed produced different CSVs")
        failed = attempted
    return attempted, failed, problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: sweeps for about `seconds`, gated and reduced to medians."""
    workload = WORKLOADS[name]
    t0 = stamp()
    deadline = t0 + DEADLINE_S
    load_start = os.getloadavg()
    setups: list[float] = []
    reps: list[dict] = []
    traced: list[dict] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(name, seed, "setup", deadline)
            if "error" in probe:
                raise CannotRun(probe["error"])
            setups.append(probe["setup_s"])
    last = 0.0
    # End as near `seconds` as whole sweeps allow: start another one when its
    # expected end lies nearer to it than stopping now would.
    while not reps or stamp() - t0 + last / 2 < seconds:
        t_rep = stamp()
        reps.append(spawn(name, seed, "run", deadline))
        if trace:
            traced.append(spawn(name, seed, "trace", deadline))
        last = stamp() - t_rep
        if any("error" in r for r in reps + traced):
            break
    attempted, failed, problems = judge(workload, seed, reps + traced)
    timed = [r for r in reps if "wall_s" in r]
    if not timed or (trace and not any("layers" in r for r in traced)):
        raise CannotRun("; ".join(problems) or "no sweep completed")

    if trace:
        metrics, count_problems = _layer_medians([r for r in traced if "layers" in r])
        problems += count_problems
        untraced_wall = statistics.median(r["wall_s"] for r in timed)
        traced_wall = statistics.median(r["wall_s"] for r in traced if "wall_s" in r)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        if count_problems:
            failed = attempted
    else:
        setups += [r["setup_s"] for r in timed]
        metrics = {
            # The host's slow phases outlast a sweep, so a run's sweeps are
            # not independent samples: their mean is steadier than their median.
            "wall_s": statistics.fmean(r["wall_s"] for r in timed),
            "frames_per_s": sum(r["frames"] for r in timed) / sum(r["t_done"] - r["t_setup"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
    first = timed[0]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sweeps": len(timed),
        "traced_sweeps": len(traced),
        "setup_samples": len(setups),
        "wall_s_samples": [round(r["wall_s"], 4) for r in timed],
        "frames": first["frames"],
        "python": first["python"],
        "numpy": first["numpy"],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "problems": problems,
    }
    if traced and "detail" in traced[-1]:
        record["trace_detail"] = traced[-1]["detail"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def _layer_medians(traced: list[dict]) -> tuple[dict, list[str]]:
    """Timings as medians over traced sweeps; counts must repeat exactly."""
    metrics = {}
    problems = []
    for m in PER_LAYER:
        if m.name == "trace.overhead_frac":
            continue
        values = [r["layers"][m.name] for r in traced]
        if m.unit == "ms":
            metrics[m.name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"{m.name} differs between traced sweeps: {values}")
            metrics[m.name] = values[0]
    return metrics, problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(result: dict) -> str:
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_table(name: str, result: dict) -> None:
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:g}")
    for key, value in result["metrics"].items():
        print(f"{name:18s} {key:34s} {value:14.6g} {UNITS[key]}")
    for problem in result["record"]["problems"]:
        print(f"{name:18s} PROBLEM {problem}")


def check_program() -> None:
    if not (ROOT / "src" / "vlclink" / "__init__.py").is_file():
        raise CannotRun(f"no src/vlclink under {ROOT}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vlclink benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    # On SIGTERM, subprocess.run kills and reaps the running worker as the exit unwinds.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.all and args.workload is None:
        parser.error("--workload is required without --all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        check_program()
        if not args.all:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print_table(args.workload, result)
            print("# record " + json.dumps({k: v for k, v in result["record"].items() if k != "trace_detail"}))
            print(result_line(result))
            return 0
        records = []
        for name in WORKLOADS:
            for trace in (False, True):
                result = measure(name, args.seed, args.seconds, trace)
                print_table(name, result)
                records.append({**result["record"], "metrics": result["metrics"],
                                "correct": result["correct"], "attempted": result["attempted"],
                                "failed": result["failed"]})
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / "record.json").write_text(json.dumps(records, indent=2) + "\n")
    (ROOT / "BENCHMARK.json").write_text(benchmark_json_text())
    print(f"# wrote {OUT / 'record.json'} and {ROOT / 'BENCHMARK.json'}")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

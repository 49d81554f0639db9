"""One sweep of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode run|trace|setup

Imports `vlclink` from `src/` of the checkout, parses the workload's config
with `base_seed = N`, then (unless --mode setup) drives the same public
functions the CLI calls and renders the CSV.  Prints one JSON line with
CLOCK_MONOTONIC stamps taken when set-up ended and when the CSV text was
complete, so the parent can time both from the moment it spawned the
process.  In --mode trace the sweep runs under the layer tracer, the
per-layer metrics go into the JSON line and the raw spans into
bench/out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from pathlib import Path

from spec import WORKLOADS, Workload, repo_root

SRC = repo_root() / "src"
OUT = Path(__file__).resolve().parent / "out"


def stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_vlclink():
    """Import the package from src/ of this checkout, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vlclink

    if not Path(vlclink.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"vlclink imported from {vlclink.__file__}, not from {SRC}")
    return vlclink


def config_text(workload: Workload, seed: int) -> str:
    return workload.config_text + f"base_seed = {seed}\n"


def run_sweep(scenario, sweep: str, cfg, write=None) -> tuple[str, int]:
    """CSV text of one sweep and the payload bits its report counts.

    `write(fn, result, fh)` runs the CSV writer; the tracer passes one that
    records a span around it.
    """
    if sweep == "blockage":
        result = scenario.run_blockage_sweep(cfg)
        writer = scenario.write_blockage_csv
        measured = sum(r.bits_sent for r in result.adaptive + result.fixed_sm64 + result.fixed_sd64)
    else:
        result = scenario.run_ber_sweep(cfg)
        writer = scenario.write_ber_csv
        measured = sum(r.bits for r in result)
    buf = io.StringIO()
    if write is None:
        writer(result, buf)
    else:
        write(writer, result, buf)
    return buf.getvalue(), measured


def traced_sweep(vlclink, sweep: str, cfg):
    """(csv, frames, per-layer metrics, detail, spans) of one traced sweep."""
    from spans import WRITE_SPAN, Tracer, layer_metrics

    with Tracer(vlclink) as tracer:
        csv, measured = tracer.run(
            run_sweep, vlclink.scenario, sweep, cfg,
            lambda fn, *args: tracer.span("metrics", WRITE_SPAN, fn, *args),
        )
    metrics, detail = layer_metrics(tracer, vlclink.encode_mode, measured)
    return csv, metrics["scenario.frames"], metrics, detail, tracer.spans


def counted_sweep(vlclink, sweep: str, cfg) -> tuple[str, int]:
    from spans import FrameCounter

    with FrameCounter(vlclink) as counter:
        try:
            csv, _ = run_sweep(vlclink.scenario, sweep, cfg)
        except Exception as exc:
            exc.frames = counter.frames
            raise
    return csv, counter.frames


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layer\tfunction\tduration_us\tself_us\n")
        for layer, function, duration, own, _ in spans:
            fh.write(f"{layer}\t{function}\t{duration * 1e6:.1f}\t{own * 1e6:.1f}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), default="run")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    vlclink = import_vlclink()
    cfg = vlclink.scenario.parse_config(config_text(workload, args.seed))
    out: dict = {"t_setup": stamp()}
    if args.mode != "setup":
        try:
            if args.mode == "trace":
                csv, frames, metrics, detail, spans = traced_sweep(vlclink, workload.sweep, cfg)
                out["t_done"] = stamp()
                out["layers"] = metrics
                out["detail"] = detail
                write_spans(OUT / f"spans-{workload.name}.tsv", spans)
            else:
                csv, frames = counted_sweep(vlclink, workload.sweep, cfg)
                out["t_done"] = stamp()
        except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed sweep
            out["error"] = f"{type(exc).__name__}: {exc}"
            out["frames"] = getattr(exc, "frames", 0)
        else:
            out["csv"] = csv
            out["frames"] = frames
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["python"] = sys.version.split()[0]
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

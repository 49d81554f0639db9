"""Command-line front end.

    vlclink ber-sweep      --config PATH --seed N --out PATH --jobs N
    vlclink blockage-sweep --config PATH --seed N --out PATH --jobs N
    vlclink calibrate      --config PATH --seed N --out PATH

Exit codes: 0 on success, 2 on a config error, 3 on a runtime error.
Without --config all defaults apply; without --out results go to stdout.
An --out path that is a directory, or whose directory is missing or not
writable, is a config error found before any work; the file is written only
after a successful run.
--jobs N runs the sweep on the calling thread plus N - 1 helper threads
(default: N is the usable CPUs); the output is the same for every value.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import replace

from .errors import ParseError, ValidationError
from .scenario import (
    ScenarioConfig,
    calibrate,
    load_config,
    run_ber_sweep,
    run_blockage_sweep,
    write_ber_csv,
    write_blockage_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vlclink", description="Adaptive 2x2 MIMO VLC link simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ber-sweep", "Monte-Carlo BER vs theory over an SNR grid"),
        ("blockage-sweep", "obstacle sweep with adaptive and fixed baselines"),
        ("calibrate", "transmit SNR needed for SM-256 on the clear channel"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="key=value config file")
        cmd.add_argument("--seed", type=int, metavar="N", help="override base_seed")
        cmd.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if name != "calibrate":
            cmd.add_argument(
                "--jobs",
                type=int,
                metavar="N",
                help="threads that run the sweep: the calling thread plus N - 1 helpers, "
                "at most the usable CPUs and the sweep's tasks (default: usable CPUs)",
            )
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        raise ValidationError("--jobs", "must be >= 1")
    if args.out not in (None, "-"):
        folder = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out):
            raise ValidationError("--out", f"{args.out!r} is a directory")
        if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise ValidationError("--out", f"{folder!r} is not a writable directory")
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        buf = io.StringIO()
        if args.command == "ber-sweep":
            write_ber_csv(run_ber_sweep(cfg, jobs=args.jobs), buf)
        elif args.command == "blockage-sweep":
            write_blockage_csv(run_blockage_sweep(cfg, jobs=args.jobs), buf)
        else:
            p_total = calibrate(cfg)
            buf.write(f"p_total_linear={p_total:.6f}\n")
            buf.write(f"p_total_db={10.0 * math.log10(p_total):.6f}\n")
        _emit(buf.getvalue(), args.out)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

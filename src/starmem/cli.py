"""Command-line entry points: generate streams, run the memory engine, and
evaluate compression fidelity.

Exit codes: 0 success, 2 bad input (parse/validation), 3 internal invariant
breach (a bug detector, never an expected path).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .features import ConfigError, MemoryConfig
from .fileio import (
    FormatError,
    load_event_script,
    load_run_config,
    read_snapshot,
    read_stream_file,
    window_from_run_options,
    write_snapshot,
    write_stream_file,
)
from .memory import EmptyMemoryError, InvariantError
from .runtime import MemoryHandle, RuntimeMetrics, run_frame_handler, query_snapshot
from .synth import EmptyWindowError, apply_window, evaluate_compression, generate_stream

log = logging.getLogger("starmem")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _setup_logging() -> None:
    level = os.environ.get("STARMEM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_input_stream(input_path: Path, seed: int | None):
    """A stream file or an event script; scripts also yield labels."""
    if input_path.suffix == ".json":
        script = load_event_script(input_path, seed_override=seed)
        return generate_stream(script), script
    return read_stream_file(input_path), None


def cmd_gen(args) -> int:
    script = load_event_script(args.script, seed_override=args.seed)
    source = generate_stream(script)
    n = write_stream_file(args.output, source)
    print(f"wrote {n} frames to {args.output}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.config:
        config, run_opts = load_run_config(args.config)
    else:
        config, run_opts = MemoryConfig(), {}
    # Command-line flags override the config file.
    if args.mode:
        run_opts["mode"] = args.mode
    if args.breakpoint is not None:
        run_opts["breakpoint_s"] = args.breakpoint
    if args.half_width is not None:
        run_opts["half_width_s"] = args.half_width
    if args.realtime:
        run_opts["realtime"] = True
    seed = args.seed if args.seed is not None else run_opts.get("seed")

    source, script = _load_input_stream(Path(args.input), seed)
    source = apply_window(source, window_from_run_options(run_opts))

    if script is not None and script.dim != config.dim:
        config = replace(config, dim=script.dim)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    handle = MemoryHandle(config)
    metrics = run_frame_handler(source, handle, realtime=bool(run_opts.get("realtime")))
    snap = query_snapshot(handle)
    write_snapshot(out / "snapshot.bin", snap)

    with open(out / "tokens_per_epoch.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "tokens"])
        for i, t in enumerate(metrics.tokens_per_epoch, start=1):
            w.writerow([i, t])
    _write_metrics(out, metrics)

    print(f"processed {metrics.epochs_completed} frames; "
          f"final snapshot has {snap.token_count} tokens")
    return EXIT_OK


def _write_metrics(out: Path, metrics: RuntimeMetrics) -> None:
    with open(out / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "write_latency_s", "tokens"])
        for i, (lat, tok) in enumerate(
            zip(metrics.write_latencies_s, metrics.tokens_per_epoch), start=1
        ):
            w.writerow([i, f"{lat:.6f}", tok])
        w.writerow([])
        w.writerow(["nonconverged_epochs", metrics.nonconvergence_count])
        w.writerow(["median_write_latency_s", f"{metrics.median_write_latency_s():.6f}"])


def cmd_eval(args) -> int:
    snap = read_snapshot(args.snapshot)
    script = load_event_script(args.script)
    report = evaluate_compression(snap, script, script.labels())
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="starmem",
        description="Streaming hierarchical token-memory engine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a binary feature stream from a script")
    g.add_argument("script", help="event script JSON path")
    g.add_argument("output", help="output stream file path")
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run a stream through the memory engine")
    r.add_argument("--config", default=None, help="run config JSON path")
    r.add_argument("--input", required=True, help="stream file or script JSON")
    r.add_argument("--output", required=True, help="output directory")
    r.add_argument("--mode", choices=["global", "breakpoint"], default=None)
    r.add_argument("--breakpoint", type=float, default=None, metavar="S")
    r.add_argument("--half-width", type=float, default=None, metavar="S")
    r.add_argument("--realtime", action="store_true")
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="score a snapshot against its script")
    e.add_argument("snapshot", help="snapshot binary path")
    e.add_argument("script", help="event script JSON path")
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ConfigError, EmptyWindowError, EmptyMemoryError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

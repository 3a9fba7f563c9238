"""Print sha256 digests of the CLI's outputs on the shipped configs.

For each of configs/{small,default,breakpoint}.json, runs `starmem run` on
configs/three_events.json with --seed 3 and then `starmem eval` on the
snapshot it wrote, in a temporary directory, through starmem.cli.main. Prints
one line per output: the sha256 of snapshot.bin, snapshot.bin.json,
tokens_per_epoch.csv, run's stdout and eval's stdout. Run it on two trees and
diff the two listings to see which CLI outputs a change moves.

Usage: python3 tools/cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starmem.cli import main  # noqa: E402

CONFIGS = ("small", "default", "breakpoint")
SCRIPT = ROOT / "configs" / "three_events.json"
FILES = ("snapshot.bin", "snapshot.bin.json", "tokens_per_epoch.csv")


def _stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"starmem {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def digests() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            out = Path(tmp) / name
            run_out = _stdout_of([
                "run", "--config", str(ROOT / "configs" / f"{name}.json"),
                "--input", str(SCRIPT), "--seed", "3", "--output", str(out),
            ])
            eval_out = _stdout_of(["eval", str(out / "snapshot.bin"), str(SCRIPT)])
            outputs = [(f, (out / f).read_bytes()) for f in FILES]
            outputs += [("run-stdout", run_out), ("eval-stdout", eval_out)]
            for label, data in outputs:
                lines.append(f"{name:<10} {label:<20} {hashlib.sha256(data).hexdigest()}")
    return lines


if __name__ == "__main__":
    print("\n".join(digests()))

"""Write the CLI reports of one checkout for a byte-for-byte comparison.

    python3 tools/cli_reports.py DIR [--seed N]

runs `analyze`, `reduce-reach`, `reduce-obs` and `minimize` on every
catalog system, and `compare SYS-LIN1 SYS-CUBE`, with the package under
this checkout's `src/`, each in its own process. Each report goes to
DIR/<command>-<system>.json without its `elapsed_seconds` line, the one
field that changes from run to run. Run it in two checkouts with the same
seed; `diff -r DIR1 DIR2` then lists every report that differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("analyze", "reduce-reach", "reduce-obs", "minimize")
COMPARE = ("SYS-LIN1", "SYS-CUBE")


def catalog_names() -> list[str]:
    sys.path.insert(0, str(SRC))
    from nash_realize import catalog
    return catalog.names()


def report(args: list[str], seed: int) -> str:
    """The JSON report of `nash-realize ARGS --seed SEED`, without its
    elapsed_seconds line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nash_realize.cli", *args, "--seed",
         str(seed)], capture_output=True, text=True, env=env, check=False)
    if not proc.stdout.startswith("{"):
        raise RuntimeError(f"{' '.join(args)} wrote no report:\n"
                           f"{proc.stderr}")
    return "".join(line for line in proc.stdout.splitlines(keepends=True)
                   if '"elapsed_seconds":' not in line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir", type=Path, help="directory for the reports")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    runs = [[cmd, name] for cmd in COMMANDS for name in catalog_names()]
    runs.append(["compare", *COMPARE])
    for run in runs:
        path = args.dir / ("-".join(run) + ".json")
        path.write_text(report(run, args.seed), encoding="utf-8")
        print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the CLI reports of one checkout for a byte-for-byte comparison.

    python3 tools/cli_reports.py DIR [--seed N] [--against OTHER_DIR]

runs `simulate` with the fixed word SIMULATE_WORD, `analyze`,
`reduce-reach`, `reduce-obs` and `minimize` on every catalog system,
`compare SYS-LIN1 SYS-CUBE` and `acceptance` (A1-A8 in one process), with
the package under this checkout's `src/`, each in its own process. Each
report goes to DIR/<command>-<system>.json (DIR/acceptance.json) without
its `elapsed_seconds` lines, the one field that changes from run to run.
Run it in two checkouts with the same seed; `diff -r DIR1 DIR2` then
lists every report that differs.

With `--against OTHER_DIR`, the reports of another checkout written the
same way, it then prints every JSON leaf that differs, as
`report: path: old -> new` with OTHER_DIR's value first. A leaf whose
key is one of the answers (`verdict`, `dimension`, `estimated_trdeg`,
`passed`, `reachable`, `observable`) is flagged with `!`, and the exit
code is 1 when any is, or when a report is missing on either side. An
acceptance row's `passed` also reads its time limit, so a row that moves
only by time is flagged too. A last line sums the moved leaves up: how
many, how many of them are floats with the largest relative change
among those and its path, and how many are not (answers, labels,
indices and counts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("analyze", "reduce-reach", "reduce-obs", "minimize")
COMPARE = ("SYS-LIN1", "SYS-CUBE")
# every catalog system has the letters a0 and a1
SIMULATE_WORD = '[["a0",0.2],["a1",-0.1]]'
ANSWERS = frozenset(("verdict", "dimension", "estimated_trdeg", "passed",
                     "reachable", "observable"))
_MISSING = "<missing>"


def catalog_names() -> list[str]:
    sys.path.insert(0, str(SRC))
    from nash_realize import catalog
    return catalog.names()


def report(args: list[str], seed: int) -> str:
    """The JSON report of `nash-realize ARGS --seed SEED`, without its
    elapsed_seconds lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nash_realize.cli", *args, "--seed",
         str(seed)], capture_output=True, text=True, env=env, check=False)
    if not proc.stdout.startswith("{"):
        raise RuntimeError(f"{' '.join(args)} wrote no report:\n"
                           f"{proc.stderr}")
    return "".join(line for line in proc.stdout.splitlines(keepends=True)
                   if '"elapsed_seconds":' not in line)


def leaf_diffs(old, new, path="", key=None):
    """(path, old, new, key) for every leaf where two JSON values differ;
    key is the nearest dict key above the leaf. A leaf present on one side
    only reads <missing> on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            yield from leaf_diffs(old.get(k, _MISSING), new.get(k, _MISSING),
                                  f"{path}.{k}" if path else k, k)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from leaf_diffs(old[i] if i < len(old) else _MISSING,
                                  new[i] if i < len(new) else _MISSING,
                                  f"{path}[{i}]", key)
    elif old != new or type(old) is not type(new):
        yield path, old, new, key


def _relative_change(a: float, b: float) -> float:
    """|b - a| / max(|a|, |b|); inf where that is not a number (a nan or
    infinite leaf)."""
    change = abs(b - a) / max(abs(a), abs(b))
    return math.inf if math.isnan(change) else change


def summary(moved: list[tuple[str, str, object, object]]) -> str:
    """One line over the moved leaves (report, path, old, new): how many,
    how many numeric with the largest relative change |new - old| /
    max(|old|, |new|) and where, and how many not numeric. Numeric means
    a float on both sides; an integer leaf is an index or a count, whose
    relative change means nothing, so it counts as not numeric."""
    numeric = [(_relative_change(a, b), f"{name}: {path}")
               for name, path, a, b in moved
               if isinstance(a, float) and isinstance(b, float)]
    line = f"{len(moved)} leaves moved: {len(numeric)} numeric"
    if numeric:
        change, where = max(numeric)
        line += f" (largest relative change {change:.2g}, {where})"
    return line + f", {len(moved) - len(numeric)} not numeric"


def compare_dirs(old_dir: Path, new_dir: Path) -> int:
    """Print the leaves that move from old_dir's reports to new_dir's,
    then summary() of them; 1 if an answer moves or a report is missing,
    else 0."""
    status = 0
    moved = []
    names = sorted({p.name for p in old_dir.glob("*.json")}
                   | {p.name for p in new_dir.glob("*.json")})
    for name in names:
        sides = [d / name for d in (old_dir, new_dir)]
        if not all(p.exists() for p in sides):
            print(f"! {name}: only in {[p for p in sides if p.exists()][0]}")
            status = 1
            continue
        old, new = (json.loads(p.read_text(encoding="utf-8"))
                    for p in sides)
        for path, a, b, key in leaf_diffs(old, new):
            flag = "!" if key in ANSWERS else " "
            status = 1 if flag == "!" else status
            print(f"{flag} {name}: {path}: {json.dumps(a)} -> "
                  f"{json.dumps(b)}")
            moved.append((name, path, a, b))
    print(summary(moved))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dir", type=Path, help="directory for the reports")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--against", type=Path, default=None,
                   metavar="OTHER_DIR",
                   help="print the fields that differ from these reports")
    args = p.parse_args(argv)
    args.dir.mkdir(parents=True, exist_ok=True)
    names = catalog_names()
    runs = [(f"simulate-{name}", ["simulate", name, "--input", SIMULATE_WORD])
            for name in names]
    runs += [(f"{cmd}-{name}", [cmd, name])
             for cmd in COMMANDS for name in names]
    runs.append(("-".join(("compare", *COMPARE)), ["compare", *COMPARE]))
    runs.append(("acceptance", ["acceptance"]))
    for stem, run in runs:
        path = args.dir / f"{stem}.json"
        path.write_text(report(run, args.seed), encoding="utf-8")
        print(path, file=sys.stderr)
    return 0 if args.against is None else compare_dirs(args.against,
                                                       args.dir)


if __name__ == "__main__":
    sys.exit(main())

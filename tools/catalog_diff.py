#!/usr/bin/env python3
"""Output differences of seven catalog CLI runs between two trees.

    python3 tools/catalog_diff.py --parent HEAD

Run from the repository root; the standard library only.  The two trees are
made as tools/bench_pairs.py makes them, in a temporary directory removed
afterwards: the parent is `git archive` of the --parent revision, the change
a copy of the working tree's tracked and unignored files.  The runs are the
five catalog runs of the benchmark's end-to-end aim, whose coefficients
depend on x, and two on the constant-coefficient harmonic systems (`box
harmonic-neumann`, `left-shelf harmonic-dirichlet`), whose half-step tables
are x-uniform and so take the kernel's uniform-segment path.  Each run

    python3 -m renosc.cli COMMAND CONFIG [--scan] --out DIR

runs in both trees with PYTHONPATH=src.  For the run's stdout and every
output file the script prints "identical", or the largest absolute and
relative difference of the numbers the two files hold when the text around
the numbers is the same, or "text differs" when it is not.  It also prints
each run's peak RSS on both sides: the VmHWM of the run's own address
space, which the child reads from /proc/self/status as it exits (os.wait4's
ru_maxrss would also count the peak of this script, which the child held
until exec).  Before the runs it prints each tree's source size, the total
that `wc -l src/renosc/*.py` gives, and the change in it.  So one command
shows whether the outputs are byte-identical, what each run's memory peak
is and how many source lines the change adds or removes.

The exit status is the byte-identity gate: 0 when every run's exit code,
stdout and output files are the same on both sides, 1 when any of them
differs or a file exists on one side only.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import change_checkout, git, parent_checkout  # noqa: E402

RUNS = (
    ("box", "example1"),
    ("box", "example2"),
    ("left-shelf", "example2"),
    ("invariance", "example1"),
    ("invariance", "example3", "--scan"),
    ("box", "harmonic-neumann"),
    ("left-shelf", "harmonic-dirichlet"),
)
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
# `python -m renosc.cli ARGS` that writes its VmHWM line to the file named
# by its first argument as it exits, however it exits
PEAK_PROBE = """import runpy, sys
peak_file = sys.argv.pop(1)
try:
    runpy.run_module("renosc.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def run_catalog(tree: Path, args, out: Path):
    """Exit code, stdout and peak RSS in MB of one CLI run in `tree`, writing
    into `out`.  The peak is the VmHWM of the child's own address space (kB),
    which the child writes beside `out` as it exits; NaN when the child died
    before writing it (killed by a signal, say), whose exit code and outputs
    are still compared."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    peak_file = out.with_name(out.name + ".peak")
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(peak_file), *args,
                           "--out", str(out)], cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    try:
        peak_kb = int(peak_file.read_text().split()[1])
    except (FileNotFoundError, IndexError, ValueError):
        peak_kb = math.nan
    return proc.returncode, proc.stdout, peak_kb / 1024.0


def source_lines(tree: Path) -> int:
    """The total line count of `wc -l src/renosc/*.py` in `tree`: the
    newlines of every file."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "renosc").glob("*.py"))


def compare(a: str, b: str) -> str:
    """'identical', the largest number differences, or 'text differs'."""
    if a == b:
        return "identical"
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "text differs"
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))
             if x != y]
    abs_diff = max(abs(x - y) for x, y in pairs)
    rel_diff = max(abs(x - y) / (max(abs(x), abs(y)) or 1.0) for x, y in pairs)
    return (f"{len(pairs)} numbers differ; largest absolute difference {abs_diff:.3g}, "
            f"largest relative {rel_diff:.3g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    args = ap.parse_args(argv)
    parent = git("rev-parse", "--short", args.parent, text=True).strip()
    with tempfile.TemporaryDirectory(prefix="catalog_diff_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        parent_checkout(parent, trees["parent"])
        change_checkout(trees["change"])
        print(f"parent {parent} against the working tree")
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        print(f"source lines (wc -l src/renosc/*.py): parent {lines['parent']:,}, "
              f"change {lines['change']:,} ({lines['change'] - lines['parent']:+,})")
        same = True
        for k, run in enumerate(RUNS):
            outs = {side: Path(tmp) / f"out{k}_{side}" for side in trees}
            got = {side: run_catalog(trees[side], run, outs[side]) for side in trees}
            print(" ".join(run))
            codes = {side: code for side, (code, _, _) in got.items()}
            if codes["parent"] != codes["change"]:
                same = False
                print(f"  exit code: {codes['parent']} -> {codes['change']}")
            print(f"  peak RSS: parent {got['parent'][2]:.1f} MB, "
                  f"change {got['change'][2]:.1f} MB")
            verdict = compare(got["parent"][1], got["change"][1])
            same &= verdict == "identical"
            print(f"  stdout: {verdict}")
            names = sorted({p.name for out in outs.values() if out.is_dir()
                            for p in out.iterdir()})
            for name in names:
                files = [outs[side] / name for side in ("parent", "change")]
                if not all(f.is_file() for f in files):
                    same = False
                    print(f"  {name}: only in {'parent' if files[0].is_file() else 'change'}")
                    continue
                texts = [f.read_text(encoding="utf-8") for f in files]
                verdict = compare(*texts)
                same &= verdict == "identical"
                print(f"  {name}: {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

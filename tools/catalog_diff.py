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
each run's peak RSS on both sides, the child's ru_maxrss as os.wait4
reports it for that one process, so one command shows both whether the
outputs are byte-identical and what each run's memory peak is.

The exit status is the byte-identity gate: 0 when every run's exit code,
stdout and output files are the same on both sides, 1 when any of them
differs or a file exists on one side only.
"""

from __future__ import annotations

import argparse
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


def run_catalog(tree: Path, args, out: Path):
    """Exit code, stdout and peak RSS in MB of one CLI run in `tree`, writing
    into `out`.  The peak is the child's own ru_maxrss (KB on Linux), read
    by os.wait4 when the child is reaped."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "renosc.cli", *args, "--out", str(out)],
                            cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0


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

#!/usr/bin/env python3
"""Interleaved parent/change pairs of the pipeline benchmark, as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --workload count-oracle \
        --claim count-oracle:wall_s --note "what the change does" --out BENCH_11.json

Run from the repository root; the standard library only.  Two checkouts are
made in a temporary directory and removed afterwards: the parent is
`git archive` of the --parent revision (its committed files), the change is
a copy of the working tree's files that git tracks or would track (ignored
files left out).  For every workload, pair after pair, each side runs

    python3 benchmarks/pipeline/run.py --workload W --seed S --seconds T --trace 0

from its own checkout, the side that runs first alternating pair by pair.
steal_share is the share of the /proc/stat cpu time counted as steal during
a run.  Every end-to-end metric of BENCHMARK.json gets the medians and
quartiles of both sides, the change's wins and a verdict under the metric's
bound; a metric whose parent interquartile range is wider than its bound is
unresolved, unless every run of the change is better than every run of the
parent.  A --claim WORKLOAD:METRIC holds when the change is better in at
least nine of ten pairs and its median beats the parent's by more than the
parent's interquartile range.  Nothing under benchmarks/ is modified.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUNNER = Path("benchmarks") / "pipeline" / "run.py"


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw).stdout


def parent_checkout(rev, dest):
    """The committed files of `rev`, unpacked into dest."""
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", rev))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def change_checkout(dest):
    """The working tree's tracked and untracked, not ignored, files."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def cpu_times():
    """(total, steal) jiffies from the first line of /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns (result, machine facts, steal share)."""
    before = cpu_times()
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    after = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    steal = None
    if before and after and after[0] > before[0]:
        steal = round((after[1] - before[1]) / (after[0] - before[0]), 4)
    return json.loads(lines[-1]), json.loads(lines[-2])["machine"], steal


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summarize(metric, runs, claimed):
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    out = {}
    for side in ("parent", "change"):
        q1, med, q3 = quartiles([r[side] for r in runs])
        out[side] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    p, c = out["parent"]["median"], out["change"]["median"]
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    wins = sum((r["change"] < r["parent"]) if lower else (r["change"] > r["parent"])
               for r in runs)
    out.update(ratio_of_medians=round(c / p, 4) if p else None, change_wins=wins,
               parent_iqr=round(iqr, 4))
    diff = (c - p) / p if p else 0.0
    pct = f"{100 * bound:.0f}%"
    sign = 1 if lower else -1  # sign * value: smaller is better
    every_run_better = (max(sign * r["change"] for r in runs)
                        < min(sign * r["parent"] for r in runs))
    medians = f"the medians differ by {100 * diff:+.1f}%"
    if p and iqr / p > bound and not every_run_better:
        verdict = (f"unresolved: the parent's IQR is {100 * iqr / p:.0f}% of its median, "
                   f"wider than the {pct} bound; {medians}")
    elif sign * diff > bound:
        verdict = f"worse than the {pct} bound: {medians}"
    else:
        size = "more" if abs(c - p) > iqr else "less"
        verdict = f"no worse than the {pct} bound; {medians}, {size} than the parent's IQR"
        if every_run_better:
            verdict += "; every run of the change is better than every run of the parent"
    if claimed:
        better = (p - c) if lower else (c - p)
        held = wins >= -(-9 * len(runs) // 10) and better > iqr
        verdict += (f"; claimed gain {'holds' if held else 'NOT shown'}: "
                    f"better in {wins} of {len(runs)} pairs")
    out["verdict"] = verdict
    out["runs"] = runs
    return out


def bench_workload(trees, workload, args, metrics, claims):
    entry = {"workload": workload, "seed": args.seed, "pairs": args.pairs,
             "correct": {"parent": [], "change": []},
             "failed": {"parent": [], "change": []}, "steal_share": []}
    values = {m["name"]: [] for m in metrics}
    machine = None
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            result, machine, steal = run_once(trees[side], workload, args.seed, args.seconds)
            got[side] = result
            entry["correct"][side].append(result["correct"])
            entry["failed"][side].append(result["failed"])
            entry["steal_share"].append(steal)
        for name in values:
            values[name].append({"pair": k, "first": order[0],
                                 **{s: got[s]["metrics"][name]["value"] for s in got}})
        print(f"{workload} pair {k}: " + ", ".join(
            f"{s} {got[s]['metrics']['wall_s']['value']:.3f} s" for s in order),
            file=sys.stderr, flush=True)
    entry["metrics"] = {m["name"]: summarize(m, values[m["name"]],
                                             (workload, m["name"]) in claims)
                        for m in metrics}
    return entry, machine


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "?"


def method_text(seed, seconds, pairs, parent, claims):
    claimed = ", ".join(sorted(":".join(c) for c in claims)) or "none"
    return (
        f"tools/bench_pairs.py: {RUNNER} --workload W --seed {seed} "
        f"--seconds {seconds:g} --trace 0, run from each side's tree in its own "
        f"directory (parent: git archive of {parent}; change: a copy of the working "
        f"tree's tracked and unignored files); {pairs} pairs per workload, "
        "interleaved, the side that runs first alternating pair by pair; steal_share "
        "is the share of /proc/stat cpu time counted as steal during each run. Each "
        "metric's verdict applies the benchmark's bound: a metric whose parent "
        "interquartile range is wider than its bound is unresolved, unless every run "
        "of the change is better than every run of the parent. A claimed gain "
        "holds when the change is better in at least 9 of 10 pairs and its median "
        f"beats the parent's by more than the parent's IQR. Claimed: {claimed}.")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if not (ROOT / RUNNER).is_file():
        ap.error(f"run from the repository root ({RUNNER} not found)")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    parent = git("rev-parse", "--short", args.parent, text=True).strip()

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        parent_checkout(parent, trees["parent"])
        change_checkout(trees["change"])
        entries, machine = [], None
        for workload in args.workload:
            entry, machine = bench_workload(trees, workload, args, metrics, claims)
            entries.append(entry)

    doc = {
        "change": args.note,
        "parent": parent,
        "machine": {**machine, "cpu_model": cpu_model()},
        "method": method_text(args.seed, args.seconds, args.pairs, parent, claims),
        "benchmark": entries,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for entry in entries:
        for name, m in entry["metrics"].items():
            print(f"{entry['workload']} {name}: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The renosc benchmark: seeded CLI workloads, checked answers, traced layers.

    python3 benchmarks/pipeline/run.py --workload box-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/`, in this
process; tasks run one at a time (closed loop, one client) with BLAS threads
capped at the number of usable cores.  A run repeats passes over the seeded
task list while the next pass is expected to end within --seconds (always at
least two passes).

--trace 0 prints the end-to-end metrics: wall_s (the fastest pass: all the
workload's tasks once), task_p50_s (median over tasks of each task's fastest
repeat), setup_s (median of eleven fresh processes timed to "first task
ready") and peak_rss_mb.  --trace 1 runs an untraced, a traced and another
untraced pass plus kernel micro-timings, and prints the per-layer metrics.
The last stdout line is the result JSON; the line before it holds the
machine facts.  Scratch files, results and traces go to `.bench_pipeline/`.

Exit code 0 whenever a result is printed (`correct` says whether every
answer, the determinism check, the span check of a traced run and the
checkers' self-test held); non-zero without a result when the program
cannot be found or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
STATE = ROOT / ".bench_pipeline"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 11


def cap_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def setup(workload, seed, workdir):
    """Import renosc, write the seeded configs, load every problem once.

    Returns the task list and the config paths.  This is what setup_s times.
    """
    import renosc.cli  # noqa: F401
    from renosc import load_config_file, load_problem
    from workloads import generate

    tasks = generate(workload, seed)
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, task in enumerate(tasks):
        path = cfg_dir / f"task{k}.json"
        path.write_text(json.dumps(task.config, indent=1, sort_keys=True), encoding="utf-8")
        load_problem(load_config_file(str(path)))
        paths.append(str(path))
    return tasks, paths


def measure_setup(workload, seed, workdir):
    """Median wall time from spawning a fresh process to its "ready" line."""
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed),
                "--probe-dir", str(workdir / f"probe{k}")]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {rc})")
        times.append(t1 - t0)
    return statistics.median(times)


def output_digest(outdir):
    """sha256 over every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def program_fingerprint(machine):
    """Identifies the program build whose outputs must repeat byte for byte."""
    h = hashlib.sha256()
    for path in sorted((SRC / "renosc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    h.update(f"{machine['backend']}|{machine['numpy']}|{machine['blas']}".encode())
    return h.hexdigest()[:16]


class Determinism:
    """Outputs of one task must be identical every time it runs: within this
    run, and across runs on the same program build (digests kept in
    .bench_pipeline/digests.json).  A task is keyed by its command line and the
    bytes of its config, since the config path shows up in SVG titles."""

    def __init__(self, fingerprint):
        self.fingerprint = fingerprint
        self.path = STATE / "digests.json"
        try:
            self.known = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def record(self, task, cfg_path, digest):
        """False when the digest differs from the one recorded before."""
        h = hashlib.sha256(f"{task.command}|{cfg_path}|".encode())
        h.update(Path(cfg_path).read_bytes())
        key = f"{self.fingerprint}/{h.hexdigest()[:32]}"
        return self.known.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def run_pass(tasks, paths, workdir, determinism, tracer=None):
    """Run every task once.

    Returns (pass seconds, {task index: seconds}, failures, output bytes).

    Only the tasks are timed; preparing output directories, checking answers
    and hashing outputs are not.
    """
    from workloads import check, run_task

    task_times, failures = {}, []
    out_bytes = 0
    for k, (task, path) in enumerate(zip(tasks, paths)):
        outdir = workdir / "out" / f"task{k}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                rc, answer = run_task(task, path, str(outdir))
            else:
                rc, answer = tracer.run_task(k, lambda: run_task(task, path, str(outdir)))
            dt = time.perf_counter() - t0
        except Exception:  # a task that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{task.name}: raised")
            continue
        task_times[k] = dt
        problems = [f"exit code {rc}"] if rc != 0 else check(task, answer)
        out_bytes += sum(p.stat().st_size for p in outdir.iterdir())
        if not determinism.record(task, path, output_digest(outdir)):
            problems.append("outputs differ from an earlier run")
        if problems:
            failures.append(f"{task.name}: {'; '.join(problems)}")
    return sum(task_times.values()), task_times, failures, out_bytes


def machine_facts():
    import numpy as np
    import renosc

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "backend": renosc.backend_name(),
        "numba_enabled": bool(renosc.NUMBA_ENABLED),
    }


def benchmark(args):
    from workloads import self_test
    import tracing
    from kernels import micro_metrics

    # relative, so the config paths the program sees are the same in every run
    workdir = STATE.relative_to(ROOT) / "work" / f"{args.workload}-{args.seed}"
    try:
        tasks, paths = setup(args.workload, args.seed, workdir)
        machine = machine_facts()
        failures = []  # failed tasks
        broken = [f"checker self-test: {f}" for f in self_test()]
        broken += [f"span check self-test: {f}" for f in tracing.self_test()]
        determinism = Determinism(program_fingerprint(machine))

        passes, task_times = [], {}

        def untraced_pass():
            pass_time, times, fails, _ = run_pass(tasks, paths, workdir, determinism)
            passes.append(pass_time)
            for k, t in times.items():
                task_times.setdefault(k, []).append(t)
            failures.extend(fails)
            return pass_time

        start = time.perf_counter()
        while True:
            pass_time = untraced_pass()
            if args.trace:
                break
            if len(passes) >= 2 and time.perf_counter() - start + pass_time > args.seconds:
                break

        if args.trace:
            # untraced, traced, untraced: the mean of the two untraced passes
            # cancels a steady drift in machine speed
            tracer = tracing.Tracer()
            saved = tracing.instrument(tracer)
            try:
                traced_time, traced_times, fails, out_bytes = run_pass(
                    tasks, paths, workdir, determinism, tracer)
            finally:
                tracing.restore(saved)
            failures += fails
            untraced_pass()
            layers, table = tracing.layer_metrics(tracer.spans)
            broken += [f"trace: {p}" for p in tracing.check_spans(tracer.spans, traced_times)]
            layers["artifacts.bytes"] = out_bytes
            layers["trace.overhead_s"] = traced_time - statistics.mean(passes)
            layers.update(micro_metrics())
            attempted = len(tasks) * (len(passes) + 1)
            layers["failed_frac"] = len(failures) / attempted
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
            (STATE / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"span_fields": ["name", "start", "end", "parent", "task",
                                            "counts"], "spans": tracer.spans}),
                encoding="utf-8")
        else:
            table = {}
            attempted = len(tasks) * len(passes)
            # Fastest pass, and the median over tasks of each task's fastest
            # repeat: the shared machine runs in slow and fast stretches, and
            # the minimum over repeats filters out the slow ones.
            best = [min(t) for t in task_times.values()] or [0.0]
            metrics = {
                "wall_s": {"value": min(passes), "unit": "s"},
                "task_p50_s": {"value": statistics.median(best), "unit": "s"},
                "setup_s": {"value": measure_setup(args.workload, args.seed, workdir),
                            "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
        determinism.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += broken
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures) - len(broken), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "passes_s": passes, "task_s": task_times,
              "failures": failures, "spans_by_name": table, **result}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ns_per_line_step", "ns_per_node")):
        return "ns"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    if name == "artifacts.bytes":
        return "B"
    return "count"


def main(argv=None):
    cap_blas_threads()  # before anything imports numpy
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "renosc" / "__init__.py").is_file():
        print(f"renosc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.probe_dir))
        print("ready", flush=True)
        return 0
    STATE.mkdir(exist_ok=True)
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads for the renosc benchmark: inputs, task runners, checkers.

Each workload turns a seed into a fixed list of tasks (one "pass").  A task
is one CLI command on one generated JSON config, run in this process; the
count-oracle task adds one library call.  The program sees only the config
files.  Every task's answer is checked against pinned values or closed form.

Why each workload exists (the full table is in README.md):

* box-grid      -- `box` on example1/example2: the wide lambda batch, the
                   full-grid form table and the pure-Python contour behind
                   box.svg.  Almost no single-lambda work.
* scan-refine   -- `invariance --scan` on example3: about 1,500
                   single-lambda propagation legs (refinement windows,
                   Newton, classification) and a full-grid CSV.
* count-oracle  -- cold, distinct constant-coefficient systems queried once:
                   `left-shelf` then eigenvalue bisection on narrow lambda
                   batches, checked against closed form.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# The paper's example problems, spelled out here rather than taken from the
# program's catalog, so a change to the catalog cannot change the inputs.
_V_SHARED = [["10*sin(10*x)*cos(10*x)", "25*sin(10*x)"], ["x*(1-x)", "10*cos(10*x)"]]
EXAMPLES = {
    "example1": {
        "kind": "higher-order", "n": 3, "m": 1,
        "alphas": [".2*cos(10*x) - .5*cos(x/10)", "2*sin(5*x)", "10", "60"],
        "kappas": [10, 60],
        "P": [[1.0], [0.0], [0.0]], "Q": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        "lambda": [-1.0, 0.0], "x_steps": 1000, "lambda_steps": 600,
    },
    "example2": {
        "kind": "second-order", "l": 2, "B": [1.0, 1.0], "V": _V_SHARED,
        "W": [["5*x*(1-x)", "0"], ["0", "5*x*(1-x)"]],
        "P": "neumann", "Q": "neumann",
        "lambda": [-5.0, 1.0], "x_steps": 1000, "lambda_steps": 600,
    },
    "example3": {
        "kind": "second-order", "l": 2, "B": [1.0, 1.0], "V": _V_SHARED,
        "W": [["5*x*(1-x)", "10*sin(10*x)"], ["10*cos(10*x)", "5*x*(1-x)"]],
        "P": "neumann", "Q": "neumann",
        "lambda": [-5.0, 1.0], "x_steps": 1000, "lambda_steps": 600,
    },
}

# Pinned answers (5 significant digits, stable across the drawn windows).
BOX_EIGENVALUES = {"example1": [-0.51153], "example2": [-1.3826, 0.73516]}
BOX_EIG_TOL = 1e-4
SCAN_LOSS_POINTS = [(-3.3712, 2), (-0.1288, -2)]  # (lambda_star, local_m)
SCAN_LAMBDA_TOL = 1e-3
ORACLE_EIG_TOL = 1e-6
ORACLE_LOCALIZE_TOL = 1e-10

# Sizes, the same for every seed.
BOX_LAMBDA_STEPS = 300
SCAN_GRID = (230, 120)  # x_steps, lambda_steps
ORACLE_MIX = [(1, 2), (1, 2), (2, 3), (2, 3)]  # (l, eigenvalues in the interval)
ORACLE_X_STEPS = 1000
ORACLE_LAMBDA_STEPS = 200


@dataclass
class Task:
    """One unit of closed-loop work: a command on one generated config."""

    name: str
    command: str   # "box", "scan" or "count"
    config: dict
    expect: dict  # what the checker compares the answer with


def _round(v, digits=4):
    return round(float(v), digits)


# -- generators ------------------------------------------------------------


def box_grid(rng):
    """`box` on example1 and example2, with drawn lambda windows and x_steps.

    The two x_steps are drawn to sum to 2000 (both inside [920, 1080]), so
    every seed's pass has the same number of grid nodes.  BOX_LAMBDA_STEPS
    instead of the catalog's 600 keeps a pass near 10 s.
    """
    windows = {"example1": ((-1.15, -0.9), (-0.1, 0.1)),
               "example2": ((-5.4, -4.6), (0.9, 1.2))}
    x1 = int(rng.integers(920, 1081))
    tasks = []
    for name, x_steps in (("example1", x1), ("example2", 2000 - x1)):
        w1, w2 = windows[name]
        cfg = dict(EXAMPLES[name])
        cfg["lambda"] = [_round(rng.uniform(*w1)), _round(rng.uniform(*w2))]
        cfg["x_steps"] = x_steps
        cfg["lambda_steps"] = BOX_LAMBDA_STEPS
        tasks.append(Task(f"box:{name}", "box", cfg, {"eigenvalues": BOX_EIGENVALUES[name]}))
    return tasks


def scan_refine(rng):
    """One example3 full-grid scan on a fixed grid with a drawn lambda1.

    The grid is SCAN_GRID for every seed, so every pass does the same amount
    of grid work.  lambda2 stays at 1.0: psi is measured against the H family
    at the box's top edge, so the loss points move with lambda2, and the
    pinned ones hold for 1.0.  The candidates that get refined are grid-local
    rho minima below 1e-3 along a valley near x = 0.87; how many there are
    depends on how the grid samples that valley, mostly on x_steps.  At
    230 x 120 there are three for every lambda1 drawn here (see README.md),
    each costing about 3 s.  Below about 190 x-steps the coarse grid can miss
    the second loss point.
    """
    cfg = dict(EXAMPLES["example3"])
    cfg["lambda"] = [_round(rng.uniform(-5.2, -4.8)), 1.0]
    cfg["x_steps"], cfg["lambda_steps"] = SCAN_GRID
    return [Task("scan:example3", "scan", cfg, {"loss_points": SCAN_LOSS_POINTS})]


def closed_form_eigenvalues(B, V, bc, lo, hi):
    """Eigenvalues V_j + B_j k^2 pi^2 in (lo, hi) of -B phi'' + V phi = lam phi
    with the same condition (Dirichlet: k >= 1, Neumann: k >= 0) at both ends."""
    out = []
    for b, v in zip(B, V):
        k = 1 if bc == "dirichlet" else 0
        while v + b * (k * math.pi) ** 2 < hi:
            ev = v + b * (k * math.pi) ** 2
            if ev > lo:
                out.append(ev)
            k += 1
    return sorted(out)


def count_oracle(rng):
    """Distinct decoupled constant-coefficient systems with closed-form spectra.

    A pass holds one system per entry of ORACLE_MIX, each drawn until its
    interval holds exactly the listed number of eigenvalues (the median
    count for that l under these draws), so every seed's pass solves the
    same number of systems of each size and localizes the same number of
    eigenvalues.  Interval ends stay 0.5 away from every eigenvalue.  Nothing
    else is filtered: with two components, two eigenvalues can share one
    lambda cell or two left-shelf crossings one x cell, and the program's
    sign-change detection then misses both.  Such a task fails its check.
    """
    tasks = []
    for l, n_eigs in ORACLE_MIX:
        while True:
            B = [_round(b) for b in rng.uniform(0.5, 2.0, l)]
            V = [_round(v) for v in rng.uniform(-2.0, 2.0, l)]
            bc = "dirichlet" if rng.random() < 0.5 else "neumann"
            lo = _round(rng.uniform(-5.0, 5.0))
            hi = _round(lo + rng.uniform(20.0, 60.0))
            near = closed_form_eigenvalues(B, V, bc, lo - 1.0, hi + 1.0)
            inside = closed_form_eigenvalues(B, V, bc, lo, hi)
            if len(inside) == n_eigs and all(abs(e - lo) >= 0.5 and abs(e - hi) >= 0.5
                                             for e in near):
                break
        cfg = {
            "kind": "second-order", "l": l, "B": B,
            "V": [[f"{V[i]:.4f}" if i == j else "0" for j in range(l)] for i in range(l)],
            "W": [["0"] * l for _ in range(l)],
            "P": bc, "Q": bc, "lambda": [lo, hi],
            "x_steps": ORACLE_X_STEPS, "lambda_steps": ORACLE_LAMBDA_STEPS,
        }
        tasks.append(Task(f"count:{len(tasks)}", "count", cfg, {"eigenvalues": inside}))
    return tasks


WORKLOADS = {"box-grid": box_grid, "scan-refine": scan_refine, "count-oracle": count_oracle}


def generate(workload, seed):
    return WORKLOADS[workload](np.random.default_rng(seed % 2**64))


# -- running ---------------------------------------------------------------


def run_task(task, cfg_path, outdir):
    """Run one task in this process; return (exit code, answer dict).

    The CLI echoes its summary on stdout; it is captured so the benchmark's
    own last line stays the result.
    """
    from renosc import cli

    argv = {
        "box": ["box", cfg_path, "--out", outdir],
        "scan": ["invariance", cfg_path, "--scan", "--out", outdir],
        "count": ["left-shelf", cfg_path, "--out", outdir],
    }[task.command]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        return rc, {}
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        answer = json.load(fh)
    if task.command == "count":
        from renosc import load_config_file, load_problem, localize_eigenvalues_top

        problem = load_problem(load_config_file(cfg_path))
        answer["localized"] = localize_eigenvalues_top(problem, tol=ORACLE_LOCALIZE_TOL)
    return rc, answer


# -- checking --------------------------------------------------------------


def _close(got, want, tol):
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def _finite_numbers(obj):
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return math.isfinite(obj)
    return True


def check(task, answer):
    """Problems found in one task's answer; an empty list means correct."""
    problems = []
    if task.command == "box":
        eigs = answer.get("eigenvalues", [])
        if not _close(eigs, task.expect["eigenvalues"], BOX_EIG_TOL):
            problems.append(f"eigenvalues {eigs}")
        if not answer.get("lower_bound") == answer.get("ind_left") == len(eigs):
            problems.append("lower_bound, ind_left and eigenvalue count disagree")
        if answer.get("m_frak") != 0:
            problems.append(f"m_frak {answer.get('m_frak')}")
        if answer.get("monotonicity_violations"):
            problems.append("monotonicity violations")
    elif task.command == "scan":
        points = sorted(answer.get("scan", {}).get("loss_points", []),
                        key=lambda p: p["lambda_star"])
        want = task.expect["loss_points"]
        if len(points) != len(want) or any(p["flagged"] for p in points):
            problems.append(f"{len(points)} loss points, want {len(want)} unflagged")
        else:
            for p, (lam, local_m) in zip(points, want):
                if abs(p["lambda_star"] - lam) > SCAN_LAMBDA_TOL or p["local_m"] != local_m:
                    problems.append(f"loss point {p['lambda_star']}, local_m {p['local_m']}")
        if not answer.get("constants") or not _finite_numbers(answer["constants"]):
            problems.append("certificate constants missing or not finite")
    else:
        want = task.expect["eigenvalues"]
        if answer.get("count") != len(want):
            problems.append(f"left-shelf count {answer.get('count')}, want {len(want)}")
        if not _close(answer.get("localized", []), want, ORACLE_EIG_TOL):
            problems.append(f"localized {answer.get('localized')}, want {want}")
    return problems


def self_test():
    """Check that the checkers pass a right answer and fail corrupted ones.

    Returns a list of failures (empty when the checkers behave).  Runs on
    synthetic answers, so it costs nothing and runs at the start of every run.
    """
    failures = []

    def expect(label, task, answer, ok):
        if (not check(task, answer)) != ok:
            failures.append(f"{label}: checker said {'wrong' if ok else 'right'}")

    box = Task("box", "box", {}, {"eigenvalues": BOX_EIGENVALUES["example2"]})
    good = {"eigenvalues": [-1.38259955, 0.73516148], "lower_bound": 2, "ind_left": 2,
            "m_frak": 0, "monotonicity_violations": []}
    expect("box right", box, good, True)
    expect("box eigenvalue +1e-2", box, {**good, "eigenvalues": [-1.37259955, 0.73516148]},
           False)
    expect("box lower bound", box, {**good, "lower_bound": 1}, False)
    expect("box m_frak", box, {**good, "m_frak": 2}, False)

    scan = Task("scan", "scan", {}, {"loss_points": SCAN_LOSS_POINTS})
    pts = [{"lambda_star": -0.12880464, "local_m": -2, "flagged": False},
           {"lambda_star": -3.37121023, "local_m": 2, "flagged": False}]
    good = {"scan": {"loss_points": pts}, "constants": {"C": 4.0, "delta": 0.26}}
    expect("scan right", scan, good, True)
    expect("scan lambda +1e-2", scan,
           {**good, "scan": {"loss_points": [pts[0], {**pts[1], "lambda_star": -3.36121}]}},
           False)
    expect("scan local_m", scan,
           {**good, "scan": {"loss_points": [pts[0], {**pts[1], "local_m": -2}]}}, False)
    expect("scan flagged", scan,
           {**good, "scan": {"loss_points": [pts[0], {**pts[1], "flagged": True}]}}, False)
    expect("scan constant nan", scan, {**good, "constants": {"C": float("nan")}}, False)

    want = closed_form_eigenvalues([1.0], [0.0], "dirichlet", 1.0, 50.0)
    count = Task("count", "count", {}, {"eigenvalues": want})
    good = {"count": 2, "localized": [math.pi ** 2, 4 * math.pi ** 2]}
    expect("count right", count, good, True)
    expect("count eigenvalue +1e-2", count,
           {**good, "localized": [math.pi ** 2 + 1e-2, 4 * math.pi ** 2]}, False)
    expect("count off by one", count, {**good, "count": 3}, False)
    return failures

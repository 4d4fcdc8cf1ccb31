"""What the pipeline benchmark (benchmarks/pipeline/) needs from renosc.

`tracing.instrument` wraps every (module, attribute) of `TARGETS` by
`getattr` and applies each target's counter to the call's result, and
`kernels.py` times `_kernels.rk4_grid` (called positionally) and
`_kernels.omega_tables` on flat node arrays; renaming or dropping any of
these, or changing a counted result's shape, breaks `run.py --trace 1`.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

import renosc
from renosc import _kernels, artifacts, builtin_catalog, integrate_frame, load_problem
from renosc.invariance import _psi_grids, rho_grid_scan

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "pipeline" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("pipeline_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_targets_resolve():
    targets = load_targets()
    assert targets
    for module, attribute, _, _ in targets:
        assert callable(getattr(importlib.import_module(module), attribute)), (
            f"{module}.{attribute}"
        )


def test_backend_facts_exist():
    assert renosc.backend_name() == "numpy"
    assert renosc.NUMBA_ENABLED is False


def test_omega_tables_accepts_flat_node_arrays():
    rng = np.random.default_rng(7)
    n, m, nodes = 4, 2, 10
    G = rng.normal(size=(nodes, n, m))
    H = rng.normal(size=(nodes, n, n - m))
    ATg, ATh = rng.normal(size=(2, n, n))
    out = _kernels.omega_tables(G, H, ATg, ATh)
    assert [t.shape for t in out] == [(nodes,)] * 3
    assert all(np.all(np.isfinite(t)) for t in out)


def test_rk4_grid_positional_call_and_shapes():
    # kernels.py: _kernels.rk4_grid(a_half, field.lambda_mat, lams, init, h, True)
    rng = np.random.default_rng(8)
    n, m, steps = 4, 2, 50
    for L in (1, 21):
        a_half = rng.normal(size=(2 * steps + 1, n, n))
        E = rng.normal(size=(n, n))
        lams = np.linspace(-1.0, 1.0, L)
        init = rng.normal(size=(n, m))
        frames, scale_log = _kernels.rk4_grid(a_half, E, lams, init, 1.0 / steps, True)
        assert frames.shape == (L, steps + 1, n, m)
        assert scale_log.shape == (L, steps + 1)
        assert np.all(np.isfinite(frames)) and np.all(np.isfinite(scale_log))


def test_trace_counters_read_real_results():
    # every counter of TARGETS applied to a real result of its function on a
    # small example1 problem, as tracing.Tracer.call applies it
    problem = load_problem(replace(builtin_catalog("example1"), x_steps=100, lambda_steps=20))
    field, steps = problem.field, problem.x_steps
    xh = np.linspace(0.0, 1.0, 2 * steps + 1)
    lams = problem.lambda_grid()
    frames = _kernels.rk4_grid(field.base_table(xh), field.lambda_mat, lams, problem.P.entries,
                               1.0 / steps, True)
    back = integrate_frame(field, problem.Q.entries, 1.0, 0.0, steps, problem.lambda2)
    AT = problem.a_tilde()
    tables = _kernels.omega_tables(frames[0][:, -1], problem.Q.entries, AT.block_g, AT.block_h)
    scan = rho_grid_scan(problem)
    results = {
        "rk4_grid": frames,
        "omega_tables": tables,
        "integrate_frame": back,
        "rho_grid_scan": scan,
        "marching_squares": artifacts.marching_squares(lams, problem.x_grid(),
                                                       _psi_grids(problem)[0]),
    }
    counters = {attribute: counter for _, attribute, _, counter in load_targets() if counter}
    assert set(counters) == set(results)
    assert counters["rk4_grid"](results["rk4_grid"]) == {"line_steps": len(lams) * steps}
    assert counters["omega_tables"](results["omega_tables"]) == {"nodes": len(lams)}
    assert counters["integrate_frame"](results["integrate_frame"]) == {"backward": True}
    assert counters["rho_grid_scan"](scan) == {"kept": len(scan.loss_points)}
    segments = counters["marching_squares"](results["marching_squares"])["segments"]
    assert segments == len(results["marching_squares"]) > 0

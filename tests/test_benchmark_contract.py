"""What the pipeline benchmark (benchmarks/pipeline/) needs from renosc.

`tracing.instrument` wraps every (module, attribute) of `TARGETS` by
`getattr`, and `kernels.py` times `_kernels.rk4_grid` (called positionally)
and `_kernels.omega_tables` on flat node arrays; renaming or dropping any of
these breaks `run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import renosc
from renosc import _kernels

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

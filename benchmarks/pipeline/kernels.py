"""Kernel micro-timings on an example2-sized problem (4x2 frames).

Times `_kernels.rk4_grid` at lambda batches of 1, 21 and 601 lines and
`_kernels.omega_tables` over a 601-line grid, through whichever backend the
program selected (numba when importable and enabled, numpy otherwise; the
run's machine facts record which).  Each figure is the median of MICRO_REPEAT
calls, in nanoseconds per lambda-line step or per form node.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import EXAMPLES

# lambda lines -> x steps; the products stay within a few hundred ms per call
RK4_SHAPES = {1: 2000, 21: 1000, 601: 100}
MICRO_REPEAT = 5


def _median_time(fn):
    times = []
    for _ in range(MICRO_REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_metrics():
    from renosc import _kernels, config_from_dict, load_problem

    out = {}
    frames = None
    for lines, steps in RK4_SHAPES.items():
        cfg = config_from_dict({**EXAMPLES["example2"], "x_steps": steps})
        problem = load_problem(cfg)
        field = problem.field
        h = 1.0 / steps
        a_half = np.ascontiguousarray(field.base_table(0.5 * h * np.arange(2 * steps + 1)))
        lams = np.linspace(problem.lambda1, problem.lambda2, lines)
        init = problem.P.entries

        def call():
            return _kernels.rk4_grid(a_half, field.lambda_mat, lams, init, h, True)

        t = _median_time(call)
        out[f"kernel.rk4.L{lines}.ns_per_line_step"] = t * 1e9 / (lines * steps)
        if lines == 601:
            frames = call()[0]
            h_frames = problem.h_path().frames
            AT = problem.a_tilde()

    G = np.ascontiguousarray(frames.reshape(-1, *frames.shape[2:]))
    H = np.ascontiguousarray(
        np.broadcast_to(h_frames, frames.shape[:2] + h_frames.shape[1:]).reshape(
            G.shape[0], *h_frames.shape[1:])
    )
    t = _median_time(lambda: _kernels.omega_tables(G, H, AT.block_g, AT.block_h))
    out["kernel.forms.micro.ns_per_node"] = t * 1e9 / G.shape[0]
    return out

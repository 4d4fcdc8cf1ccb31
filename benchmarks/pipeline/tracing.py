"""Spans around renosc's layers, recorded from outside the program.

`instrument` replaces selected module attributes with timing wrappers in
every renosc namespace that holds them (`integrate_frame`, for example, is
imported by name into both `maslovbox` and `invariance`), and `restore` puts
the originals back.  Each call becomes one span: name, start, end, parent
span, task id and a few counts taken from the call's result.  Spans stay in
memory until the run ends.

Span names are `<module>.<role>`, with the module name of the layer that
owns the wrapped function (`kernel` stands for `_kernels`).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name, counts taken from the result)
TARGETS = [
    ("renosc._kernels", "rk4_grid", "kernel.rk4",
     lambda out: {"line_steps": out[1].shape[0] * (out[1].shape[1] - 1)}),
    ("renosc._kernels", "omega_tables", "kernel.forms",
     lambda out: {"nodes": len(out[0])}),
    ("renosc.propagation", "integrate_frame", "propagation.integrate",
     lambda out: {"backward": out.direction == "backward"}),
    ("renosc.propagation", "propagate_lambda_grid", "propagation.grid", None),
    ("renosc.maslovbox", "shelf_path", "maslovbox.shelf", None),
    ("renosc.maslovbox", "omega_at_points", "maslovbox.points", None),
    ("renosc.maslovbox", "psi_point", "maslovbox.psi_point", None),
    ("renosc.maslovbox", "monotonicity_audit", "maslovbox.audit", None),
    ("renosc.maslovbox", "_localize_top", "maslovbox.localize", None),
    ("renosc.maslovbox", "_psi1_at_one", "maslovbox.sweep", None),
    ("renosc.maslovbox", "renormalized_count", "maslovbox.count", None),
    ("renosc.maslovbox", "compute_box", "maslovbox.box", None),
    ("renosc.invariance", "constants_report", "invariance.certificate", None),
    ("renosc.invariance", "_psi_grids", "invariance.grid", None),
    ("renosc.invariance", "_psi_window", "invariance.window", None),
    ("renosc.invariance", "_newton_polish", "invariance.newton", None),
    ("renosc.invariance", "classify_loss_point", "invariance.classify", None),
    ("renosc.invariance", "rho_grid_scan", "invariance.scan",
     lambda out: {"kept": len(out.loss_points)}),
    ("renosc.winding", "winding_index", "winding.index", None),
    ("renosc.winding", "detect_crossings", "winding.crossings", None),
    ("renosc.artifacts", "marching_squares", "artifacts.contour",
     lambda out: {"segments": len(out)}),
    ("renosc.artifacts", "write_box_svg", "artifacts.svg", None),
    ("renosc.artifacts", "write_heatmap_svg", "artifacts.svg", None),
    ("renosc.artifacts", "write_path_csv", "artifacts.csv", None),
    ("renosc.artifacts", "write_rows_csv", "artifacts.csv", None),
    ("renosc.artifacts", "write_grid_csv", "artifacts.csv", None),
    ("renosc.artifacts", "write_summary_json", "artifacts.json", None),
    ("renosc.problems", "load_problem", "problems.load", None),
]

ROOT = "cli"  # the span around one whole task


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, task, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = None

    def call(self, name, fn, counter, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.task, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[5] = counter(out)
        return out

    def run_task(self, task_id, fn):
        """Run one task under a root span; returns fn()."""
        self.task = task_id
        try:
            return self.call(ROOT, fn, None, (), {})
        finally:
            self.task = None


def _wrapper(tracer, name, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, counter, args, kwargs)
    return traced


def instrument(tracer):
    """Wrap every target in every loaded renosc module; returns the undo list."""
    import renosc.cli  # noqa: F401  (its namespace holds names too)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "renosc" or n.startswith("renosc.")]
    saved = []
    for modname, attr, name, counter in TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapped = _wrapper(tracer, name, original, counter)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                saved.append((mod, key, original))
                setattr(mod, key, wrapped)
    return saved


def restore(saved):
    for mod, key, original in reversed(saved):
        setattr(mod, key, original)


# -- aggregation -------------------------------------------------------------


def span_table(spans):
    """Per span name: calls, busy seconds (outermost spans only) and self seconds.

    Self time is a span's duration minus its direct children's durations, so
    over one task the self times of all spans sum to the root span's duration.
    """
    table = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    for i, (name, t0, t1, parent, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child_time[i]
        if not has_ancestor(spans, parent, name):
            row["busy_s"] += t1 - t0
    return table


def has_ancestor(spans, idx, name):
    while idx is not None:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The benchmark's per-layer metrics from one traced pass, plus the table."""
    table = span_table(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def total(name, count):
        return sum(s[5][count] for s in spans if s[0] == name)

    def under(name, ancestor):
        return [s for s in spans if s[0] == name and has_ancestor(spans, s[3], ancestor)]

    def backward_steps(s):
        # an rk4 call inside a backward integrate_frame re-propagates the H family
        idx = s[3]
        while idx is not None and spans[idx][0] != "propagation.integrate":
            idx = spans[idx][3]
        return s[5]["line_steps"] if idx is not None and spans[idx][5]["backward"] else 0

    rk4 = [s for s in spans if s[0] == "kernel.rk4"]
    line_steps = sum(s[5]["line_steps"] for s in rk4)
    nodes = total("kernel.forms", "nodes")
    candidates = get("invariance.newton", "calls")
    m = {
        "kernel.rk4.calls": get("kernel.rk4", "calls"),
        "kernel.rk4.line_steps": line_steps,
        "kernel.rk4.busy_s": get("kernel.rk4", "busy_s"),
        "kernel.rk4.ns_per_line_step": _ratio(get("kernel.rk4", "busy_s") * 1e9, line_steps),
        "kernel.forms.calls": get("kernel.forms", "calls"),
        "kernel.forms.nodes": nodes,
        "kernel.forms.busy_s": get("kernel.forms", "busy_s"),
        "kernel.forms.ns_per_node": _ratio(get("kernel.forms", "busy_s") * 1e9, nodes),
        "propagation.integrate.calls": get("propagation.integrate", "calls"),
        "propagation.integrate.self_s": get("propagation.integrate", "self_s"),
        "propagation.grid.calls": get("propagation.grid", "calls"),
        "propagation.grid.self_s": get("propagation.grid", "self_s"),
        "propagation.backward_share": _ratio(sum(backward_steps(s) for s in rk4), line_steps),
        "maslovbox.shelf.calls": get("maslovbox.shelf", "calls"),
        "maslovbox.shelf.busy_s": get("maslovbox.shelf", "busy_s"),
        "maslovbox.points.calls": get("maslovbox.points", "calls"),
        "maslovbox.psi_point.calls": get("maslovbox.psi_point", "calls"),
        "maslovbox.psi_point.busy_s": get("maslovbox.psi_point", "busy_s"),
        "maslovbox.audit.busy_s": get("maslovbox.audit", "busy_s"),
        "maslovbox.localize.busy_s": get("maslovbox.localize", "busy_s"),
        "maslovbox.localize.sweeps": get("maslovbox.sweep", "calls"),
        "invariance.certificate.busy_s": get("invariance.certificate", "busy_s"),
        "invariance.grid.busy_s": get("invariance.grid", "busy_s"),
        "invariance.window.calls": get("invariance.window", "calls"),
        "invariance.window.busy_s": get("invariance.window", "busy_s"),
        "invariance.newton.calls": candidates,
        "invariance.newton.psi_points": len(under("maslovbox.psi_point", "invariance.newton")),
        "invariance.newton.busy_s": get("invariance.newton", "busy_s"),
        "invariance.classify.calls": get("invariance.classify", "calls"),
        "invariance.classify.windows": len(under("invariance.window", "invariance.classify")),
        "invariance.classify.busy_s": get("invariance.classify", "busy_s"),
        "invariance.scan.candidates": candidates,
        "invariance.scan.kept_frac": _ratio(total("invariance.scan", "kept"), candidates),
        "winding.index.calls": get("winding.index", "calls"),
        "winding.index.busy_s": get("winding.index", "busy_s"),
        "winding.crossings.calls": get("winding.crossings", "calls"),
        "winding.crossings.busy_s": get("winding.crossings", "busy_s"),
        "artifacts.svg.busy_s": get("artifacts.svg", "busy_s"),
        "artifacts.svg.segments": total("artifacts.contour", "segments"),
        "artifacts.csv.busy_s": get("artifacts.csv", "busy_s"),
        "problems.load.busy_s": get("problems.load", "busy_s"),
        "cli.self_s": get(ROOT, "self_s"),
    }
    return m, table


def check_spans(spans, task_times):
    """Problems with the recorded spans; an empty list when they are sound.

    `task_times` maps a task id to its duration measured outside the tracer.
    Every span must belong to a task and descend from that task's root span,
    lie inside its parent's [start, end] and start after its previous
    sibling ended.  Each task's self times (layers plus `cli.self_s`) must
    add up to the task's measured duration, so time the root span missed
    shows as a difference.
    """
    problems = []
    self_sum = {}
    child_time = [0.0] * len(spans)
    last_end = {}  # parent index -> end of its latest child
    for i, (name, t0, t1, parent, task, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += t1 - t0
        if t0 < last_end.get(parent, float("-inf")):
            problems.append(f"span {i} ({name}) overlaps its previous sibling")
        last_end[parent] = t1
    for i, (name, t0, t1, parent, task, _) in enumerate(spans):
        root = i
        while spans[root][3] is not None:
            root = spans[root][3]
        if spans[root][0] != ROOT:
            problems.append(f"span {i} ({name}) has no {ROOT} root")
        if task is None or spans[root][4] != task:
            problems.append(f"span {i} ({name}) is outside its task")
        if parent is not None and not spans[parent][1] <= t0 <= t1 <= spans[parent][2]:
            problems.append(f"span {i} ({name}) is not inside its parent")
        self_sum[task] = self_sum.get(task, 0.0) + (t1 - t0) - child_time[i]
    for task, dt in task_times.items():
        got = self_sum.get(task, 0.0)
        if abs(got - dt) > 1e-3 + 1e-3 * dt:
            problems.append(f"task {task}: self times sum to {got:.6f} s, task took {dt:.6f} s")
    return problems


def self_test():
    """Check that check_spans passes sound spans and fails broken ones.

    Returns a list of failures (empty when the check behaves).
    """
    root = [ROOT, 0.0, 1.0, None, 0, None]
    child = ["kernel.rk4", 0.2, 0.5, 0, 0, None]
    cases = [
        ("sound", [root, child], {0: 1.0}, True),
        ("root misses task time", [root, child], {0: 1.5}, False),
        ("child outside parent", [root, [*child[:1], 0.8, 1.2, *child[3:]]], {0: 1.0}, False),
        ("siblings overlap", [root, child, [*child[:1], 0.4, 0.6, *child[3:]]], {0: 1.0}, False),
        ("span without root", [root, [*child[:3], None, *child[4:]]], {0: 1.0}, False),
        ("span in another task", [root, [*child[:4], 1, None]], {0: 1.0}, False),
    ]
    return [f"{label}: span check said {'broken' if ok else 'sound'}"
            for label, spans, times, ok in cases
            if (not check_spans(spans, times)) != ok]

"""Outside-in span recorder for the traced run.

The benchmark wraps graphfield's public callables from its own code, under
every name they are looked up by (a method on its class; a function in every
graphfield module that imported it), and unwraps them again afterwards, so
the program itself carries no tracing code.  A span records its name, start,
end, parent span and task id, plus a few counters; spans stay in memory and
are written once when the run ends.

A span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
import weakref

# (module, attribute, span name).  "Class.method" wraps the method on the
# class; a plain name wraps the function wherever a graphfield module binds it.
TARGETS = [
    ("cholesky", "SparseCholesky.__init__", "cholesky.factor"),
    ("cholesky", "SparseCholesky.selected_inverse", "cholesky.selinv"),
    ("cholesky", "SparseCholesky.solve", "cholesky.solve"),
    ("cholesky", "SparseCholesky.sample_backsolve", "cholesky.backsolve"),
    ("cholesky", "SparseCholesky.logdet", "cholesky.logdet"),
    ("fractional", "brasil", "fractional.brasil"),
    ("fractional", "partial_fractions", "fractional.partial_fractions"),
    ("field", "FieldModel.build", "field.build"),
    ("field", "FieldModel.precision_blocks", "field.precision_blocks"),
    ("field", "FieldModel.block_factors", "field.block_factors"),
    ("field", "FieldModel.sample", "field.sample"),
    ("field", "FieldModel.marginal_variance", "field.marginal_variance"),
    ("field", "FieldModel.covariance_columns", "field.covariance_columns"),
    ("field", "variance_stationary_model", "field.variance_stationary_model"),
    ("inference", "fit", "inference.fit"),
    ("inference", "log_likelihood", "inference.log_likelihood"),
    ("inference", "kriging", "inference.kriging"),
    ("inference", "leave_radius_out_cv", "inference.cv"),
    ("inference", "cho_factor", "inference.cho_factor"),
    ("mesh", "build_mesh", "mesh.build"),
    ("mesh", "Mesh.basis_matrix", "mesh.basis_matrix"),
    ("mesh", "Mesh.node_points", "mesh.node_points"),
    ("assembly", "operator_matrix", "assembly.operator_matrix"),
    ("exprs", "CoefficientExpression.node_values", "exprs.node_values"),
    ("graph", "MetricGraph.load", "graph.load"),
    ("graph", "MetricGraph.geodesic_matrix", "graph.geodesic_matrix"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_*", "cli.io"),
]

# Spans whose peak allocation is taken in the memory pass.  tracemalloc runs
# only inside these calls, and only on the first call per matrix size: peak
# memory is set by the size, and tracing every call of the Python-level
# factorization would slow the pass by more than ten times.
PEAK_SPANS = ("cholesky.factor", "cholesky.selinv")

# Per-layer metrics: (name, unit, span, statistic).  Each is computed per
# task and reported as the median over the run's traced tasks.
METRICS = [
    ("cholesky.factor.calls", "count", "cholesky.factor", "calls"),
    ("cholesky.factor.self_s", "s", "cholesky.factor", "self_s"),
    ("cholesky.factor.rows", "count", "cholesky.factor", "rows"),
    ("cholesky.factor.peak_mb", "MiB", "cholesky.factor", "peak_mb"),
    ("cholesky.selinv.calls", "count", "cholesky.selinv", "calls"),
    ("cholesky.selinv.self_s", "s", "cholesky.selinv", "self_s"),
    ("cholesky.selinv.peak_mb", "MiB", "cholesky.selinv", "peak_mb"),
    ("cholesky.selinv.per_factor", "ratio", "cholesky.selinv", "per_factor"),
    ("cholesky.solve.calls", "count", "cholesky.solve", "calls"),
    ("cholesky.solve.self_s", "s", "cholesky.solve", "self_s"),
    ("cholesky.backsolve.self_s", "s", "cholesky.backsolve", "self_s"),
    ("cholesky.logdet.calls", "count", "cholesky.logdet", "calls"),
    ("fractional.brasil.calls", "count", "fractional.brasil", "calls"),
    ("fractional.brasil.self_s", "s", "fractional.brasil", "self_s"),
    ("fractional.brasil.setup_s", "s", "fractional.brasil", "setup_self_s"),
    ("fractional.partial_fractions.self_s", "s", "fractional.partial_fractions", "self_s"),
    ("fractional.m", "count", "fractional.brasil", "max_m"),
    ("field.n_blocks", "count", "field.build", "max_n_blocks"),
    ("field.build.calls", "count", "field.build", "calls"),
    ("field.precision_blocks.self_s", "s", "field.precision_blocks", "self_s"),
    ("field.sample.self_s", "s", "field.sample", "self_s"),
    ("field.marginal_variance.self_s", "s", "field.marginal_variance", "self_s"),
    ("field.covariance_columns.calls", "count", "field.covariance_columns", "calls"),
    ("field.covariance_columns.self_s", "s", "field.covariance_columns", "self_s"),
    ("inference.fit.evaluations", "count", "inference.fit", "evaluations"),
    ("inference.fit.self_s", "s", "inference.fit", "self_s"),
    ("inference.log_likelihood.calls", "count", "inference.log_likelihood", "calls"),
    ("inference.log_likelihood.self_s", "s", "inference.log_likelihood", "self_s"),
    ("inference.kriging.self_s", "s", "inference.kriging", "self_s"),
    ("inference.cv.self_s", "s", "inference.cv", "self_s"),
    ("inference.cho_factor.calls", "count", "inference.cho_factor", "calls"),
    ("inference.cho_factor.self_s", "s", "inference.cho_factor", "self_s"),
    ("mesh.basis_matrix.calls", "count", "mesh.basis_matrix", "calls"),
    ("mesh.basis_matrix.self_s", "s", "mesh.basis_matrix", "self_s"),
    ("mesh.node_points.self_s", "s", "mesh.node_points", "self_s"),
    ("assembly.operator_matrix.calls", "count", "assembly.operator_matrix", "calls"),
    ("assembly.operator_matrix.self_s", "s", "assembly.operator_matrix", "self_s"),
    ("cli.io.self_s", "s", "cli.io", "self_s"),
    ("exprs.node_values.self_s", "s", "exprs.node_values", "self_s"),
    ("graph.geodesic_matrix.self_s", "s", "graph.geodesic_matrix", "self_s"),
    ("trace.task_s", "s", None, "traced_wall"),
    ("trace.overhead", "ratio", None, "overhead"),
]

ROOT_SPAN = "task"


def _counters(name, args, result):
    """Counters recorded on a span at the layer boundary, or None."""
    if name == "cholesky.factor":
        return {"rows": args[1].shape[0]}
    if name == "fractional.brasil":
        return {"m": args[1]}
    if name == "field.build":
        return {"n_blocks": result.n_blocks}
    if name == "inference.fit":
        return {"evaluations": result.n_evaluations}
    return None


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, task, counters]
        self._stack = []
        self._task = None
        self._patches = []       # (owner, attribute, original)
        self._selinv_factors = weakref.WeakSet()
        self.memory = False      # take tracemalloc peaks of PEAK_SPANS
        self._peak_sizes = set()  # (span name, rows) already measured

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._task, None]
            spans.append(span)
            stack.append(idx)
            key = (name, args[1].shape[0] if name == "cholesky.factor" else args[0].n) \
                if peak and self.memory else None
            measure = key is not None and key not in self._peak_sizes
            if measure:
                self._peak_sizes.add(key)
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if measure:
                    peak_b = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counters = _counters(name, args, result)
            if name == "cholesky.selinv" and args[0] not in self._selinv_factors:
                self._selinv_factors.add(args[0])
                counters = {"new_factor": 1}
            if measure:
                counters = dict(counters or {}, peak_b=peak_b)
            span[5] = counters
            return result

        return traced

    def install(self):
        """Wrap every target; a no-op when already installed."""
        if self._patches:
            return
        mods = {n: m for n, m in list(sys.modules.items())
                if n == "graphfield" or n.startswith("graphfield.")}
        for modname, attr, span in TARGETS:
            mod = mods["graphfield." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapper = self._wrap(raw, span)
                self._patch(cls, meth, raw, wrapper)
                continue
            names = [a for a in vars(mod) if a.startswith(attr[:-1])] \
                if attr.endswith("*") else [attr]
            for a in names:
                fn = getattr(mod, a)
                wrapper = self._wrap(fn, span)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            self._patch(other, key, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def task(self, task_id):
        """Root span of one task (or of the set-up), with wrappers installed."""
        self.install()
        self._task = task_id
        self._selinv_factors = weakref.WeakSet()
        idx = len(self.spans)
        span = [ROOT_SPAN, time.perf_counter(), 0.0, None, task_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._task = None
            self.uninstall()


def self_times(spans):
    """Self seconds of every span, by index."""
    child = [0.0] * len(spans)
    for name, start, end, parent, task, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_task(spans):
    """{task_id: {span name: {"calls", "self_s", counter sums and maxima}}}."""
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, task, counters = span[0], span[4], span[5]
        st = out.setdefault(task, {}).setdefault(name, {"calls": 0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += self_s
        for k, v in (counters or {}).items():
            st[k] = st.get(k, 0) + v
            st["max_" + k] = max(st.get("max_" + k, v), v)
    return out


def _stat(stats, span, stat):
    st = stats.get(span, {})
    if stat == "per_factor":
        return st["calls"] / st["new_factor"] if st.get("new_factor") else 0.0
    if stat == "peak_mb":
        return st.get("max_peak_b", 0) / 2**20
    return st.get(stat, 0)


def layer_metrics(spans, traced_walls, overhead, timed_ids, memory_ids):
    """Per-layer metrics: medians over the timed traced tasks; peaks from the
    memory-pass tasks; set-up figures from the "setup" root span.  `overhead`
    is the median traced / untraced wall ratio of the same tasks."""
    tasks = per_task(spans)
    empty = {}
    out = {}
    for name, unit, span, stat in METRICS:
        if stat == "traced_wall":
            value = statistics.median(traced_walls)
        elif stat == "overhead":
            value = overhead
        elif stat == "setup_self_s":
            value = tasks.get("setup", empty).get(span, {}).get("self_s", 0.0)
        elif stat == "peak_mb":
            value = statistics.median(_stat(tasks.get(t, empty), span, stat)
                                      for t in memory_ids)
        else:
            value = statistics.median(_stat(tasks.get(t, empty), span, stat)
                                      for t in timed_ids)
        out[name] = {"value": value, "unit": unit}
    return out


def shares(spans, task_ids, walls):
    """[(span name, median self seconds, share of the median task wall)],
    largest first."""
    tasks = per_task(spans)
    names = {n for t in task_ids for n in tasks.get(t, {})}
    wall = statistics.median(walls)
    rows = []
    for n in names:
        s = statistics.median(tasks.get(t, {}).get(n, {}).get("self_s", 0.0) for t in task_ids)
        rows.append((n, s, s / wall))
    return sorted(rows, key=lambda r: -r[1])

"""The benchmark's workloads: per-process set-up, one task, and the checks
that a task's outputs are correct.

A task is the sequence of `graphfield` CLI commands a user runs for one
request, invoked in-process through `graphfield.cli.main(argv)` on the files
that gen.py wrote.  Checks recompute each output by an independent dense
route and run after the timed loop, so they cost no timed wall time and do
not raise the peak RSS of the timed tasks.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time

import env

# Tolerances of the paper's acceptance criteria: 6 (variance-stationary
# deviation) and 7 (GMRF kriging against the covariance form); also used for
# the closed-form leave-one-out comparison.
TOL = 1e-8


class TaskFailed(Exception):
    pass


def timed_setup(desc: dict) -> float:
    """Seconds for `import graphfield` plus the once-per-process work before
    the first task: the graph load and mesh, and for the fractional workloads
    the first FieldModel.build at the workload's alpha (the cold minimax
    solve).  Must be the process's first import of graphfield and numpy."""
    t0 = time.perf_counter()
    import graphfield
    from graphfield import FieldModel, MetricGraph, build_mesh, cli  # noqa: F401
    from graphfield.exprs import CoefficientExpression

    size = desc["size"]
    mesh = build_mesh(MetricGraph.load(desc["graph"]), size["h"])
    if desc["workload"] == "simulate":
        kappa = CoefficientExpression(desc["tasks"][0]["kappa_expr"]).node_values(mesh)
        FieldModel.build(mesh, size["alpha"], kappa, 1.0)
    elif desc["workload"] == "krige":
        FieldModel.build(mesh, size["alpha"], size["kappa"], 1.0)
    elapsed = time.perf_counter() - t0
    env.check_origin(graphfield)
    return elapsed


def _cli(argv):
    from graphfield import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise TaskFailed(f"graphfield {argv[0]} returned {rc}")


def run_task(desc: dict, i: int, out: str):
    """Run task i of the workload, writing its outputs into `out`."""
    size, graph = desc["size"], desc["graph"]
    task = desc["tasks"][i % len(desc["tasks"])]
    common = [graph, "--h", size["h"], "--alpha", size["alpha"]]
    w = desc["workload"]
    if w == "simulate":
        e = task["kappa_expr"]
        _cli(["varstat", *common, "--kappa-expr", e, "--sigma0", 1,
              "--out", os.path.join(out, "varstat.csv")])
        _cli(["simulate", *common, "--kappa-expr", e, "--n", size["n_samples"],
              "--seed", task["sample_seed"], "--out", os.path.join(out, "samples.csv")])
    elif w == "krige":
        _cli(["krige", graph, task["obs"], "--h", size["h"], "--alpha", size["alpha"],
              "--kappa-expr", repr(size["kappa"]), "--sigma-e", size["sigma_e"],
              "--variance", "--out", os.path.join(out, "krige.csv")])
    elif w == "fit_cv":
        fit_out = os.path.join(out, "fit.json")
        _cli(["fit", graph, task["obs"], "--h", size["h"], "--model", desc["spec"],
              "--intercept", "--out", fit_out])
        with open(fit_out) as f:
            p = json.load(f)["params"]
        _cli(["cv", graph, task["obs"], "--h", size["h"], "--alpha", size["alpha"],
              "--kappa-expr", repr(math.exp(p["kappa_intercept"])),
              "--tau-expr", repr(math.exp(p["tau_intercept"])),
              "--sigma-e", repr(p["sigma_e"]), "--radii", size["radii"],
              "--out", os.path.join(out, "cv.csv")])
    else:
        raise ValueError(f"unknown workload {w!r}")


# -- correctness checks ------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _read_obs(path):
    """(points, values (n, R)) from an observation CSV written by gen.py."""
    import numpy as np
    from graphfield import GraphPoint

    header, rows = _read_csv(path)
    keys, cols = {}, {}
    for row in rows:
        key = (int(row[0]), float(row[1]))
        rep = int(row[3]) if len(row) > 3 else 0
        keys.setdefault(key, len(keys))
        cols.setdefault(rep, {})[key] = float(row[2])
    Y = np.array([[cols[r][k] for r in sorted(cols)] for k in keys])
    return [GraphPoint(e, t) for e, t in keys], Y


def _rel_err(got, want) -> float:
    import numpy as np

    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class Checker:
    """Checks the outputs of one run's tasks; `check` raises TaskFailed."""

    def __init__(self, desc: dict):
        from graphfield import MetricGraph, build_mesh

        self.desc = desc
        self.size = desc["size"]
        self.mesh = build_mesh(MetricGraph.load(desc["graph"]), self.size["h"])
        self._prior_cov = None

    def check(self, i: int, out: str, first: bool):
        getattr(self, "_check_" + self.desc["workload"])(i, out, first)

    def _fail(self, what, err):
        raise TaskFailed(f"{what}: relative error {err:.3e} exceeds {TOL:g}")

    def _check_simulate(self, i, out, first):
        import numpy as np
        from graphfield import FieldModel
        from graphfield.exprs import CoefficientExpression

        n = self.size["n_samples"]
        header, rows = _read_csv(os.path.join(out, "samples.csv"))
        samples = np.array([[float(v) for v in r[3:]] for r in rows])
        if samples.shape != (self.mesh.N, n) or not np.isfinite(samples).all():
            raise TaskFailed(f"samples have shape {samples.shape} or are not finite; "
                             f"want finite ({self.mesh.N}, {n})")
        with open(os.path.join(out, "varstat.csv.manifest.json")) as f:
            dev = json.load(f)["max_std_deviation"]
        if not dev < TOL:
            raise TaskFailed(f"varstat max_std_deviation {dev:.3e} is not below {TOL:g}")
        if first:
            task = self.desc["tasks"][i % len(self.desc["tasks"])]
            kappa = CoefficientExpression(task["kappa_expr"]).node_values(self.mesh)
            base = FieldModel.build(self.mesh, self.size["alpha"], kappa, 1.0)
            err = _rel_err(base.marginal_variance(), np.diag(base.covariance()))
            if not err <= TOL:
                self._fail("base marginal_variance against the rational-route diagonal", err)

    def _check_krige(self, i, out, first):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve
        from graphfield import FieldModel, ObservationSet, kriging_covariance_form

        s = self.size
        if self._prior_cov is None:
            self._prior_model = FieldModel.build(self.mesh, s["alpha"], s["kappa"], 1.0)
            self._prior_cov = self._prior_model.covariance()
        Sigma = self._prior_cov
        points, Y = _read_obs(self.desc["tasks"][i % len(self.desc["tasks"])]["obs"])
        y = Y[:, 0]
        header, rows = _read_csv(os.path.join(out, "krige.csv"))
        got = np.array([[float(r[header.index(c)]) for c in ("posterior_mean",
                                                              "posterior_variance")]
                        for r in rows])
        A = self.mesh.basis_matrix(points)
        W = np.asarray((A @ Sigma).T)                 # Sigma A^T
        S = np.asarray(A @ W)
        S = 0.5 * (S + S.T) + s["sigma_e"] ** 2 * np.eye(len(points))
        c = cho_factor(S, lower=True)
        mean = W @ cho_solve(c, y)
        prior_var = np.diag(Sigma)
        var = prior_var - np.sum(W * cho_solve(c, W.T).T, axis=1)
        err = _rel_err(got[:, 0], mean)
        if not err <= TOL:
            self._fail("posterior mean against the covariance form", err)
        err = _rel_err(got[:, 1], var)
        if not err <= TOL:
            self._fail("posterior variance against diag(Sigma - W S^-1 W^T)", err)
        if not (np.all(got[:, 1] > 0) and np.all(got[:, 1] <= prior_var * (1 + TOL))):
            raise TaskFailed("posterior variance outside (0, prior variance]")
        if first:
            ref = kriging_covariance_form(self._prior_model,
                                          ObservationSet(points, y, s["sigma_e"])).mean
            err = _rel_err(got[:, 0], ref)
            if not err <= TOL:
                self._fail("posterior mean against kriging_covariance_form", err)

    def _check_fit_cv(self, i, out, first):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve
        from graphfield import FieldModel, ObservationSet, log_likelihood

        s, t = self.size, self.desc["truth"]
        points, Y = _read_obs(self.desc["tasks"][i % len(self.desc["tasks"])]["obs"])
        with open(os.path.join(out, "fit.json")) as f:
            fitted = json.load(f)
        if fitted["converged"] is not True:
            raise TaskFailed("fit did not converge")
        truth = FieldModel.build(self.mesh, s["alpha"], t["kappa"], t["tau"])
        ll_true, _ = log_likelihood(truth, ObservationSet(points, Y, t["sigma_e"]),
                                    beta=[t["beta"]], design=np.ones(len(points)))
        if not fitted["loglik"] >= ll_true:
            raise TaskFailed(f"fitted log-likelihood {fitted['loglik']:.10g} is below "
                             f"the value {ll_true:.10g} at the data-generating parameters")

        # closed-form leave-one-out (Rasmussen & Williams 2006, sec. 5.4.2)
        p = fitted["params"]
        model = FieldModel.build(self.mesh, s["alpha"], math.exp(p["kappa_intercept"]),
                                 math.exp(p["tau_intercept"]))
        A = self.mesh.basis_matrix(points)
        S = np.asarray(A @ np.asarray(A @ model.covariance()).T)
        S = 0.5 * (S + S.T) + p["sigma_e"] ** 2 * np.eye(len(points))
        Kinv = cho_solve(cho_factor(S, lower=True), np.eye(len(points)))
        d = np.diag(Kinv)[:, None]
        err2 = (Kinv @ Y / d) ** 2
        var = 1.0 / d
        want = (float(np.mean(err2)),
                float(np.mean(0.5 * (np.log(2 * np.pi * var) + err2 / var))))
        header, rows = _read_csv(os.path.join(out, "cv.csv"))
        row = next((r for r in rows if float(r[0]) == 0.0), None)
        if row is None or int(row[3]) != len(points):
            raise TaskFailed("cv.csv has no R=0 row using every location")
        for name, got_v, want_v in zip(("mse", "nls"), (float(row[1]), float(row[2])), want):
            err = abs(got_v - want_v) / abs(want_v)
            if not err <= TOL:
                self._fail(f"cv {name} at R=0 against the closed-form LOO", err)

"""Unified command-line entry point.

Every command that writes an output file also writes <output>.manifest.json
holding the resolved configuration, package version, and timings, sufficient
to re-run the command.  Numbers in CSV outputs carry 17 significant digits
(round-trip exact for doubles).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .assembly import AssumptionError
from .cholesky import NotSPDError
from .exprs import CoefficientExpression, ExpressionError
from .field import FieldError, FieldModel, variance_stationary_model
from .fractional import ORDER_CAP, RationalError, brasil, fractional_part, partial_fractions
from .graph import GraphError, GraphPoint, MetricGraph, builtin_graph, validate
from .harness import (DEFAULT_CALIBRATION_C, MIN_RATE_LEVELS, error_grid, oracle_graph,
                      rate_experiment, rates_table, write_records_csv, write_rates_csv)
from .inference import (InferenceError, ModelSpec, ObservationSet, fit, kriging,
                        leave_radius_out_cv, write_cv_csv)
from .mesh import build_mesh
from .oracle import exact_covariance

FMT = "%.17g"


class CliError(Exception):
    pass


def _load_graph(spec: str) -> MetricGraph:
    if os.path.exists(spec):
        return MetricGraph.load(spec)
    try:
        return builtin_graph(spec)
    except GraphError:
        raise CliError(
            f"{spec!r} is neither a graph file nor a builtin "
            "(interval:L, circle:L, tadpole, star:k)"
        ) from None


def _coefficient(text: str, mesh):
    return CoefficientExpression(text).node_values(mesh)


def _parse_point(text: str) -> GraphPoint:
    try:
        e, t = text.split(",")
        return GraphPoint(int(e), float(t))
    except ValueError:
        raise CliError(f"point must be 'edge,t', got {text!r}") from None


def _numbers(text: str, kind, option: str, sep: str = ",") -> list:
    """The sep-separated values of an option, each converted by kind."""
    try:
        return [kind(x) for x in text.split(sep)]
    except ValueError:
        raise CliError(f"{option} must be {kind.__name__} values separated by {sep!r}, "
                       f"got {text!r}") from None


def _write_manifest(out_path, args, t0, extra=None):
    manifest = {
        "tool": "graphfield",
        "version": __version__,
        "argv": sys.argv[1:],
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seconds": round(time.time() - t0, 3),
    }
    if extra:
        manifest.update(extra)
    with open(str(out_path) + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, default=str)


def _write_node_csv(path, mesh, columns: dict):
    """Node table: node, edge, t, then one column per entry of `columns`.
    The rows are the bytes csv.writer would write, formatted by one % each."""
    rows = np.array(list(columns.values()), dtype=float).reshape(len(columns), mesh.N).T
    line = "%d,%d," + ",".join([FMT] * (len(columns) + 1)) + "\r\n"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(["node", "edge", "t", *columns.keys()])
        f.write("".join([line % (i, e, t, *row) for i, (e, t, row) in enumerate(
            zip(mesh.node_edge.tolist(), mesh.node_t.tolist(), rows.tolist()))]))


def read_observations(path, sigma_e) -> ObservationSet:
    """Observation CSV: edge_id, t, value, replicate (header optional)."""
    rows = []
    with open(path, newline="") as f:
        for line, row in enumerate(csv.reader(f), start=1):
            if not row or not row[0].strip():
                continue
            try:
                eid = int(row[0])
                t, v = float(row[1]), float(row[2])
                rep = int(row[3]) if len(row) > 3 else 0
            except (ValueError, IndexError):
                if not rows and not row[0].strip().lstrip("+-").isdigit():
                    continue  # header line
                raise CliError(f"{path}, line {line}: expected edge_id,t,value[,replicate] "
                               f"as integer,number,number[,integer], got {','.join(row)!r}") \
                    from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise CliError(f"{path}, line {line}: t and value must be finite, "
                               f"got {row[1]!r} and {row[2]!r}")
            rows.append((eid, t, v, rep, line))
    if not rows:
        raise CliError(f"no observations found in {path}")
    locs = {}
    for e, t, v, r, line in rows:
        values = locs.setdefault((e, t), {})
        if r in values:
            raise CliError(f"{path}, lines {values[r][1]} and {line}: two values for edge {e}, "
                           f"t={t!r}, replicate {r}")
        values[r] = (v, line)
    points = [GraphPoint(e, t) for (e, t) in locs]
    reps = sorted({r for _, _, _, r, _ in rows})
    Y = np.full((len(points), len(reps)), np.nan)
    for i, key in enumerate(locs):
        for j, r in enumerate(reps):
            if r in locs[key]:
                Y[i, j] = locs[key][r][0]
    if np.isnan(Y).any():
        raise CliError("replicates do not share a common location set")
    if Y.shape[1] == 1:
        Y = Y[:, 0]
    return ObservationSet(points, Y, sigma_e)


# -- subcommands ------------------------------------------------------------------


def cmd_graph(args):
    if args.action == "validate":
        if os.path.exists(args.graph):
            with open(args.graph) as f:
                diag = validate(json.load(f))
        else:
            diag = validate(builtin_graph(args.graph))
        if not diag.ok:
            for err in diag.errors:
                print(f"error: {err}", file=sys.stderr)
            return 1
        print(f"vertices: {diag.n_vertices}  edges: {diag.n_edges}  "
              f"total length: {diag.total_length:g}")
        print("degrees:", " ".join(f"{v}:{d}" for v, d in sorted(diag.degrees.items())))
        return 0
    raise CliError(f"unknown graph action {args.action!r}")


def cmd_mesh(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    print(f"h: {mesh.h:.6g}  N_h: {mesh.N}")
    print("per-edge segments:", " ".join(
        f"e{eid}:{em.n_segments}" for eid, em in enumerate(mesh.edge_meshes)))
    if args.dump:
        _write_node_csv(args.dump, mesh, {})
        _write_manifest(args.dump, args, t0)
    return 0


def cmd_rational(args):
    # a non-positive alpha reaches brasil as given, which rejects it
    ra = brasil(fractional_part(args.alpha) if args.alpha > 0 else args.alpha,
                args.m, b=args.b)
    pf = partial_fractions(ra)
    out = {
        "alpha_frac": ra.alpha_frac,
        "m": ra.m,
        "interval": ra.interval,
        "sup_error": ra.sup_error,
        "equioscillation_ratio": ra.equioscillation_ratio,
        "poles": list(pf.poles),
        "residues": list(pf.residues),
        "k": pf.k,
    }
    print(json.dumps(out, indent=1))
    return 0


def _model_from_args(args, mesh):
    kappa = _coefficient(args.kappa_expr, mesh)
    tau = _coefficient(args.tau_expr, mesh)
    return FieldModel.build(mesh, args.alpha, kappa, tau, m=args.m)


def cmd_simulate(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    model = _model_from_args(args, mesh)
    samples = model.sample(args.n, args.seed)
    _write_node_csv(args.out, mesh, {f"sample{i}": s for i, s in enumerate(samples)})
    _write_manifest(args.out, args, t0, {"N_h": mesh.N, "m": model.m})
    print(f"wrote {args.n} samples at {mesh.N} nodes to {args.out}")
    return 0


def cmd_cov(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    model = _model_from_args(args, mesh)
    row = model.covariance_row(_parse_point(args.point))
    _write_node_csv(args.out, mesh, {"covariance": row})
    _write_manifest(args.out, args, t0, {"N_h": mesh.N, "m": model.m})
    print(f"wrote covariance row to {args.out}")
    return 0


def cmd_varstat(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    kappa = _coefficient(args.kappa_expr, mesh)
    model = variance_stationary_model(mesh, kappa, args.alpha, args.sigma0, m=args.m)
    std = model.marginal_std()
    _write_node_csv(args.out, mesh, {"tau": model.tau_nodes, "marginal_std": std})
    _write_manifest(args.out, args, t0, {"N_h": mesh.N, "m": model.m,
                                         "max_std_deviation": float(np.abs(std - args.sigma0).max())})
    print(f"wrote variance-stationary tau and std to {args.out} "
          f"(max |std - sigma0| = {np.abs(std - args.sigma0).max():.3e})")
    return 0


def cmd_oracle(args):
    t0 = time.time()
    for option, low in (("alpha", 0.5), ("kappa", 0.0), ("tau", 0.0)):
        value = getattr(args, option)
        if not low < value < math.inf:  # NaN fails too
            raise CliError(f"--{option} must be finite and exceed {low:g}, got {value!r}")
    g, name, length = oracle_graph(args.graph)
    mesh = build_mesh(g, args.grid_h)
    pts = mesh.node_points()
    S = exact_covariance(name, pts, args.alpha, args.kappa, args.tau, length)
    np.savetxt(args.out, S, fmt=FMT, delimiter=",")
    _write_node_csv(args.out + ".points.csv", mesh, {})
    _write_manifest(args.out, args, t0, {"n_points": len(pts)})
    print(f"wrote {len(pts)}x{len(pts)} exact covariance to {args.out}")
    return 0


def cmd_convergence(args):
    t0 = time.time()
    alphas = _numbers(args.alphas, float, "--alphas")
    if ":" in args.levels:
        bounds = _numbers(args.levels, float, "--levels", ":")
        if len(bounds) != 3 or not bounds[1] > 0:
            raise CliError(f"--levels must be lo:step:hi (step > 0) or a comma list, "
                           f"got {args.levels!r}")
        lo, step, hi = bounds
        levels = list(np.arange(lo, hi + 1e-9, step))
    else:
        levels = _numbers(args.levels, float, "--levels")
    if len(levels) < MIN_RATE_LEVELS:
        raise CliError(f"--levels must give at least {MIN_RATE_LEVELS} mesh levels for the "
                       f"rate fit, got {len(levels)} from {args.levels!r}")
    fits, records = rate_experiment(args.graph, alphas, levels, rho=args.rho,
                                    calibration_c=args.c, h_ok=2.0**-args.hok_level)
    write_rates_csv(fits, args.out)
    write_records_csv(records, args.out + ".errors.csv")
    _write_gnuplot_script(args.out + ".errors.csv", alphas)
    _write_manifest(args.out, args, t0)
    print(rates_table(fits))
    return 0


def _write_gnuplot_script(errors_csv, alphas):
    """Companion script plotting the error curves (no plotting dependency)."""
    lines = [
        "set logscale xy",
        "set datafile separator ','",
        "set xlabel 'h'",
        "set ylabel 'L2 covariance error'",
        "set key left top",
        "plot " + ", \\\n     ".join(
            f"'{errors_csv}' using 5:($2=={a}?$6:1/0) with linespoints title 'alpha={a:g}'"
            for a in alphas
        ),
    ]
    with open(errors_csv + ".gnuplot", "w") as f:
        f.write("\n".join(lines) + "\n")


def cmd_errorgrid(args):
    t0 = time.time()
    alphas = _numbers(args.alphas, float, "--alphas")
    ms = _numbers(args.ms, int, "--ms")
    rhos = _numbers(args.rhos, float, "--rhos")
    records = error_grid(args.graph, alphas, ms, rhos, h=2.0**-args.level,
                         h_ok=2.0**-args.hok_level)
    write_records_csv(records, args.out)
    _write_manifest(args.out, args, t0)
    print(f"wrote {len(records)} error records to {args.out}")
    return 0


def _spec_from_file(path, mesh):
    with open(path) as f:
        d = json.load(f)
    covs = [CoefficientExpression(c).node_values(mesh)
            for c in ModelSpec.covariate_expressions(d)]
    return ModelSpec.from_dict(d, covariates=covs)


def cmd_krige(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    obs = read_observations(args.obs, args.sigma_e)
    model = _model_from_args(args, mesh)
    post = kriging(model, obs, compute_variance=args.variance)
    cols = {"posterior_mean": post.mean if post.mean.ndim == 1 else post.mean.mean(axis=1)}
    if post.variance is not None:
        cols["posterior_variance"] = post.variance
    _write_node_csv(args.out, mesh, cols)
    _write_manifest(args.out, args, t0, {"n_obs": obs.n})
    print(f"wrote kriging predictor to {args.out}")
    return 0


def cmd_fit(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    obs = read_observations(args.obs, 1.0)
    spec = _spec_from_file(args.model, mesh)
    design = np.ones(obs.n) if args.intercept else None
    result = fit(spec, mesh, obs, design=design)
    out = {
        "params": {k: float(v) for k, v in result.params.items()},
        "beta": None if result.beta is None else [float(b) for b in result.beta],
        "loglik": result.loglik,
        "converged": result.converged,
        "n_evaluations": result.n_evaluations,
        "gradient_norm": result.gradient_norm,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    _write_manifest(args.out, args, t0, {"gradient_norm": result.gradient_norm})
    print(json.dumps(out, indent=1))
    return 0


def cmd_cv(args):
    t0 = time.time()
    g = _load_graph(args.graph)
    mesh = build_mesh(g, args.h)
    obs = read_observations(args.obs, args.sigma_e)
    model = _model_from_args(args, mesh)
    radii = _numbers(args.radii, float, "--radii")
    records = leave_radius_out_cv(model, obs, radii)
    write_cv_csv(records, args.out)
    _write_manifest(args.out, args, t0)
    for r in records:
        print(f"R={r.radius:g}: MSE={r.mse:.6g} NLS={r.nls:.6g} "
              f"({r.n_used} used, {r.n_skipped} skipped)")
    return 0


# -- argument parsing ------------------------------------------------------------


def _add_model_args(p, need_tau=True):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kappa-expr", default="1.0", help="kappa expression (x, y, edge, t)")
    if need_tau:
        p.add_argument("--tau-expr", default="1.0")
    p.add_argument("--m", type=int, default=None,
                   help=f"rational order (default: calibrated; at most {ORDER_CAP})")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that maps each option's dest to its flag, and (for the
    top-level parser) each subcommand name to its parser, so that config
    entries can be checked against them."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings:
            self.options[action.dest] = action.option_strings[-1]
        return action


def build_parser():
    ap = _Parser(
        prog="graphfield",
        description="Whittle-Matern Gaussian fields on metric graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices

    p = sub.add_parser("graph", help="graph file utilities")
    p.add_argument("action", choices=["validate"])
    p.add_argument("graph")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("mesh", help="build a FEM mesh and report sizes")
    p.add_argument("graph")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--dump", default=None, help="write node table CSV")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("rational", help="minimax rational approximation of x^{alpha}")
    p.add_argument("--alpha", type=float, required=True,
                   help="fractional exponent in (0,1), or alpha>1 whose fractional part is used")
    p.add_argument("--m", type=int, required=True, help=f"rational order, at most {ORDER_CAP}")
    p.add_argument("--b", type=float, default=1.0, help="right endpoint of the interval")
    p.set_defaults(func=cmd_rational)

    p = sub.add_parser("simulate", help="sample the field at mesh nodes")
    p.add_argument("graph")
    p.add_argument("--h", type=float, required=True)
    _add_model_args(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cov", help="covariance row against a fixed point")
    p.add_argument("graph")
    p.add_argument("--h", type=float, required=True)
    _add_model_args(p)
    p.add_argument("--point", required=True, help="edge,t")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("varstat", help="variance-stationary model: tau and achieved std")
    p.add_argument("graph")
    p.add_argument("--h", type=float, required=True)
    _add_model_args(p, need_tau=False)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_varstat)

    p = sub.add_parser("oracle", help="exact covariance matrix on an analytic graph")
    p.add_argument("--graph", required=True, choices=["interval", "circle", "tadpole",
                                                      "interval:1", "circle:2"])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--grid-h", type=float, default=0.05, help="evaluation grid spacing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("convergence", help="rate experiment against the exact oracle")
    p.add_argument("--graph", required=True)
    p.add_argument("--alphas", default="0.75,0.875,1,1.125,1.5")
    p.add_argument("--levels", default="4.5:0.25:5.5", help="lo:step:hi or comma list of -log2 h")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--c", type=float, default=DEFAULT_CALIBRATION_C)
    p.add_argument("--hok-level", type=float, default=9.0, help="-log2 of the reference width")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("errorgrid", help="error sweep over (alpha, m, rho)")
    p.add_argument("--graph", required=True)
    p.add_argument("--alphas", default="0.6,0.8,1.0,1.3,1.5,1.8,2.0")
    p.add_argument("--ms", default="1,2,3,4,5")
    p.add_argument("--rhos", default="0.1,0.5,1,2")
    p.add_argument("--level", type=float, default=6.0, help="-log2 of the mesh width")
    p.add_argument("--hok-level", type=float, default=9.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_errorgrid)

    p = sub.add_parser("krige", help="posterior mean (and variance) from observations")
    p.add_argument("graph")
    p.add_argument("obs", help="CSV: edge_id,t,value[,replicate]")
    p.add_argument("--h", type=float, required=True)
    _add_model_args(p)
    p.add_argument("--sigma-e", type=float, required=True)
    p.add_argument("--variance", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_krige)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a model spec")
    p.add_argument("graph")
    p.add_argument("obs")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--model", required=True, help="model spec JSON")
    p.add_argument("--intercept", action="store_true", help="include a fixed intercept")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="leave-radius-out cross-validation")
    p.add_argument("graph")
    p.add_argument("obs")
    p.add_argument("--h", type=float, required=True)
    _add_model_args(p)
    p.add_argument("--sigma-e", type=float, required=True)
    p.add_argument("--radii", default="0,0.5,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    return ap


def _with_config(ap, argv, path):
    """argv with the entries of the JSON config file at `path` inserted as
    flags right after the subcommand name, so that explicit flags later on
    the line override them.  Keys are option dests (`sigma_e` for
    --sigma-e); true booleans become bare flags, false and null are left
    out."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read config file: {err}") from None
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    i = next((k for k, a in enumerate(argv) if a in ap.commands), None)
    if i is None:
        return argv  # argparse reports the missing subcommand
    name = argv[i]
    options = ap.commands[name].options
    flags = []
    for key, value in cfg.items():
        if key not in options:
            raise CliError(f"config key {key!r} is not an option of {name!r}")
        if value is True:
            flags.append(options[key])
        elif value is not False and value is not None:
            flags.append(f"{options[key]}={value}")
    return argv[:i + 1] + flags + argv[i + 1:]


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # config precedence: explicit flags > config file > built-in defaults
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    try:
        if known.config is not None:
            argv = _with_config(ap, argv, known.config)
        args = ap.parse_args(argv)
        return args.func(args)
    except (CliError, GraphError, FileNotFoundError, json.JSONDecodeError, FieldError,
            ExpressionError, AssumptionError, InferenceError, RationalError,
            NotSPDError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import csv
import json

import numpy as np
import pytest

from graphfield.cli import CliError, _write_node_csv, main, read_observations
from graphfield.exprs import CoefficientExpression, ExpressionError
from graphfield.graph import interval_graph
from graphfield.mesh import build_mesh

from child import run_cli, run_python



def run(args):
    return main(args)


def test_graph_validate_builtin(capsys):
    assert run(["graph", "validate", "tadpole"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 2" in out and "total length: 3" in out


def test_graph_validate_file(tmp_path, capsys):
    p = tmp_path / "g.json"
    interval_graph(2.0).save(p)
    assert run(["graph", "validate", str(p)]) == 0


def test_graph_validate_malformed_names_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": [{"id": 0}],
                             "edges": [{"id": 0, "from": 0, "to": 0}]}))
    assert run(["graph", "validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert "length" in err


def test_graph_validate_disconnected(tmp_path, capsys):
    p = tmp_path / "disc.json"
    p.write_text(json.dumps({
        "vertices": [{"id": i} for i in range(4)],
        "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                  {"id": 1, "from": 2, "to": 3, "length": 1.0}]}))
    assert run(["graph", "validate", str(p)]) == 1
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("vertices, edge, message", [
    ([{"id": "a"}, {"id": 1}], {}, "vertex 0 of the list: id 'a' is not an integer"),
    ([{"id": 0, "x": "q", "y": 1.0}, {"id": 1}], {},
     "vertex 0: coordinates ('q', 1.0) are not numbers"),
    ([{"id": 0}, {"id": 1}], {"geometry": [["x", 0], [1, 0]]},
     "edge 0: geometry must be a list of [x, y] number pairs, got [['x', 0], [1, 0]]"),
])
def test_non_numeric_vertex_or_geometry_named(tmp_path, capsys, vertices, edge, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": vertices,
                             "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0, **edge}]}))
    assert run(["graph", "validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["mesh", str(p), "--h", "0.1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("length", ["abc", None])
def test_non_numeric_edge_length_named(tmp_path, capsys, length):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": [{"id": 0}, {"id": 1}],
                             "edges": [{"id": 0, "from": 0, "to": 1, "length": length}]}))
    message = f"edge 0: length {length!r} is not a number"
    assert run(["graph", "validate", str(p)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["mesh", str(p), "--h", "0.1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mesh_command(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    assert run(["mesh", "tadpole", "--h", "0.25", "--dump", str(nodes)]) == 0
    out = capsys.readouterr().out
    assert "N_h: 12" in out
    rows = list(csv.reader(nodes.open()))
    assert rows[0] == ["node", "edge", "t"]
    assert len(rows) == 13
    assert (tmp_path / "nodes.csv.manifest.json").exists()


def test_rational_command(capsys):
    assert run(["rational", "--alpha", "0.5", "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 2
    assert out["k"] > 0
    assert all(p < 0 for p in out["poles"])
    assert all(r > 0 for r in out["residues"])


def test_rational_order_above_cap(capsys):
    assert run(["rational", "--alpha", "0.5", "--m", "17"]) == 2
    assert "exceeds the cap 16" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "interval:1", "--h", "0.1", "--alpha", "0.75", "--m", "2",
            "--kappa-expr", "2.0", "--n", "3", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["alpha"] == 0.75


def test_simulate_nonstationary_expression(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["simulate", "star:3", "--h", "0.2", "--alpha", "1.0",
                "--kappa-expr", "exp(0.1*(x - y))", "--tau-expr", "1 + 0.25*edge",
                "--n", "1", "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) > 10


def test_cov_command_17_digits(tmp_path):
    out = tmp_path / "row.csv"
    assert run(["cov", "interval:1", "--h", "0.125", "--alpha", "1.0",
                "--kappa-expr", "2.0", "--point", "0,0.5", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    vals = [float(r[3]) for r in rows[1:]]
    # round-trip exactness of the 17-significant-digit format
    text_again = [f"{v:.17g}" for v in vals]
    assert [r[3] for r in rows[1:]] == text_again


def test_node_table_bytes_match_csv_writer(tmp_path):
    mesh = build_mesh(interval_graph(1.0), 0.125)
    values = np.linspace(-2.0, 2.0, mesh.N)
    values[:4] = [np.nan, np.inf, -np.inf, -1e-310]
    columns = {"a": values, "b,c": -values[::-1]}
    out = tmp_path / "nodes.csv"
    _write_node_csv(out, mesh, columns)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["node", "edge", "t", *columns])
        for i in range(mesh.N):
            w.writerow([i, int(mesh.node_edge[i]), "%.17g" % mesh.node_t[i],
                        *("%.17g" % v[i] for v in columns.values())])
    assert out.read_bytes() == ref.read_bytes()


def test_varstat_command(tmp_path, capsys):
    out = tmp_path / "vs.csv"
    assert run(["varstat", "star:4", "--h", "0.1", "--alpha", "1.0",
                "--kappa-expr", "2.0", "--sigma0", "1.0", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "vs.csv.manifest.json").read_text())
    assert manifest["max_std_deviation"] < 1e-8


def test_oracle_command(tmp_path):
    out = tmp_path / "exact.csv"
    assert run(["oracle", "--graph", "interval", "--alpha", "1.0", "--kappa", "2.0",
                "--grid-h", "0.25", "--out", str(out)]) == 0
    S = np.loadtxt(out, delimiter=",")
    assert S.shape == (5, 5)
    assert np.allclose(S, S.T)


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert run(["convergence", "--graph", "interval", "--alphas", "1.0",
                "--levels", "4:0.5:5.5", "--hok-level", "7.5",
                "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "interval" in table
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "graph"
    slope = float(rows[1][2])
    assert abs(slope - 1.5) < 0.25
    assert (tmp_path / "rates.csv.errors.csv").exists()


def test_krige_and_cv_commands(tmp_path):
    obs = tmp_path / "obs.csv"
    with obs.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["edge_id", "t", "value", "replicate"])
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, 12):
            w.writerow([0, f"{t:.6f}", f"{np.sin(6 * t):.6f}", 0])
    pred = tmp_path / "pred.csv"
    assert run(["krige", "interval:1", str(obs), "--h", "0.05", "--alpha", "1.0",
                "--kappa-expr", "4.0", "--sigma-e", "0.1", "--variance",
                "--out", str(pred)]) == 0
    rows = list(csv.reader(pred.open()))
    assert rows[0] == ["node", "edge", "t", "posterior_mean", "posterior_variance"]
    cvout = tmp_path / "cv.csv"
    assert run(["cv", "interval:1", str(obs), "--h", "0.05", "--alpha", "1.0",
                "--kappa-expr", "4.0", "--sigma-e", "0.1", "--radii", "0,0.2",
                "--out", str(cvout)]) == 0
    rows = list(csv.reader(cvout.open()))
    assert rows[0][0] == "radius" and len(rows) == 3


def test_fit_command(tmp_path):
    obs = tmp_path / "obs.csv"
    rng = np.random.default_rng(1)
    with obs.open("w", newline="") as f:
        w = csv.writer(f)
        for r in range(3):
            for t in np.linspace(0.05, 0.95, 15):
                w.writerow([0, f"{t:.6f}", f"{rng.standard_normal():.6f}", r])
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "alpha": 1.0,
        "kappa": {"intercept": "estimate", "slopes": []},
        "tau": {"intercept": "estimate", "slopes": []},
        "sigma_e": 0.3,
    }))
    out = tmp_path / "fit.json"
    assert run(["fit", "interval:1", str(obs), "--h", "0.1", "--model", str(spec),
                "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert "kappa_intercept" in result["params"]
    assert np.isfinite(result["loglik"])
    manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
    assert result["converged"] and 0 <= result["gradient_norm"] < 1e-3
    assert manifest["gradient_norm"] == result["gradient_norm"]


def test_missing_file_is_graceful(capsys):
    assert run(["graph", "validate", "/nonexistent/g.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_read_observations_replicates(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("edge_id,t,value,replicate\n0,0.1,1.0,0\n0,0.1,2.0,1\n0,0.5,3.0,0\n0,0.5,4.0,1\n")
    obs = read_observations(p, 0.1)
    assert obs.matrix.shape == (2, 2)


def test_read_observations_rejects_a_repeated_location_and_replicate(tmp_path):
    """Two rows for one (edge, t, replicate) are refused, not reduced to the
    last of them."""
    p = tmp_path / "o.csv"
    p.write_text("edge_id,t,value,replicate\n0,0.1,1.0,0\n0,0.5,2.0,0\n0,0.10,3.0,0\n")
    with pytest.raises(CliError, match=r"o\.csv, lines 2 and 4: two values for edge 0, "
                                       r"t=0\.1, replicate 0"):
        read_observations(p, 0.1)


@pytest.mark.parametrize("content, line", [
    ("edge_id,t,value\n0,0.1,1.0\n0,0.5,abc\n", 3),
    ("0,0.1,1.0\n0,0.5,nan\n", 2),
    ("0,0.1,inf\n", 1),
], ids=["non-numeric", "nan", "inf"])
def test_bad_observation_field_names_file_and_line(tmp_path, capsys, content, line):
    obs = tmp_path / "obs.csv"
    obs.write_text(content)
    argv = ["krige", "interval:1", str(obs), "--h", "0.1", "--alpha", "1.0",
            "--sigma-e", "0.1", "--out", str(tmp_path / "k.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {obs}, line {line}: ")
    assert not (tmp_path / "k.csv").exists()


def test_expression_language():
    e = CoefficientExpression("exp(0.05*(x - y)) + 0.0*t")
    mesh = build_mesh(interval_graph(2.0), 0.5)
    vals = e.node_values(mesh)
    xs = mesh.node_xy()[:, 0]
    assert np.allclose(vals, np.exp(0.05 * xs))
    with pytest.raises(ExpressionError):
        CoefficientExpression("__import__('os')")
    with pytest.raises(ExpressionError):
        CoefficientExpression("open('x')")
    with pytest.raises(ExpressionError):
        CoefficientExpression("z + 1")


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.25}))
    assert run(["--config", str(cfg), "mesh", "tadpole"]) == 0
    assert "N_h: 12" in capsys.readouterr().out
    # explicit flag beats the config value
    assert run(["--config", str(cfg), "mesh", "tadpole", "--h", "0.5"]) == 0
    assert "N_h: 6" in capsys.readouterr().out


def test_convergence_emits_gnuplot_script(tmp_path):
    out = tmp_path / "rates.csv"
    assert run(["convergence", "--graph", "interval", "--alphas", "1.0",
                "--levels", "4:0.5:5.5", "--hok-level", "7",
                "--out", str(out)]) == 0
    assert (tmp_path / "rates.csv.errors.csv.gnuplot").exists()


def test_errorgrid_command(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["errorgrid", "--graph", "interval", "--alphas", "1.0,0.9",
                "--ms", "1,2", "--rhos", "0.5", "--level", "5", "--hok-level", "7",
                "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "graph"
    assert len(rows) == 5  # header + 2 alphas x 2 ms


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.25, "sigma_e": 0.1}))
    assert run(["--config", str(cfg), "mesh", "tadpole"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'sigma_e'" in err and "'mesh'" in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "interval:1", "--alpha", "0.75", "--kappa-expr", "z+1"], "unknown name 'z'"),
    (["simulate", "interval:1", "--alpha", "0.4"], "alpha must exceed 1/2"),
    (["simulate", "interval:1", "--alpha", "0.75", "--kappa-expr", "0-1"],
     "kappa must be bounded below"),
    (["simulate", "interval:1", "--alpha", "0.75", "--m", "17"], "exceeds the cap 16"),
    (["krige", "interval:1", "OBS", "--alpha", "1.0", "--sigma-e", "0"],
     "sigma_e must be positive"),
    (["rational", "--alpha", "1.0", "--m", "3"], "fractional exponent"),
    # {alpha} = 0.001 underflows the minimax start nodes at the capped m = 16
    (["simulate", "tadpole", "--alpha", "1.001", "--n", "1"], "{alpha} = 0.001, m = 16"),
    (["cv", "interval:1", "OBS", "--alpha", "1.0", "--sigma-e", "0.1", "--radii=-1"],
     "cv radius must be a number >= 0, got -1.0"),
    (["cv", "interval:1", "OBS", "--alpha", "1.0", "--sigma-e", "0.1", "--radii", "0,abc"],
     "--radii must be float values separated by ',', got '0,abc'"),
    (["krige", "interval:1", "OBS", "--alpha", "1.0", "--sigma-e", "nan"],
     "sigma_e must be positive and finite, got nan"),
    (["cv", "interval:1", "OBS", "--alpha", "1.0", "--sigma-e", "inf", "--radii", "0"],
     "sigma_e must be positive and finite, got inf"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": "abc"}'],
     'alpha must be a finite number or "estimate", got \'abc\''),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 1.0, "tau": null}'],
     'tau is null, which needs "variance_stationary": true'),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 1.0, "kappa": {"slopes": [null]}}'],
     "kappa.slopes has 1 entries for 0 covariates"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 1.0, "kapa": {}}'],
     "unknown key 'kapa' in the spec"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 1.0, "tau": {"slope": []}}'],
     "unknown key 'slope' in tau"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC[1.0]'],
     "model spec: the spec must be a JSON object, got [1.0]"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 1.0, "kappa": null}'],
     "model spec: kappa must be a JSON object, got None"),
    (["fit", "interval:1", "OBS", "--model",
      'SPEC{"covariates": "xy", "kappa": {"slopes": [null, null]}}'],
     "model spec: covariates must be a list of expression strings, got 'xy'"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"covariates": ["x", 1]}'],
     "model spec: covariates must be a list of expression strings, got ['x', 1]"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"sigma_e": -0.3}'],
     "model spec: a fixed sigma_e must exceed 0, got -0.3"),
    (["fit", "interval:1", "OBS", "--model",
      'SPEC{"sigma0": 0, "variance_stationary": true, "tau": null}'],
     "model spec: a fixed sigma0 must exceed 0, got 0"),
    (["fit", "interval:1", "OBS", "--model", 'SPEC{"alpha": 7}'],
     "model spec: a fixed alpha must exceed 0.5 and be at most 3, got 7"),
    (["simulate", "tadpole", "--alpha", "0.9", "--h", "0"],
     "mesh width h must be positive, got 0.0"),
    (["simulate", "tadpole", "--alpha", "0.9", "--h", "nan"],
     "mesh width h must be positive, got nan"),
    (["mesh", "tadpole", "--h", "-1"], "mesh width h must be positive, got -1.0"),
    (["simulate", "tadpole", "--alpha", "0.9", "--h", "100"],
     "order calibration assumes a mesh width h in (0, 1), got 1; give m"),
    (["simulate", "interval:1", "--alpha", "nan"],
     "alpha must exceed 1/2 and be at most 3, got nan"),
    (["simulate", "interval:1", "--alpha", "7"],
     "alpha must exceed 1/2 and be at most 3, got 7.0"),
    (["simulate", "interval:1", "--alpha", "0.9", "--n", "-1"],
     "the number of samples must be at least 1, got -1"),
    (["oracle", "--graph", "interval", "--alpha", "nan", "--kappa", "1"],
     "nu, kappa, tau must be finite and positive, got nu=nan (alpha=nan), kappa=1.0, tau=1.0"),
    (["oracle", "--graph", "tadpole", "--alpha", "0.3", "--kappa", "1"],
     "nu, kappa, tau must be finite and positive, got nu=-0.2 (alpha=0.3), kappa=1.0, tau=1.0"),
    (["oracle", "--graph", "circle", "--alpha", "1.5", "--kappa", "-1"],
     "nu, kappa, tau must be finite and positive, got nu=1.0 (alpha=1.5), kappa=-1.0, tau=1.0"),
    (["varstat", "tadpole", "--alpha", "0.9", "--sigma0", "nan"],
     "sigma0 must be positive and finite, got nan"),
    # Gamma(199.5) overflows; kappa^{2 nu} underflows to 0
    (["oracle", "--graph", "interval", "--alpha", "200", "--kappa", "1"],
     "the marginal variance at nu=199.5, kappa=1.0, tau=1.0 is not a finite positive float"),
    (["oracle", "--graph", "tadpole", "--alpha", "1.5", "--kappa", "1e-300"],
     "the marginal variance at nu=1.0, kappa=1e-300, tau=1.0 is not a finite positive float"),
    (["convergence", "--graph", "interval", "--rho", "0"],
     "unit_variance needs alpha > 1/2 and a finite range rho > 0, got alpha=0.75, rho=0.0"),
    (["convergence", "--graph", "interval", "--rho", "-1"], "rho=-1.0"),
    (["convergence", "--graph", "interval", "--alphas", "0.3"], "got alpha=0.3, rho=0.5"),
    (["errorgrid", "--graph", "interval", "--rhos", "nan"], "got alpha=0.6, rho=nan"),
    (["errorgrid", "--graph", "star:3"], "no exact covariance oracle for graph 'star:3'"),
    # tau^2 underflows; the tadpole checks tau through MaternParams, as the interval does
    (["oracle", "--graph", "tadpole", "--alpha", "1.5", "--kappa", "1", "--tau", "1e-200",
      "--grid-h", "0.5"],
     "the marginal variance at nu=1.0, kappa=1.0, tau=1e-200 is not a finite positive float"),
])
def test_input_errors_reported_without_traceback(tmp_path, capsys, argv, message):
    """One error line and exit 2; --h 0.1 and --out are added where the
    command takes them and argv gives none."""
    obs = tmp_path / "obs.csv"
    obs.write_text("0,0.5,1.0\n")
    spec = tmp_path / "spec.json"
    for a in argv:
        if a.startswith("SPEC"):
            spec.write_text(a[len("SPEC"):])
    argv = [str(obs) if a == "OBS" else str(spec) if a.startswith("SPEC") else a
            for a in argv]
    if argv[0] not in ("rational", "oracle", "convergence", "errorgrid") and "--h" not in argv:
        argv += ["--h", "0.1"]
    if argv[0] not in ("rational", "mesh"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_zero_samples_rejected_without_a_crash(tmp_path):
    """Zero columns once reached LAPACK's dtbtrs, which corrupted the heap and
    aborted the process; solves and draws of zero columns now return empty
    arrays, and sample(0, s) and `simulate --n 0` are input errors.  Both run
    in a child process, so that a crash fails this test only."""
    code = ("import numpy as np\n"
            "from graphfield.field import FieldError, FieldModel\n"
            "from graphfield.graph import tadpole_graph\n"
            "from graphfield.mesh import build_mesh\n"
            "model = FieldModel.build(build_mesh(tadpole_graph(), 0.05), 0.9, 2.0, 1.0)\n"
            "F = model.block_factors()[0]\n"
            "empty = np.zeros((model.N, 0))\n"
            "assert F.solve(empty).shape == F.sample_backsolve(empty).shape == empty.shape\n"
            "try:\n"
            "    model.sample(0, 3)\n"
            "except FieldError as err:\n"
            "    print(err)\n")
    child = run_python(code)
    assert (child.signal, child.exit_code) == (None, 0), child
    assert child.stdout == "the number of samples must be at least 1, got 0\n"
    argv = ["simulate", "tadpole", "--h", "0.05", "--alpha", "0.9", "--n", "0",
            "--out", tmp_path / "s.csv"]
    child = run_cli(argv)
    assert (child.signal, child.exit_code) == (None, 2), child
    assert child.stderr == "error: the number of samples must be at least 1, got 0\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["errorgrid", "--ms", "1,x"], "--ms must be int values separated by ',', got '1,x'"),
    (["errorgrid", "--alphas", "0.75,"], "--alphas must be float values"),
    (["errorgrid", "--rhos", "0.5;1"], "--rhos must be float values"),
    (["convergence", "--levels", "4,x"], "--levels must be float values separated by ','"),
    (["convergence", "--levels", "4:x:5"], "--levels must be float values separated by ':'"),
    (["convergence", "--levels", "4:5"], "--levels must be lo:step:hi (step > 0)"),
    (["convergence", "--levels", "4:0:5"], "--levels must be lo:step:hi (step > 0)"),
    (["convergence", "--levels", "4,5"], "--levels must give at least 4 mesh levels for the "
                                         "rate fit, got 2 from '4,5'"),
    (["convergence", "--levels", "5:0.25:4"], "got 0 from '5:0.25:4'"),
])
def test_malformed_number_lists_reported_without_traceback(tmp_path, capsys, argv, message):
    argv = argv[:1] + ["--graph", "interval:1", "--out", str(tmp_path / "out.csv")] + argv[1:]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("expr", ["log(t-1)", "1/t", "exp(1000*t)", "(-1)**0.5"])
def test_non_finite_expression_reported(tmp_path, capsys, expr):
    argv = ["simulate", "tadpole", "--h", "0.1", "--alpha", "1.0", "--kappa-expr", expr,
            "--out", str(tmp_path / "s.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expr!r} is not finite at node ") and "(edge " in err


def test_cli_import_leaves_scipy_optimize_unloaded():
    """`import graphfield.cli` and building a fractional model load neither
    scipy.special nor scipy.optimize (both are slow to import and imported
    where they are used), and every module they add to what numpy and scipy
    load themselves is stdlib, numpy, scipy or graphfield: no runtime
    dependency beyond numpy and scipy."""
    import sys

    code = ("import json, sys\n"
            "import numpy, scipy.linalg.lapack, scipy.sparse.csgraph\n"
            "deps = set(sys.modules)\n"
            "import graphfield.cli\n"
            "from graphfield.field import FieldModel\n"
            "from graphfield.graph import builtin_graph\n"
            "from graphfield.mesh import build_mesh\n"
            "FieldModel.build(build_mesh(builtin_graph('tadpole'), 0.1), 1.4, 1.0, 1.0)\n"
            "print(json.dumps({'slow': sorted(m for m in sys.modules\n"
            "                                 if m.startswith(('scipy.special', 'scipy.optimize'))),\n"
            "                  'added': sorted({m.partition('.')[0]\n"
            "                                   for m in set(sys.modules) - deps})}))\n")
    out = run_python(code)
    assert out.exit_code == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert loaded["slow"] == []
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "graphfield"}
    assert set(loaded["added"]) - allowed == set()

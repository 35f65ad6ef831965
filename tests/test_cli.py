import csv
import json

import numpy as np
import pytest

from graphfield.cli import main, read_observations
from graphfield.exprs import CoefficientExpression, ExpressionError
from graphfield.graph import interval_graph
from graphfield.mesh import build_mesh




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


def test_missing_file_is_graceful(capsys):
    assert run(["graph", "validate", "/nonexistent/g.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_read_observations_replicates(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("edge_id,t,value,replicate\n0,0.1,1.0,0\n0,0.1,2.0,1\n0,0.5,3.0,0\n0,0.5,4.0,1\n")
    obs = read_observations(p, 0.1)
    assert obs.matrix.shape == (2, 2)


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
])
def test_input_errors_reported_without_traceback(tmp_path, capsys, argv, message):
    obs = tmp_path / "obs.csv"
    obs.write_text("0,0.5,1.0\n")
    argv = [str(obs) if a == "OBS" else a for a in argv]
    if argv[0] != "rational":
        argv += ["--h", "0.1", "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("expr", ["log(t-1)", "1/t", "exp(1000*t)", "(-1)**0.5"])
def test_non_finite_expression_reported(tmp_path, capsys, expr):
    argv = ["simulate", "tadpole", "--h", "0.1", "--alpha", "1.0", "--kappa-expr", expr,
            "--out", str(tmp_path / "s.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expr!r} is not finite at node ") and "(edge " in err


def test_cli_import_leaves_scipy_optimize_unloaded():
    import os
    import subprocess
    import sys

    import graphfield

    src = os.path.dirname(os.path.dirname(graphfield.__file__))
    code = ("import sys, graphfield.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"

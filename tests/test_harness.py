import numpy as np
import pytest

from graphfield.assembly import assemble_mass, lump_mass
from graphfield.field import FieldModel
from graphfield.graph import interval_graph, tadpole_graph
from graphfield.harness import (error_grid, l2_error, rate_experiment,
                                rates_table, sup_error, write_records_csv,
                                write_rates_csv)
from graphfield.mesh import build_mesh
from graphfield.oracle import MaternParams, exact_covariance


def test_l2_error_zero_case():
    S = np.random.default_rng(0).standard_normal((5, 5))
    S = S + S.T
    A = np.eye(5)
    w = np.full(5, 0.2)
    assert l2_error(S, S, A, w) == 0.0
    assert sup_error(S, S, A) == 0.0


def test_l2_error_constant_difference():
    # constant difference delta on all entries: error = delta * |Gamma|,
    # since the weights sum to the total length
    g = interval_graph(2.0)
    mesh = build_mesh(g, 0.25)
    w = lump_mass(assemble_mass(mesh))
    n = mesh.N
    delta = 0.37
    S1 = np.zeros((n, n))
    S2 = np.full((n, n), delta)
    err = l2_error(S2, S1, np.eye(n), w)
    assert err == pytest.approx(delta * g.total_length, rel=1e-12)


def test_sup_error_bounds_l2():
    rng = np.random.default_rng(1)
    g = interval_graph(1.0)
    mesh = build_mesh(g, 0.25)
    w = lump_mass(assemble_mass(mesh))
    n = mesh.N
    D = rng.standard_normal((n, n))
    sup = sup_error(D, np.zeros((n, n)), np.eye(n))
    l2 = l2_error(D, np.zeros((n, n)), np.eye(n), w)
    assert sup >= l2 / g.total_length - 1e-12


def test_l2_error_dimension_mismatch():
    with pytest.raises(ValueError):
        l2_error(np.eye(4), np.eye(4), np.eye(4), np.ones(3))


def test_interval_error_decreases_with_h():
    g = interval_graph(1.0)
    fine = build_mesh(g, 2.0**-8)
    pts = fine.node_points()
    w = lump_mass(assemble_mass(fine))
    p = MaternParams.unit_variance(1.0, 0.5)
    Sex = exact_covariance("interval", pts, 1.0, p.kappa, p.tau, 1.0)
    errs = []
    for lev in (4, 5):
        mesh = build_mesh(g, 2.0**-lev)
        model = FieldModel.build(mesh, 1.0, p.kappa, p.tau)
        errs.append(l2_error(Sex, model.covariance(), mesh.basis_matrix(pts).toarray(), w))
    assert errs[1] < errs[0]


def test_error_decreasing_in_m_tadpole():
    records = error_grid("tadpole", alphas=[1.1], ms=(1, 2, 3, 4, 5), rhos=[0.5],
                         h=2.0**-5, h_ok=2.0**-8)
    sups = [r.sup for r in records]
    l2s = [r.l2 for r in records]
    # decreasing until within 2x of the FEM floor
    assert sups[0] > sups[1] > sups[2]
    assert l2s[0] > l2s[1] > l2s[2]
    assert min(sups) == pytest.approx(sups[-1], rel=2.0)


def test_integer_alpha_collapse():
    records = error_grid("interval", alphas=[1.0, 2.0], ms=(1, 2, 3, 4, 5),
                         rhos=[0.5], h=2.0**-5, h_ok=2.0**-8)
    for alpha in (1.0, 2.0):
        errs = [r.l2 for r in records if r.alpha == alpha]
        assert len(errs) == 5
        assert np.ptp(errs) <= 1e-10 * errs[0]


def test_rate_experiment_interval_quick():
    fits, records = rate_experiment("interval", [1.0, 1.5],
                                    levels=(4.0, 4.5, 5.0, 5.5),
                                    h_ok=2.0**-8)
    for f in fits:
        assert abs(f.slope - f.theoretical) <= 0.2
    assert len(records) == 8
    table = rates_table(fits)
    assert "interval" in table


def test_rate_requires_four_levels():
    with pytest.raises(ValueError):
        rate_experiment("interval", [1.0], levels=(4.0, 5.0), h_ok=2.0**-7)


def test_csv_writers(tmp_path):
    fits, records = rate_experiment("interval", [1.0], levels=(4.0, 4.5, 5.0, 5.5),
                                    h_ok=2.0**-7)
    p1 = tmp_path / "rates.csv"
    p2 = tmp_path / "errors.csv"
    write_rates_csv(fits, p1)
    write_records_csv(records, p2)
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("graph,alpha,observed_rate")
    assert len(lines) == 2
    got = float(lines[1].split(",")[2])
    assert got == fits[0].slope  # 17 significant digits round-trip

"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload simulate --seed 7 --out DIR [--tasks 80] [--tiny]

Writes the graph JSON, the per-task observation CSVs, the model spec JSON
and the kappa expressions into DIR, plus DIR/inputs.json describing them.
The same (workload, seed, size) always gives the same files.  The program
under test later receives only these files and command-line arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import env

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
# smoke test.  See README.md for why each workload has these inputs.
SIZES = {
    "simulate": {
        "full": {"graph": "tadpole", "h": 0.002, "alpha": 1.4, "n_samples": 10},
        "tiny": {"graph": "tadpole", "h": 0.05, "alpha": 1.4, "n_samples": 10},
    },
    "krige": {
        "full": {"graph": "star:8", "h": 0.0075, "alpha": 0.9, "kappa": 3.0,
                 "sigma_e": 0.2, "n_obs": 300},
        "tiny": {"graph": "star:8", "h": 0.1, "alpha": 0.9, "kappa": 3.0,
                 "sigma_e": 0.2, "n_obs": 40},
    },
    "fit_cv": {
        "full": {"graph": "delaunay", "n_vertices": 20, "total_length": 12.0,
                 "h": 0.2, "alpha": 1.0, "n_obs": 150, "replicates": 3,
                 "radii": "0,0.5,1"},
        "tiny": {"graph": "delaunay", "n_vertices": 8, "total_length": 4.0,
                 "h": 0.25, "alpha": 1.0, "n_obs": 40, "replicates": 3,
                 "radii": "0,0.5,1"},
    },
}

# Data-generating parameters of the stationary fit_cv truth; tau puts the
# marginal variance near 1 (1/(2 kappa tau^2) on a line for alpha = 1).
FIT_TRUTH = {"kappa": 4.0, "tau": 0.35, "sigma_e": 0.3, "beta": 1.0}

WORKLOADS = tuple(SIZES)


def _delaunay_graph(rng, n_vertices, total_length):
    """Planar Delaunay graph of seeded points, scaled to a fixed total length
    so that the mesh size barely depends on the seed."""
    import numpy as np
    from scipy.spatial import Delaunay

    xy = rng.uniform(0.0, 1.0, (n_vertices, 2))
    pairs = set()
    for simplex in Delaunay(xy).simplices:
        for a, b in ((0, 1), (1, 2), (0, 2)):
            u, v = sorted((int(simplex[a]), int(simplex[b])))
            pairs.add((u, v))
    pairs = sorted(pairs)
    raw = sum(float(np.hypot(*(xy[u] - xy[v]))) for u, v in pairs)
    xy *= total_length / raw
    return {
        "vertices": [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in enumerate(xy)],
        "edges": [{"id": k, "from": u, "to": v, "length": float(np.hypot(*(xy[u] - xy[v])))}
                  for k, (u, v) in enumerate(pairs)],
    }


def _uniform_points(rng, graph, n):
    """n points uniform over the total edge length, strictly inside edges."""
    import numpy as np
    from graphfield import GraphPoint

    lengths = np.array([e.length for e in graph.edges])
    edges = rng.choice(len(lengths), size=n, p=lengths / lengths.sum())
    ts = rng.uniform(0.02, 0.98, size=n) * lengths[edges]
    return [GraphPoint(int(e), float(t)) for e, t in zip(edges, ts)]


def _write_obs(path, points, values):
    """Observation CSV: edge, t, value[, replicate]; values (n,) or (n, R)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if values.ndim == 1:
            w.writerow(["edge", "t", "value"])
            for p, v in zip(points, values):
                w.writerow([p.edge, "%.17g" % p.t, "%.17g" % v])
        else:
            w.writerow(["edge", "t", "value", "replicate"])
            for r in range(values.shape[1]):
                for p, v in zip(points, values[:, r]):
                    w.writerow([p.edge, "%.17g" % p.t, "%.17g" % v, r])


def generate(workload: str, seed: int, out: str, n_tasks: int, tiny: bool = False) -> dict:
    """Write the inputs of one workload run into `out` and return their
    description (also written to out/inputs.json)."""
    import numpy as np
    from graphfield import (FieldModel, MetricGraph, build_mesh, builtin_graph,
                            calibrate_order)

    size = dict(SIZES[workload]["tiny" if tiny else "full"])
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(out, exist_ok=True)
    if size["graph"] == "delaunay":
        graph = MetricGraph.from_dict(_delaunay_graph(rng, size["n_vertices"],
                                                      size["total_length"]))
    else:
        graph = builtin_graph(size["graph"])
    graph_path = os.path.join(out, "graph.json")
    graph.save(graph_path)
    mesh = build_mesh(graph, size["h"])
    alpha = size["alpha"]
    m = calibrate_order(alpha, mesh.h)
    desc = {
        "workload": workload, "seed": seed, "tiny": tiny, "graph": graph_path,
        "size": size,
        "properties": {
            "N": mesh.N, "m": m, "K": m + 1 if m else 1,
            "n_obs": size.get("n_obs", 0), "replicates": size.get("replicates", 1),
            "max_degree": max(graph.degree(v) for v in graph.vertex_ids),
            "n_edges": graph.n_edges,
        },
        "tasks": [],
    }

    if workload == "simulate":
        for _ in range(n_tasks):
            k0, a = rng.uniform(3.0, 6.0), rng.uniform(0.1, 0.4)
            desc["tasks"].append({"kappa_expr": f"{k0:.6g}*exp({a:.6g}*sin(2*t))",
                                  "sample_seed": int(rng.integers(2**31))})

    elif workload == "krige":
        # one fixed prior; each task observes a fresh prior draw at fresh points
        prior = FieldModel.build(mesh, alpha, size["kappa"], 1.0)
        U = prior.sample(n_tasks, seed=int(rng.integers(2**31)))
        for i in range(n_tasks):
            pts = _uniform_points(rng, graph, size["n_obs"])
            y = mesh.basis_matrix(pts) @ U[i] + size["sigma_e"] * rng.standard_normal(len(pts))
            path = os.path.join(out, f"obs{i}.csv")
            _write_obs(path, pts, y)
            desc["tasks"].append({"obs": path})

    elif workload == "fit_cv":
        t = FIT_TRUTH
        truth = FieldModel.build(mesh, alpha, t["kappa"], t["tau"])
        R = size["replicates"]
        U = truth.sample(n_tasks * R, seed=int(rng.integers(2**31)))
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w") as f:
            json.dump({"alpha": alpha, "kappa": {"intercept": "estimate"},
                       "tau": {"intercept": "estimate"}, "sigma_e": "estimate"}, f, indent=1)
        desc["spec"] = spec_path
        desc["truth"] = dict(t)
        for i in range(n_tasks):
            pts = _uniform_points(rng, graph, size["n_obs"])
            A = mesh.basis_matrix(pts)
            Y = (A @ U[i * R:(i + 1) * R].T + t["beta"]
                 + t["sigma_e"] * rng.standard_normal((len(pts), R)))
            path = os.path.join(out, f"obs{i}.csv")
            _write_obs(path, pts, Y)
            desc["tasks"].append({"obs": path})
    else:
        raise ValueError(f"unknown workload {workload!r}")

    with open(os.path.join(out, "inputs.json"), "w") as f:
        json.dump(desc, f, indent=1)
    return desc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tasks", type=int, default=16)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    env.pin()
    if args.tasks < 1:
        ap.error("--tasks must be at least 1")
    desc = generate(args.workload, args.seed, args.out, args.tasks, args.tiny)
    print(json.dumps(desc["properties"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

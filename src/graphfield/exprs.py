"""Tiny safe expression language for coefficient functions on a graph.

Grammar (evaluated over all mesh nodes at once; the value must be finite at
every node):

    expr   := arithmetic over numbers and the variables
              x, y   - planar coordinates of the node (requires geometry)
              edge   - edge id of the node's canonical location
              t      - arc-length coordinate on that edge
    ops    := + - * / ** and unary -
    funcs  := exp, log, sin, cos, tan, sqrt, abs, tanh
    consts := pi, e

Examples: "2.0", "exp(0.1*(x - y))", "1 + 0.25*edge".
"""

from __future__ import annotations

import ast
import math

import numpy as np

_FUNCS = {
    "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
}
_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_VARS = ("x", "y", "edge", "t")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    pass


class CoefficientExpression:
    """Compiled arithmetic expression in the variables x, y, edge, t."""

    def __init__(self, text: str):
        self.text = text
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as err:
            raise ExpressionError(f"cannot parse {text!r}: {err}") from None
        self._validate(tree.body)
        self._tree = tree
        self.uses_xy = self._uses_coordinates(tree.body)

    def _uses_coordinates(self, node) -> bool:
        return any(isinstance(n, ast.Name) and n.id in ("x", "y")
                   for n in ast.walk(node))

    def _validate(self, node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"literal {node.value!r} not allowed")
            try:
                float(node.value)
            except OverflowError:
                raise ExpressionError("integer literal too large for a float") from None
            return
        if isinstance(node, ast.Name):
            if node.id not in _VARS and node.id not in _CONSTS:
                raise ExpressionError(f"unknown name {node.id!r}")
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            self._validate(node.left)
            self._validate(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
            self._validate(node.operand)
            return
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                    and not node.keywords):
                raise ExpressionError("only exp/log/sin/cos/tan/sqrt/abs/tanh calls allowed")
            for a in node.args:
                self._validate(a)
            return
        raise ExpressionError(f"construct {type(node).__name__} not allowed")

    def _eval(self, node, env):
        if isinstance(node, ast.Constant):
            return np.float64(node.value)
        if isinstance(node, ast.Name):
            return env[node.id] if node.id in env else _CONSTS[node.id]
        if isinstance(node, ast.BinOp):
            a = self._eval(node.left, env)
            b = self._eval(node.right, env)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            return a**b
        if isinstance(node, ast.UnaryOp):
            v = self._eval(node.operand, env)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call):
            return _FUNCS[node.func.id](*(self._eval(a, env) for a in node.args))
        raise ExpressionError("unreachable")

    def node_values(self, mesh):
        """Evaluate at every mesh node; raises if any value is not finite."""
        env = {"edge": mesh.node_edge.astype(float), "t": mesh.node_t}
        if self.uses_xy:
            env["x"], env["y"] = mesh.node_xy().T
        with np.errstate(all="ignore"):
            out = np.broadcast_to(self._eval(self._tree.body, env), mesh.N).astype(float)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = bad[0]
            raise ExpressionError(
                f"{self.text!r} is not finite at node {i} "
                f"(edge {mesh.node_edge[i]}, t={mesh.node_t[i]:.17g}): {out[i]}")
        return out

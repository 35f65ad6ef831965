"""The benchmark's tracer wraps graphfield callables by name; a rename in
the library must not silently disable a traced layer."""

import importlib
import inspect
import os
import runpy

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_targets():
    # run_path compiles the file in memory and writes no bytecode next to it
    return runpy.run_path(TRACING)["TARGETS"]


@pytest.mark.skipif(not os.path.isfile(TRACING), reason="benchmark not in this checkout")
@pytest.mark.parametrize("module_name, attribute, span", load_targets()
                         if os.path.isfile(TRACING) else [])
def test_tracer_target_resolves(module_name, attribute, span):
    module = importlib.import_module("graphfield." + module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        assert method in vars(getattr(module, cls_name)), f"{attribute} ({span})"
    elif attribute.endswith("*"):
        assert any(a.startswith(attribute[:-1]) and callable(getattr(module, a))
                   for a in vars(module)), f"{attribute} ({span})"
    else:
        assert callable(getattr(module, attribute, None)), f"{attribute} ({span})"


def test_factor_span_reads_the_matrix_as_first_argument():
    # the tracer records the factored matrix's rows from args[1] of
    # SparseCholesky.__init__
    from graphfield.cholesky import SparseCholesky

    params = list(inspect.signature(SparseCholesky.__init__).parameters)
    assert params[:2] == ["self", "A"]

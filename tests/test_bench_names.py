"""The functions the benchmark's traced figures name must exist as it expects.

perfbench/run.py lists the traced figures in PER_LAYER, and
perfbench/layer_trace.py maps each layer to its module in LAYERS.  A figure
`<layer>.<fn>.<figure>` reads the wrapper the tracer puts on the public
function `fn` of that module, and a `.hit_ratio` figure reads its
`cache_info`.  Renaming or un-caching such a function otherwise only shows
as a failed traced run.  Both tables are read with ast, so the benchmark
(and numpy, which its tracer imports) is not imported here.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def module_constant(path, name):
    tree = ast.parse(path.read_text("utf-8"))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


LAYERS = module_constant(PERFBENCH / "layer_trace.py", "LAYERS")
FUNCTION_FIGURES = [
    name
    for name, _ in module_constant(PERFBENCH / "run.py", "PER_LAYER")
    if name.count(".") == 2 and name.split(".")[0] in LAYERS and not name.startswith("cyclotomic.")
]


def test_tables_are_read():
    assert "sl2z_reps.normalize.hit_ratio" in FUNCTION_FIGURES
    assert LAYERS["matrix"] == "moddata._matrix"


@pytest.mark.parametrize("figure", FUNCTION_FIGURES)
def test_figure_names_a_public_function(figure):
    layer, fn, kind = figure.split(".")
    module_name = LAYERS[layer]
    obj = getattr(importlib.import_module(module_name), fn, None)
    # the tracer wraps exactly these: public, callable, defined in the module
    assert not fn.startswith("_")
    assert callable(obj) and not isinstance(obj, type), figure
    assert obj.__module__ == module_name, figure
    if kind == "hit_ratio":
        assert hasattr(obj, "cache_info"), figure

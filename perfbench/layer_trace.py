"""Out-of-program tracing: wrap the public functions of every moddata module.

Each public function is replaced at every name that binds it (its module,
each ``from .x import y`` binding in another moddata module, the package
namespace, and the ``Cyclotomic`` class for methods), so calls made inside
the package go through the wrapper too.

Per metric group the tracer counts outermost calls and sums their inclusive
time. A call whose layer differs from the layer of the innermost open span
opens a span (name, start, end, parent, item); calls within one layer only
count. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# metric layer name -> module; "_matrix" is renamed because metric names
# must start with a letter or digit
LAYERS = {
    "cyclotomic": "moddata.cyclotomic",
    "matrix": "moddata._matrix",
    "modular_data": "moddata.modular_data",
    "galois": "moddata.galois",
    "field_theory": "moddata.field_theory",
    "sl2z_reps": "moddata.sl2z_reps",
    "catalog": "moddata.catalog",
    "classifier": "moddata.classifier",
    "cli": "moddata.cli",
}

# Cyclotomic methods -> metric group; several names may share a group
CYCLOTOMIC_METHODS = {
    "__init__": "init",
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "inverse": "inverse",
    "galois": "galois",
    "conjugate": "conjugate",
    "root_of_unity_log": "rou",
    "root_of_unity_order": "rou",
    "is_root_of_unity": "rou",
}
# module-level functions folded into a Cyclotomic method group
CYCLOTOMIC_FUNCTION_GROUPS = {"sum_cyclotomics": "add", "is_root_of_unity": "rou"}

# lru_cache'd public functions whose cache_info gives a hit ratio
CACHED = (
    ("modular_data", "derived_scalars"),
    ("modular_data", "verlinde_fusion"),
    ("sl2z_reps", "normalize"),
)


def _is_public_function(obj, module_name: str) -> bool:
    """A function (plain or lru_cache'd) defined in the module, not a class."""
    return (
        getattr(obj, "__module__", None) == module_name
        and callable(obj)
        and not isinstance(obj, type)
    )


class Tracer:
    """Installs wrappers, collects counts and spans, and restores on exit."""

    def __init__(self) -> None:
        self.groups: list[str] = []  # "layer.fn" per group id
        self.group_layer: list[int] = []
        self.layers = list(LAYERS)
        self.calls: list[int] = []
        self.total: list[float] = []
        self._depth: list[int] = []
        self.layer_total = [0.0] * len(self.layers)
        self._layer_open = [0] * len(self.layers)
        # spans, one entry per list index
        self.span_group: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_item: list[int] = []
        self._stack_idx = [-1]
        self._stack_layer = [-1]
        self.item = -1
        self._restore: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}

    # -- installation ------------------------------------------------------

    def _group_id(self, name: str, layer_id: int) -> int:
        if name in self.groups:
            return self.groups.index(name)
        self.groups.append(name)
        self.group_layer.append(layer_id)
        self.calls.append(0)
        self.total.append(0.0)
        self._depth.append(0)
        return len(self.groups) - 1

    def _make_wrapper(self, fn, group: int, layer: int):
        calls, total, depth = self.calls, self.total, self._depth
        layer_total, layer_open = self.layer_total, self._layer_open
        s_group, s_start, s_end = self.span_group, self.span_start, self.span_end
        s_parent, s_item = self.span_parent, self.span_item
        stack_idx, stack_layer = self._stack_idx, self._stack_layer
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            outer = not depth[group]
            if outer:
                calls[group] += 1
            depth[group] += 1
            boundary = stack_layer[-1] != layer
            if boundary:
                idx = len(s_group)
                s_group.append(group)
                s_parent.append(stack_idx[-1])
                s_item.append(tracer.item)
                s_start.append(0.0)
                s_end.append(0.0)
                stack_idx.append(idx)
                stack_layer.append(layer)
                layer_outer = not layer_open[layer]
                layer_open[layer] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                depth[group] -= 1
                if outer:
                    total[group] += t1 - t0
                if boundary:
                    s_start[idx] = t0
                    s_end[idx] = t1
                    stack_idx.pop()
                    stack_layer.pop()
                    layer_open[layer] -= 1
                    if layer_outer:
                        layer_total[layer] += t1 - t0

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every public function and Cyclotomic method in place."""
        from moddata.cyclotomic import Cyclotomic

        replacements: dict[int, object] = {}  # id(original) -> wrapper
        for layer_id, (layer, module_name) in enumerate(LAYERS.items()):
            module = importlib.import_module(module_name)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not _is_public_function(obj, module_name):
                    continue
                group = name
                if layer == "cyclotomic":
                    group = CYCLOTOMIC_FUNCTION_GROUPS.get(name, name)
                gid = self._group_id(f"{layer}.{group}", layer_id)
                wrapper = self._make_wrapper(obj, gid, layer_id)
                replacements[id(obj)] = wrapper
                self.wrappers[f"{layer}.{name}"] = wrapper

        cyc_layer = self.layers.index("cyclotomic")
        for name, group in CYCLOTOMIC_METHODS.items():
            attr = Cyclotomic.__dict__[name]
            gid = self._group_id(f"cyclotomic.{group}", cyc_layer)
            if isinstance(attr, property):
                new = property(self._make_wrapper(attr.fget, gid, cyc_layer))
            elif id(attr) in replacements:  # __radd__ is __add__
                new = replacements[id(attr)]
            else:
                new = self._make_wrapper(attr, gid, cyc_layer)
                replacements[id(attr)] = new
            self._restore.append((Cyclotomic, name, attr))
            setattr(Cyclotomic, name, new)

        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "moddata" or module_name.startswith("moddata.")
            ):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "group": np.array(self.span_group, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "item": np.array(self.span_item, dtype=np.int32),
        }

    def self_times(self, items_only: bool = False) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans; over
        the whole traced pass, or over the spans of timed items only."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        own = dur - child
        span_layer = np.array(self.group_layer, dtype=np.int32)[sp["group"]]
        timed = sp["item"] >= 0 if items_only else np.ones(len(dur), dtype=bool)
        return {
            layer: float(own[timed & (span_layer == i)].sum())
            for i, layer in enumerate(self.layers)
        }

    def write_spans(self, path, item_ids: list[str]) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.groups),
            items=np.array(item_ids),
            **self.spans(),
        )

"""Imports in src/moddata stay at module top, none inside a function body
(`if TYPE_CHECKING:` blocks are exempt, since they never run), and none is
`random` or `secrets`: no verdict rests on a random choice.  No module calls
`matmul` or `mat_pow` but `mat_pow` itself: every matrix identity is decided
from residues, and the exact products serve the tests' oracles.  Only
`modular_data._exact_perms` calls `_match_permutation`, and only the two
exact fallbacks, `_SFacts.h_sigma` and `galois.sign_function`, form
`_characters`: h_sigma is read from residues, and matched on character
values only by that one exact loop; the dual is read off the fusion rules,
and the Frobenius-Perron column tests S_ia conj(S_0a).  Only
`_matrix._first_nonzero` sizes a certificate: every other caller states the
terms it multiplies, and one size rule lives in one module.  Inside
`modular_data` only `_SFacts.residues` maps the entries of S through
`_residue`: unitarity, the Verlinde tensor, h_sigma, balancing, S^2, S^4
and (ST)^3 read its tables, each formed once per S and prime, and a bare
matrix's identities read the tables of an `_SFacts` of its own.  `_matrix`
maps no matrix through `_residue`; its identities map only t and c.  Each
identity there takes its matrix as one argument, `facts`, the `_SFacts`
record that holds S, its entries and its tables, and no function takes a
residue `table` apart from its matrix; in `_matrix` and `modular_data`
only `_SFacts.flat` lists the entries of a matrix row by row.
`cyclotomic` imports no `threading`: its per-order tables, `_order_info`,
`_embedding` and `_descent_units`, and its per-radical reduction tables,
`_radical_rows` and `_row_index`, are `lru_cache` functions, not module
dicts written under a lock.  The records that the
public checks take store only independent values, and `Record` compares
every field: `modular_data` defines no `Field` option, `FusionRules` holds
its tensor alone and reads its rank and dual off it, and `ModularRep` reads
its rank off S.
"""

import ast
from pathlib import Path

from moddata import cyclotomic, modular_data
from moddata.modular_data import FusionRules
from moddata.sl2z_reps import ModularRep

SRC = Path(__file__).resolve().parent.parent / "src" / "moddata"

CYCLE_IMPORTS = set()


class _LocalImports(ast.NodeVisitor):
    def __init__(self, filename):
        self.filename = filename
        self.functions = []
        self.found = set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node):
        if isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_Import(self, node):
        if self.functions:
            for alias in node.names:
                self.found.add((self.filename, self.functions[-1], alias.name))

    def visit_ImportFrom(self, node):
        if self.functions:
            self.found.add((self.filename, self.functions[-1], node.module))


def test_only_the_cycle_imports_are_function_local():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _LocalImports(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found |= visitor.found
    assert found == CYCLE_IMPORTS


def test_no_module_imports_a_source_of_randomness():
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):  # from random import ..., from x import random
                imported.add((path.name, (node.module or "").split(".")[0]))
                imported |= {(path.name, alias.name) for alias in node.names}
    assert imported  # the walk saw the imports
    assert {(f, m) for f, m in imported if m in ("random", "secrets")} == set()


def _calls(path, names):
    """(file, enclosing function, name) of each call of a function in names."""
    found = set()

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.add((path.name, function, name))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(ast.parse(path.read_text(), str(path)), None)
    return found


def test_only_mat_pow_calls_an_exact_matrix_product():
    found = set().union(*(_calls(path, ("matmul", "mat_pow")) for path in sorted(SRC.glob("*.py"))))
    assert found == {("_matrix.py", "mat_pow", "matmul")}


def test_only_the_exact_loop_matches_character_columns():
    found = set().union(*(_calls(path, ("_match_permutation",)) for path in sorted(SRC.glob("*.py"))))
    assert found == {("modular_data.py", "_exact_perms", "_match_permutation")}


def test_only_the_exact_fallbacks_form_characters():
    found = set().union(*(_calls(path, ("_characters",)) for path in sorted(SRC.glob("*.py"))))
    assert found == {("modular_data.py", "h_sigma", "_characters"), ("galois.py", "sign_function", "_characters")}


def test_only_first_nonzero_sizes_a_certificate():
    helpers = {
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name.endswith(("_size", "_bound"))
    }
    assert helpers == {("_matrix.py", "_size"), ("_matrix.py", "_bound")}
    found = set().union(*(_calls(path, ("_size", "_bound")) for path in sorted(SRC.glob("*.py"))))
    assert found == {("_matrix.py", "_first_nonzero", "_bound"), ("_matrix.py", "_bound", "_size")}


def _residue_maps(path):
    """The outermost function around each _residue call in path, and around
    each comprehension that maps values through _residue, with its iterable."""
    callers, tables = set(), set()

    def walk(node, parent, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_residue":
            callers.add(function)
        if isinstance(node, ast.comprehension) and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_residue" for sub in ast.walk(parent)
        ):
            tables.add((function, ast.unparse(node.iter)))
        for child in ast.iter_child_nodes(node):
            walk(child, node, function)

    walk(ast.parse(path.read_text(), str(path)), None, None)
    return callers, tables


def test_only_the_s_facts_map_the_entries_of_s_through_residue():
    """In modular_data the table of S in _SFacts.residues, and the twists in
    check_balancing; the other callers map D^2 alone, once.  In _matrix t
    in _st_residues, and c alone in _power_permutation: S^2, S^4 and (ST)^3
    read the tables of their matrix from its _SFacts record."""
    callers, tables = _residue_maps(SRC / "modular_data.py")
    assert callers == {"residues", "_modular_tensor", "_projectively_unitary", "check_balancing"}
    assert tables == {("residues", "self.S"), ("residues", "row"), ("check_balancing", "thetas")}
    callers, tables = _residue_maps(SRC / "_matrix.py")
    assert callers == {"_power_permutation", "_st_residues"}
    assert tables == {("_st_residues", "t")}


IDENTITIES = (
    "_power_permutation", "_square_and_fourth", "_st_residues", "_st_first_nonzero", "_sr_is_zero", "_st_cubed_is"
)


def test_each_identity_takes_the_record_of_its_matrix():
    """No function in _matrix takes a residue table apart from its matrix:
    the six identities take the _SFacts record first, as facts."""
    params = [
        (node.name, [a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)])
        for node in ast.walk(ast.parse((SRC / "_matrix.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert [name for name, args in params if "table" in args] == []
    firsts = {name: args[0] for name, args in params if name in IDENTITIES}
    assert firsts == dict.fromkeys(IDENTITIES, "facts")


def _flattenings(path):
    """The scope (class.function) around each [v for row in m for v in row]
    in path."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.ListComp) and len(node.generators) == 2:
            outer, inner = node.generators
            same = ast.unparse(inner.iter) == ast.unparse(outer.target)
            if same and ast.unparse(node.elt) == ast.unparse(inner.target):
                found.append((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text(), str(path)), ())
    return found


def test_only_the_s_facts_list_the_entries_of_a_matrix():
    found = _flattenings(SRC / "_matrix.py") + _flattenings(SRC / "modular_data.py")
    assert found == [("modular_data.py", "_SFacts.flat")]


def test_the_per_order_tables_are_lru_caches():
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functools" in imported and "threading" not in imported
    tables = ("_order_info", "_radical_rows", "_row_index", "_embedding", "_descent_units")
    assert [name for name in tables if not hasattr(getattr(cyclotomic, name), "cache_info")] == []


def test_records_store_only_independent_values():
    assert not hasattr(modular_data, "Field")
    assert FusionRules.__record_fields__ == ("tensor",)
    assert ModularRep.__record_fields__ == ("S", "level", "t_exponents", "parity", "lam")

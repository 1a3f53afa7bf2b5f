"""The package's lazy names, the command line's BLAS thread pin, and what `src/` holds.

The name and thread checks each run in a fresh interpreter, because both
are about what happens while modules load, which this test process did
long ago.
"""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the three variables at the moment numpy is first looked up, then
# imports the entry point as the installed `latefuse` command does.
ENVIRONMENT_AT_NUMPY_LOAD = """
import json, os, sys
VARS = {vars!r}
seen = {{}}

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{var: os.environ.get(var) for var in VARS}})
        return None

sys.meta_path.insert(0, Spy())
import latefuse.__main__
after = {{var: os.environ.get(var) for var in VARS}}
print(json.dumps({{"at_numpy_load": seen, "after": after}}))
"""


def run_python(code: str, **thread_vars: str):
    """Run `code` in a new interpreter with only `thread_vars` of the three set; parse its JSON output."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS} | thread_vars
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_latefuse_loads_no_numpy():
    assert run_python("import json, sys, latefuse; print(json.dumps('numpy' in sys.modules))") is False


def test_every_public_name_is_its_submodules_object():
    code = """
import importlib, json, latefuse
star = {}
exec("from latefuse import *", star)
print(json.dumps({
    name: [
        getattr(latefuse, name) is getattr(importlib.import_module("latefuse." + latefuse._SUBMODULE[name]), name),
        star.get(name) is getattr(latefuse, name),
    ]
    for name in latefuse.__all__
}))
"""
    resolved = run_python(code)
    assert len(resolved) == 22
    assert {name: [True, True] for name in resolved} == resolved


def test_unknown_attribute_raises_attribute_error():
    code = """
import json, latefuse
try:
    latefuse.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert run_python(code) == "module 'latefuse' has no attribute 'no_such_name'"


def test_entry_point_pins_blas_to_one_thread_before_numpy_loads():
    seen = run_python(ENVIRONMENT_AT_NUMPY_LOAD.format(vars=THREAD_VARS))
    one = {var: "1" for var in THREAD_VARS}
    assert seen == {"at_numpy_load": one, "after": one}


def test_entry_point_keeps_an_explicit_thread_setting():
    seen = run_python(ENVIRONMENT_AT_NUMPY_LOAD.format(vars=THREAD_VARS), OMP_NUM_THREADS="3")
    kept = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
    assert seen == {"at_numpy_load": kept, "after": kept}


def test_library_import_leaves_the_environment_alone():
    code = f"""
import json, os
import latefuse.cli, latefuse.optimizers
print(json.dumps({{var: os.environ.get(var) for var in {THREAD_VARS!r}}}))
"""
    assert run_python(code) == {var: None for var in THREAD_VARS}


def test_every_top_level_definition_in_src_has_a_caller_outside_the_tests():
    """A function or class that only tests call belongs in `tests/`, not in the package."""
    def identifiers(path):
        """Each identifier token of a file, with its line; strings and comments are not references."""
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]

    names = {
        path: identifiers(path)
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unused = []
    for path in sorted((ROOT / "src" / "latefuse").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno + 1)
            if not any(
                name == node.name and not (where == path and line in own)
                for where, tokens in names.items()
                for name, line in tokens
            ):
                unused.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert unused == []


def test_every_name_a_src_module_imports_is_used_there_or_exported():
    """An import left behind by a move (a `ChainMap`, an `asdict`) is dead code."""
    unused = []
    for path in sorted((ROOT / "src" / "latefuse").rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            element.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, ast.List)
            for element in node.value.elts
            if isinstance(element, ast.Constant)
        }
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used - exported)]
    assert unused == []

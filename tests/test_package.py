"""The package's lazy names and the command line's BLAS thread pin.

Each check runs in a fresh interpreter, because both are about what happens
while modules load, which this test process did long ago.
"""

import json
import os
import subprocess
import sys

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
    assert len(resolved) == 24
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

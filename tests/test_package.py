"""The package's empty top level, what the command line sets for its process, and what `src/` holds.

The import, thread and OpenSSL checks each run in a fresh interpreter,
because all are about what happens while modules load, which this test
process did long ago.  The command line pins BLAS to one thread and,
unless this CPython lacks one of hashlib's builtin hash modules, keeps
`_hashlib` and so OpenSSL's libcrypto unloaded; a library import does
neither.  Without OpenSSL a compare writes the same bytes, and a run of a
deterministic method loads no `numpy.random`.  Each name is imported from
the module that defines it: no module re-exports another's names.  Each
exit code but 0 has one exception class.
"""

import ast
import builtins
import importlib.util
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from latefuse import cli
from latefuse.ingestion import IngestionError
from latefuse.optimizers.common import NonFiniteObjectiveError, ParameterError
from oracles import golden_run
from test_readme import library_use_blocks

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


# After `setup` and one draw from a seeded generator, which imports numpy.random and its
# `secrets`, whether `_hashlib` is blocked or loaded and whether libcrypto is mapped.
OPENSSL_AFTER_A_DRAW = """
import json, sys
{setup}
import numpy
numpy.random.default_rng(0).random()
maps = open("/proc/self/maps").read() if sys.platform == "linux" else ""
hashlib = sys.modules.get("_hashlib", "absent")
print(json.dumps({{"blocked": hashlib is None, "loaded": hashlib not in (None, "absent"), "libcrypto": "libcrypto" in maps}}))
"""


def run_python(code: str, **thread_vars: str):
    """Run `code` in a new interpreter with only `thread_vars` of the three set; parse its JSON output.

    The interpreter must exit 0 and write nothing to stderr.
    """
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS} | thread_vars
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


def test_import_latefuse_loads_no_numpy():
    assert run_python("import json, sys, latefuse; print(json.dumps('numpy' in sys.modules))") is False


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


def test_entry_point_keeps_openssl_unloaded():
    seen = run_python(OPENSSL_AFTER_A_DRAW.format(setup="import latefuse.__main__"))
    assert seen == {"blocked": True, "loaded": False, "libcrypto": False}


@pytest.mark.parametrize(
    "setup",
    # without `_md5`, a blocked `_hashlib` would make `import hashlib` log an error per algorithm,
    # and run_python fails on any stderr output
    ["import latefuse.cli", 'sys.modules["_md5"] = None\nimport latefuse.__main__'],
    ids=["library-import", "entry-point-without-a-builtin-hash-module"],
)
def test_hashlib_loads_as_usual(setup):
    seen = run_python(OPENSSL_AFTER_A_DRAW.format(setup=setup))
    assert not seen["blocked"]
    assert seen["loaded"] == (importlib.util.find_spec("_hashlib") is not None)


def test_compare_without_openssl_writes_what_the_library_writes(tmp_path):
    in_process = golden_run(tmp_path)  # the suite's 150x5 data under tmp_path / "data"
    data = tmp_path / "data"
    command = tmp_path / "command"
    proc = subprocess.run(
        [sys.executable, "-m", "latefuse", "compare", "--methods", "all", "--seed", "0",
         "--dev", str(data / "dev"), "--test", str(data / "test"),
         "--truth", str(data / "dev" / "ground_truth.csv"), str(data / "test" / "ground_truth.csv"),
         "--out", str(command)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def written(out):
        """Each file's bytes, without the manifests' out_dir and the summaries' wall_time."""
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        for name in [name for name in files if name.endswith("/manifest.json")]:
            files[name] = b"".join(line for line in files[name].splitlines(True) if b'"out_dir"' not in line)
        csv = files.pop("summary.csv").decode()
        files["summary.csv"] = [line.rpartition(",")[0] for line in csv.splitlines()]  # wall_time is last
        rows = json.loads(files.pop("summary.json"))
        files["summary.json"] = [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]
        return files

    assert written(command) == written(in_process)


def test_deterministic_runs_load_no_numpy_random(dataset_pair, tmp_path):
    """numpy loads `random` lazily, and only pso and ga draw: the others save its 2.4 MB of peak RSS."""
    dev, test = dataset_pair
    argv = ["--dev", str(dev.inducer_paths[0].parent), "--test", str(test.inducer_paths[0].parent),
            "--truth", str(dev.truth_path), str(test.truth_path)]
    code = f"""
import contextlib, io, json, sys
from latefuse.__main__ import main
codes = []
for method in ("equal", "nelder-mead", "trust-region", "lbfgsb", "tnc"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["run", "--method", method, *{argv!r}, "--out", {str(tmp_path)!r} + "/" + method]))
print(json.dumps({{"codes": codes, "numpy.random": "numpy.random" in sys.modules}}))
"""
    assert run_python(code) == {"codes": [0] * 5, "numpy.random": False}


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


def test_every_name_a_src_module_imports_is_used_there():
    """An import left behind by a move (a `ChainMap`, an `asdict`) is dead code, and so is a re-export."""
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
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def module_file(module: str) -> Path | None:
    """The source file of a `latefuse` module, or None if there is none."""
    base = ROOT / "src" / Path(*module.split("."))
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py") if p.is_file()), None)


def defined_names(path: Path) -> set[str]:
    """The names a module's top level defines: its defs, classes and assignment targets, not its imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_imported_name_comes_from_the_module_that_defines_it():
    """`from latefuse... import name` names the module that defines `name`, or `name` is its submodule."""
    sources = [
        (path.relative_to(ROOT), path.read_text())
        for folder in ("src", "tests", "scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources += [(f"README.md, library block {i}", block) for i, block in enumerate(library_use_blocks(), start=1)]
    wrong = []
    for where, text in sources:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module
            if node.level:  # relative, so `where` is a file of the package
                package = where.parent.parts[1:]
                module = ".".join([*package[: len(package) - node.level + 1], *filter(None, [node.module])])
            if module.split(".")[0] != "latefuse":
                continue
            defined = defined_names(module_file(module))
            for alias in node.names:
                if alias.name not in defined and module_file(f"{module}.{alias.name}") is None:
                    wrong.append(f"{where}: from {module} import {alias.name}")
    assert wrong == []


def test_src_defines_one_exception_class_per_exit_code(tmp_path, monkeypatch, capsys):
    """A usage error, a data error and an abort each have one class, which `main` turns into its exit code."""
    classes = [
        node
        for path in sorted((ROOT / "src" / "latefuse").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]

    def is_error(base: str, errors: set[str]) -> bool:
        builtin = getattr(builtins, base, None)
        return base in errors or isinstance(builtin, type) and issubclass(builtin, BaseException)

    errors: set[str] = set()
    while True:  # the classes whose base is a builtin exception or a class already found
        found = {c.name for c in classes for b in c.bases if is_error(ast.unparse(b).rpartition(".")[2], errors)}
        if found == errors:
            break
        errors = found
    assert errors == {"ParameterError", "IngestionError", "NonFiniteObjectiveError"}

    argv = ["run", "--method", "equal", "--dev", "d", "--test", "t", "--truth", "g", "--out", str(tmp_path / "o")]
    for error, code, prefix in [
        (ParameterError("bad flag"), cli.EXIT_USAGE, "usage error: bad flag"),
        (IngestionError("bad file"), cli.EXIT_DATA, "data error: bad file"),
        (NonFiniteObjectiveError([0.5], float("nan")), cli.EXIT_ABORT, "optimization aborted: non-finite objective"),
    ]:
        def fail(manifest, error=error):
            raise error

        monkeypatch.setattr(cli, "prepare", fail)
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith(prefix)

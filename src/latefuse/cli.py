"""Command-line pipeline: ingest, normalize, search weights, evaluate, report.

Exit codes: 0 success, 2 usage error (`ParameterError`), 3 data error
(`IngestionError`, or a `ValueError` or `OSError`), 4 optimization abort
(`NonFiniteObjectiveError`).
Every artifact's fields are laid out in one place, `_artifacts`, and rendered
by one JSON and one CSV helper.  All artifacts are written atomically (temp
file then rename) and a failed run removes whatever it had already written
to the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .evaluation import EvalReport, map_at_k
from .fusion import Objective, fuse, make_mse_objective
from .ingestion import (
    IngestionError,
    InducerTable,
    Key,
    ScoreMatrix,
    apply_minmax,
    assemble,
    fit_minmax,
    load_ground_truth,
    read_inducer_csv,
)
from .optimizers import METHODS, check, optimize
from .optimizers.common import CONFIG_SETTINGS, SEED, NonFiniteObjectiveError, OptimizerReport, ParameterError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ABORT = 4

GROUND_TRUTH_BASENAME = "ground_truth.csv"


@dataclass
class RunManifest:
    method: str
    dev_paths: list[str]
    test_paths: list[str]
    truth_paths: list[str]
    out_dir: str
    k: int = 10
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check(self.method, self.overrides)
        SEED.check("seed", self.seed)
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if not self.dev_paths or not self.test_paths or not self.truth_paths:
            raise ParameterError("dev, test, and truth paths are all required")
        for name in ("dev_paths", "test_paths", "truth_paths"):
            setattr(self, name, [_absolute(path, name) for path in getattr(self, name)])
        self.out_dir = _absolute(self.out_dir, "out_dir")

    @classmethod
    def from_dict(cls, doc) -> "RunManifest":
        """Rebuild a manifest from its JSON echo; each field must be known and have its JSON type."""
        if not isinstance(doc, dict):
            raise ParameterError(f"manifest must be a JSON object, got {type(doc).__name__}")
        unknown = [key for key in doc if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise ParameterError(f"manifest has unknown field {unknown[0]!r}")
        values = {}
        for f in fields(cls):
            if f.name in doc:
                if not _is_json_type(doc[f.name], f.type):
                    raise ParameterError(f"manifest field {f.name!r} must be {f.type}, got {doc[f.name]!r}")
                values[f.name] = doc[f.name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ParameterError(f"manifest is missing field {f.name!r}")
        return cls(**values)


def _absolute(path: str, name: str) -> str:
    """`path` made absolute against the working directory; an empty one would name that directory."""
    if not path:
        raise ParameterError(f"{name} has an empty path")
    try:
        return str(Path(path).resolve())
    except RuntimeError:  # Python < 3.13 raises this for a symlink loop
        raise IngestionError(f"{name} path {path!r} is a symlink loop") from None


def _is_json_type(value, annotation: str) -> bool:
    if annotation == "list[str]":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kind = {"str": str, "int": int, "dict": dict}[annotation]
    return isinstance(value, kind) and not isinstance(value, bool)  # JSON true is not an int


@dataclass
class RunResult:
    manifest: RunManifest
    report: OptimizerReport
    eval_report: EvalReport
    norm_params: dict[str, tuple[float, float]]
    inducer_names: list[str]
    wall_time: float


def expand_inducer_paths(entries: list[str]) -> list[Path]:
    """Expand directories to their .csv members; truth files are skipped."""
    paths: list[Path] = []
    for entry in entries:
        p = Path(entry)
        if p.is_dir():
            found = sorted(q for q in p.glob("*.csv") if q.name != GROUND_TRUTH_BASENAME)
            if not found:
                raise IngestionError(f"no inducer csv files in directory {p}")
            paths.extend(found)
        elif p.exists():
            paths.append(p)
        else:
            raise IngestionError(f"input path does not exist: {p}")
    return paths


def load_split(entries: list[str]) -> list[InducerTable]:
    """Read a split's inducer files, sorted by name.

    Equal keys are interned: every table points at the first copy of each
    (video_id, image_id) tuple read, so a split keeps one copy of the key
    column that its files repeat, whatever order each file lists it in.
    Tables whose files list their rows in the same order share one ``keys``
    list, so a split holds one key list per row order; callers must not
    mutate a table's ``keys``.
    """
    canon: dict[Key, Key] = {}
    orders: list[list[Key]] = []  # the distinct key lists read so far
    tables: list[InducerTable] = []
    first: dict[str, Path] = {}  # the file that first held each inducer name (its stem)
    for path in expand_inducer_paths(entries):
        if path.stem in first:
            raise IngestionError(f"duplicate inducer name {path.stem!r} in split: {path} repeats {first[path.stem]}")
        first[path.stem] = path
        table = read_inducer_csv(path)
        keys = list(map(canon.setdefault, table.keys, table.keys))
        # equal interned keys are the same objects, so == compares pointers
        table.keys = next((order for order in orders if order == keys), keys)
        if table.keys is keys:
            orders.append(keys)
        tables.append(table)
    return sorted(tables, key=lambda t: t.inducer_name)


Prepared = tuple[Objective, ScoreMatrix, dict[str, tuple[float, float]]]


def prepare(manifest: RunManifest) -> Prepared:
    """Parse, align and normalize the manifest's data into (dev objective, test, norm params); writes nothing."""
    dev_tables = load_split(manifest.dev_paths)
    test_tables = load_split(manifest.test_paths)
    dev_names = [t.inducer_name for t in dev_tables]
    test_names = [t.inducer_name for t in test_tables]
    if dev_names != test_names:
        raise IngestionError(
            f"dev and test inducer sets differ: dev={dev_names} test={test_names}"
        )

    truth = load_ground_truth(manifest.truth_paths)
    dev = assemble(dev_tables, truth)
    test = assemble(test_tables, truth)
    ranges = fit_minmax(dev)
    return make_mse_objective(apply_minmax(ranges, dev)), apply_minmax(ranges, test), ranges


def fit(data: Prepared, manifest: RunManifest) -> RunResult:
    """Search weights on the dev objective and evaluate them on the test matrix; writes nothing."""
    objective, test, norm_params = data
    started = time.perf_counter()
    report = optimize(manifest.method, objective, manifest.overrides, manifest.seed)
    wall_time = time.perf_counter() - started

    eval_report = map_at_k(fuse(report.best_weights, test), test, manifest.k)
    return RunResult(manifest, report, eval_report, norm_params, list(test.inducer_names), wall_time)


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _atomic(text: str, final: Path, created: list[Path]) -> None:
    tmp = final.with_name(final.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, final)
        created.append(final)
    finally:
        tmp.unlink(missing_ok=True)


def _write_all(texts: dict[Path, str]) -> None:
    """Write each file atomically, every directory made first; on failure remove what was made."""
    made: list[Path] = []
    created: list[Path] = []
    try:
        for directory in dict.fromkeys(path.parent for path in texts):
            for d in [*reversed(directory.parents), directory]:
                if not d.is_dir():
                    d.mkdir()  # a file in the way raises here, before any artifact is written
                    made.append(d)
        for path, text in texts.items():
            _atomic(text, path, created)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _artifacts(results: list[RunResult], summary_dir: Path | None = None) -> dict[Path, str]:
    """Every artifact file of the runs, by path, each with its text; with `summary_dir`, the summary too.

    This is the one place that lays out an artifact's fields.
    """
    texts: dict[Path, str] = {}
    for result in results:
        manifest, report, ev = result.manifest, result.report, result.eval_report
        out = Path(manifest.out_dir)
        ranges = sorted(result.norm_params.items())  # names sorted, "max" before "min": sorted keys
        texts[out / "manifest.json"] = _json(asdict(manifest))
        texts[out / "norm_params.json"] = _json({name: {"max": hi, "min": lo} for name, (lo, hi) in ranges})
        texts[out / "weights.json"] = _json(
            {"inducer_names": result.inducer_names, "weights": report.best_weights.tolist()}
        )
        texts[out / "optimizer_report.json"] = _json({
            "method": report.method,
            "seed": report.seed,
            "config": {
                "dimension": len(report.best_weights),
                **{key: report.settings[key] for key in CONFIG_SETTINGS},
                "seed": report.seed,
                # the settings the run was given, in their order: the manifest's overrides
                "method_params": {k: v for k, v in manifest.overrides.items() if k not in CONFIG_SETTINGS},
            },
            "best_weights": report.best_weights.tolist(),
            "best_objective": report.best_objective,
            "function_evaluations": report.function_evaluations,
            "gradient_evaluations": report.gradient_evaluations,
            "iterations": report.iterations,
            "converged": report.converged,
            "trace": report.trace,  # (iteration, best_objective) pairs, as JSON arrays
        })
        texts[out / "eval_report.json"] = _json({
            "map_at_k": ev.map_at_k,
            "k": ev.k,
            "per_group": [
                {"video_id": vid, "ap_at_k": ap, "num_relevant": rel} for vid, ap, rel in ev.per_group
            ],
        })
        texts[out / "eval_report.csv"] = _csv(["video_id", f"ap_at_{ev.k}", "num_relevant"], ev.per_group)
    if summary_dir is not None:
        header = ["method", "dev_mse", f"test_map_at_{results[0].manifest.k}", "evaluations", "wall_time"]
        rows = [
            dict(zip(header, (r.manifest.method, r.report.best_objective, r.eval_report.map_at_k,
                              r.report.function_evaluations, round(r.wall_time, 3))))
            for r in results
        ]
        texts[summary_dir / "summary.csv"] = _csv(header, (row.values() for row in rows))
        texts[summary_dir / "summary.json"] = _json(rows)
    return texts


def _line(result: RunResult) -> str:
    """A run's one stdout line: its method, dev MSE and test MAP@k."""
    return (
        f"{result.manifest.method}: dev_mse={result.report.best_objective!r} "
        f"test_map_at_{result.manifest.k}={result.eval_report.map_at_k!r}"
    )


def run(manifest: RunManifest) -> RunResult:
    result = fit(prepare(manifest), manifest)
    _write_all(_artifacts([result]))
    return result


def compare(
    methods: list[str], dev_paths: list[str], test_paths: list[str], truth_paths: list[str],
    out_dir: str | Path, k: int = 10, seed: int = 0, overrides: dict | None = None,
) -> list[RunResult]:
    """Fit each method on one dataset, prepared once; method m writes to `<out_dir>/m`, plus a summary table.

    Each method's `RunManifest` makes the paths absolute, as a run's does, so
    an empty path is a usage error.  A plain key of `overrides` reaches every
    method, a `method.key` one only that method, and wins there.  Repeated
    methods are dropped, keeping the order.  Every method, setting and path is
    checked before any file is read, and every fit succeeds before any write.
    """
    if not methods:
        raise ParameterError("no methods selected")
    methods = list(dict.fromkeys(methods))
    overrides = overrides or {}
    for key in overrides:
        head, sep, _ = key.partition(".")
        if sep and head in METHODS and head not in methods:
            raise ParameterError(f"--set {key!r} targets a method not selected for this compare")
    out = Path(_absolute(str(out_dir), "out_dir"))
    manifests = [
        RunManifest(m, dev_paths, test_paths, truth_paths, str(out / m), k, seed, _scoped_overrides(m, overrides))
        for m in methods
    ]

    data = prepare(manifests[0])
    results = [fit(data, m) for m in manifests]

    _write_all(_artifacts(results, out))  # one transaction: a failed write removes every method's files
    return results


def parse_set_values(pairs: list[str]) -> dict:
    """Parse repeated --set key=value flags; values are int or float, and an integer int() refuses is an error."""
    overrides: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key or not raw:
            raise ParameterError(f"--set expects key=value, got {pair!r}")
        try:
            value: float = int(raw)
        except ValueError as exc:
            if raw.lstrip("+-").replace("_", "").isdecimal():  # an integer int() refuses, past its digit limit
                raise ParameterError(f"--set value for {key!r} is not a readable integer: {exc}") from None
            try:
                value = float(raw)
            except ValueError:
                raise ParameterError(f"--set value for {key!r} must be numeric, got {raw!r}") from None
        overrides[key] = value
    return overrides


def _scoped_overrides(method: str, overrides: dict) -> dict:
    """Resolve `method.key` scoping: keep plain keys plus this method's own, which win."""
    resolved: dict = {}
    for key, value in overrides.items():
        head, sep, rest = key.partition(".")
        if sep and head in METHODS:
            if head == method:
                resolved[rest] = value
        else:
            resolved.setdefault(key, value)  # a key scoped to this method wins, in any flag order
    return resolved


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Learn late-fusion weights on a dev split and rank a test split.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p: argparse.ArgumentParser) -> None:
        # a None default marks a flag as not given; _data_flags leaves the real defaults in place
        paths = {"nargs": "+", "action": "extend", "metavar": "PATH"}  # repeats add up
        p.add_argument("--dev", **paths, help="dev inducer csv files or directories")
        p.add_argument("--test", **paths, help="test inducer csv files or directories")
        p.add_argument("--truth", **paths, help="ground truth csv file(s), merged")
        p.add_argument("--k", type=int, help="ranking cutoff (default 10)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--out", required=True, metavar="DIR", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="optimizer override; repeatable (compare also accepts method.key=value)",
        )

    run_p = sub.add_parser("run", help="run one method end to end")
    run_p.add_argument("--method", choices=sorted(METHODS), help="weight-search method")
    run_p.add_argument("--manifest", metavar="FILE", help="rerun from a manifest echo instead of flags")
    add_data_flags(run_p)

    cmp_p = sub.add_parser("compare", help="run several methods on the same data")
    cmp_p.add_argument(
        "--methods",
        default="all",
        help="comma-separated method list, or 'all' (default)",
    )
    add_data_flags(cmp_p)
    return parser


def _data_flags(args: argparse.Namespace) -> dict:
    """The data flags' values as keyword arguments; an unset --k or --seed keeps its default, an unset path is None."""
    given = {name: getattr(args, name) for name in ("k", "seed") if getattr(args, name) is not None}
    return dict(dev_paths=args.dev, test_paths=args.test, truth_paths=args.truth, **given)


# The run flags a manifest stands in for; --out, which a run requires, replaces its out_dir.
_MANIFEST_FLAGS = ("method", "dev", "test", "truth", "k", "seed", "set")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.manifest:
        given = [f"--{flag}" for flag in _MANIFEST_FLAGS if getattr(args, flag) is not None]
        if given:
            raise ParameterError(f"--manifest cannot be combined with {', '.join(given)}; only --out may be")
        data = Path(args.manifest).read_bytes()  # an unreadable file is a data error
        try:
            doc = json.loads(data.decode("utf-8"))  # bytes would let json guess UTF-16 or UTF-32
        except (ValueError, RecursionError) as exc:  # as for bad flags: not UTF-8, bad JSON, too deep, an over-long int
            raise ParameterError(f"manifest {args.manifest} is not valid JSON: {exc}") from None
        if isinstance(doc, dict):
            doc["out_dir"] = args.out  # --out is required and replaces the echo's own
        manifest = RunManifest.from_dict(doc)
    else:
        if not args.method:
            raise ParameterError("either --method or --manifest is required")
        manifest = RunManifest(args.method, out_dir=args.out, overrides=parse_set_values(args.set or []),
                               **_data_flags(args))
    print(f"{_line(run(manifest))} -> {manifest.out_dir}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.methods.strip() == "all":
        methods = list(METHODS)
    else:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = compare(methods, out_dir=args.out, overrides=parse_set_values(args.set or []), **_data_flags(args))
    for r in results:
        print(_line(r))
    print(f"summary -> {Path(args.out).resolve() / 'summary.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteObjectiveError as exc:
        print(f"optimization aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (IngestionError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())

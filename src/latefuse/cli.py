"""Command-line pipeline: ingest, normalize, search weights, evaluate, report.

Exit codes: 0 success, 2 usage error, 3 data error, 4 optimization abort.
Every artifact's text is rendered here, by one JSON and one CSV helper.  All
artifacts are written atomically (temp file then rename) and a failed run
removes whatever it had already written to the output directory.
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
from .fusion import fuse, make_mse_objective
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
from .optimizers import (
    METHODS,
    NonFiniteObjectiveError,
    OptimizerReport,
    ParameterError,
    check,
    optimize,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ABORT = 4

GROUND_TRUTH_BASENAME = "ground_truth.csv"


class UsageError(ValueError):
    """Bad flags or option values; maps to exit code 2."""


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
    trace: bool = False

    def __post_init__(self) -> None:
        try:
            check(self.method, self.overrides)
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        if self.k < 1:
            raise UsageError("k must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not self.dev_paths or not self.test_paths or not self.truth_paths:
            raise UsageError("dev, test, and truth paths are all required")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "RunManifest":
        """Rebuild a manifest from its JSON echo; each field must be known and have its JSON type."""
        if not isinstance(doc, dict):
            raise UsageError(f"manifest must be a JSON object, got {type(doc).__name__}")
        unknown = [key for key in doc if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise UsageError(f"manifest has unknown field {unknown[0]!r}")
        values = {}
        for f in fields(cls):
            if f.name in doc:
                if not _is_json_type(doc[f.name], f.type):
                    raise UsageError(f"manifest field {f.name!r} must be {f.type}, got {doc[f.name]!r}")
                values[f.name] = doc[f.name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise UsageError(f"manifest is missing field {f.name!r}")
        return cls(**values)


def _is_json_type(value, annotation: str) -> bool:
    if annotation == "list[str]":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kind = {"str": str, "int": int, "bool": bool, "dict": dict}[annotation]
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


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
    """
    canon: dict[Key, Key] = {}
    tables: list[InducerTable] = []
    for path in expand_inducer_paths(entries):
        table = read_inducer_csv(path)
        table.keys = list(map(canon.setdefault, table.keys, table.keys))
        tables.append(table)
    seen: set[str] = set()
    for t in tables:
        if t.inducer_name in seen:
            raise IngestionError(f"duplicate inducer name {t.inducer_name!r} in split")
        seen.add(t.inducer_name)
    return sorted(tables, key=lambda t: t.inducer_name)


Prepared = tuple[ScoreMatrix, ScoreMatrix, dict[str, tuple[float, float]]]


def prepare(manifest: RunManifest) -> Prepared:
    """Parse, align and normalize the manifest's data into (dev, test, norm params); writes nothing."""
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
    return apply_minmax(ranges, dev), apply_minmax(ranges, test), ranges


def fit(data: Prepared, manifest: RunManifest) -> RunResult:
    """Search weights on the dev matrix and evaluate them on the test matrix; writes nothing."""
    dev, test, norm_params = data
    objective = make_mse_objective(dev)
    started = time.perf_counter()
    report = optimize(manifest.method, objective, manifest.overrides, manifest.seed)
    wall_time = time.perf_counter() - started

    fused_test = fuse(report.best_weights, test)
    eval_report = map_at_k(fused_test, test, manifest.k)
    return RunResult(manifest, report, eval_report, norm_params, list(dev.inducer_names), wall_time)


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


def _artifacts(result: RunResult) -> dict[Path, str]:
    """One run's artifact files, by path, each with its text."""
    report, ev = result.report, result.eval_report
    ranges = sorted(result.norm_params.items())  # names sorted, "max" before "min": sorted keys
    texts = {
        "manifest.json": _json(result.manifest.to_dict()),
        "norm_params.json": _json({name: {"max": hi, "min": lo} for name, (lo, hi) in ranges}),
        "weights.json": _json({"inducer_names": result.inducer_names, "weights": report.best_weights.tolist()}),
        "optimizer_report.json": _json(report.to_dict()),
        "eval_report.json": _json(ev.to_dict()),
        "eval_report.csv": _csv(["video_id", f"ap_at_{ev.k}", "num_relevant"], ev.per_group),
    }
    if result.manifest.trace:
        texts["trace.csv"] = _csv(["iteration", "best_objective"], report.trace)
    out = Path(result.manifest.out_dir)
    return {out / name: text for name, text in texts.items()}


def run(manifest: RunManifest) -> RunResult:
    result = fit(prepare(manifest), manifest)
    _write_all(_artifacts(result))
    return result


def compare(manifests: list[RunManifest], out_dir: str | Path) -> list[RunResult]:
    """Fit several methods on one dataset, prepared once, and write a summary table."""
    if not manifests:
        raise UsageError("compare needs at least one manifest")
    first = manifests[0]
    out_dirs: set[Path] = set()
    for m in manifests:
        same = (
            m.dev_paths == first.dev_paths
            and m.test_paths == first.test_paths
            and m.truth_paths == first.truth_paths
            and m.k == first.k
        )
        if not same:
            raise UsageError("compare manifests must share dev, test, truth, and k")
        out = Path(m.out_dir).resolve()
        if out in out_dirs:  # a later method's artifacts would overwrite an earlier one's
            raise UsageError(f"compare manifests must not share an out_dir: {m.out_dir}")
        out_dirs.add(out)

    data = prepare(first)
    results = [fit(data, m) for m in manifests]  # every fit succeeds before any write

    header = ["method", "dev_mse", f"test_map_at_{first.k}", "evaluations", "wall_time"]
    rows = [
        dict(zip(header, (r.manifest.method, r.report.best_objective, r.eval_report.map_at_k,
                          r.report.function_evaluations, round(r.wall_time, 3))))
        for r in results
    ]
    texts = {path: text for r in results for path, text in _artifacts(r).items()}
    out = Path(out_dir)
    texts[out / "summary.csv"] = _csv(header, (row.values() for row in rows))
    texts[out / "summary.json"] = _json(rows)
    _write_all(texts)  # one transaction: a failed write removes every method's files
    return results


def parse_set_values(pairs: list[str]) -> dict:
    """Parse repeated --set key=value flags; values are int or float."""
    overrides: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key or not raw.strip():
            raise UsageError(f"--set expects key=value, got {pair!r}")
        raw = raw.strip()
        try:
            value: float = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise UsageError(f"--set value for {key!r} must be numeric, got {raw!r}") from None
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
        # a None default marks a flag as not given; _manifest_from_args applies the real defaults
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
        p.add_argument("--trace", action="store_true", default=None, help="also write per-iteration trace.csv")

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


def _manifest_from_args(
    args: argparse.Namespace, method: str, out_dir: str, overrides: dict
) -> RunManifest:
    if not args.dev or not args.test or not args.truth:
        raise UsageError("--dev, --test, and --truth are required")
    return RunManifest(
        method=method,
        dev_paths=[str(Path(p).resolve()) for p in args.dev],
        test_paths=[str(Path(p).resolve()) for p in args.test],
        truth_paths=[str(Path(p).resolve()) for p in args.truth],
        out_dir=str(Path(out_dir).resolve()),
        k=10 if args.k is None else args.k,
        seed=0 if args.seed is None else args.seed,
        overrides=overrides,
        trace=bool(args.trace),
    )


# The run flags a manifest stands in for; --out may still redirect its output.
_MANIFEST_FLAGS = ("method", "dev", "test", "truth", "k", "seed", "set", "trace")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.manifest:
        given = [f"--{flag}" for flag in _MANIFEST_FLAGS if getattr(args, flag) is not None]
        if given:
            raise UsageError(f"--manifest cannot be combined with {', '.join(given)}; only --out may be")
        text = Path(args.manifest).read_text(encoding="utf-8")  # an unreadable file is a data error
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:  # the manifest stands in for the flags
            raise UsageError(f"manifest {args.manifest} is not valid JSON: {exc}") from None
        manifest = RunManifest.from_dict(doc)
        if args.out:
            manifest.out_dir = str(Path(args.out).resolve())
    else:
        if not args.method:
            raise UsageError("either --method or --manifest is required")
        manifest = _manifest_from_args(args, args.method, args.out, parse_set_values(args.set or []))
    result = run(manifest)
    k = manifest.k
    print(
        f"{manifest.method}: dev_mse={result.report.best_objective!r} "
        f"test_map_at_{k}={result.eval_report.map_at_k!r} -> {manifest.out_dir}"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.methods.strip() == "all":
        methods = list(METHODS)
    else:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods selected")
    methods = list(dict.fromkeys(methods))  # drop repeats, keep the order

    overrides = parse_set_values(args.set or [])
    for key in overrides:
        head, sep, _ = key.partition(".")
        if sep and head in METHODS and head not in methods:
            raise UsageError(f"--set {key!r} targets a method not selected for this compare")
    out_root = Path(args.out).resolve()
    # each manifest checks its method and settings, so all are checked before any parse
    manifests = [
        _manifest_from_args(args, m, str(out_root / m), _scoped_overrides(m, overrides))
        for m in methods
    ]

    results = compare(manifests, out_root)
    k = manifests[0].k
    for r in results:
        print(
            f"{r.manifest.method}: dev_mse={r.report.best_objective!r} "
            f"test_map_at_{k}={r.eval_report.map_at_k!r}"
        )
    print(f"summary -> {out_root / 'summary.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteObjectiveError as exc:
        print(f"optimization aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (IngestionError, ValueError, OSError) as exc:  # UndefinedMetricError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())

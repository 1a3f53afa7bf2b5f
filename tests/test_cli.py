import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from latefuse import cli
from latefuse.cli import (
    EXIT_ABORT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    RunManifest,
    UsageError,
    compare,
    main,
    parse_set_values,
)
from latefuse.fusion import mse
from latefuse.ingestion import (
    apply_minmax,
    assemble,
    load_ground_truth,
    read_inducer_csv,
)
from latefuse.optimizers import METHODS, optimize
from latefuse.optimizers.common import CONFIG_SETTINGS, NonFiniteObjectiveError
from latefuse.synth import SynthSpec, generate
from oracles import generate_perfect_inducer

ARTIFACTS = [
    "manifest.json",
    "norm_params.json",
    "weights.json",
    "optimizer_report.json",
    "eval_report.json",
    "eval_report.csv",
]


def data_flags(pair, out, extra=()):
    dev, test = pair
    return [
        "--dev", str(dev.inducer_paths[0].parent),
        "--test", str(test.inducer_paths[0].parent),
        "--truth", str(dev.truth_path), str(test.truth_path),
        "--out", str(out),
        *extra,
    ]


def read_bytes(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


def read_weights(out_dir):
    doc = json.loads((out_dir / "weights.json").read_text())
    return doc["inducer_names"], np.array(doc["weights"])


def read_norm_params(out_dir):
    doc = json.loads((out_dir / "norm_params.json").read_text())
    return {name: (entry["min"], entry["max"]) for name, entry in doc.items()}


# ---------------------------------------------------------------- run

def test_run_equal_writes_uniform_weights(dataset_pair, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--method", "equal", *data_flags(dataset_pair, out)])
    assert code == EXIT_OK
    names, weights = read_weights(out)
    assert len(names) == 4
    assert np.all(weights == 0.25)
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS)
    line = capsys.readouterr().out
    assert "equal:" in line and "dev_mse=" in line and "test_map_at_10=" in line


def test_run_same_seed_twice_is_byte_identical(dataset_pair, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(
            ["run", "--method", "pso", "--seed", "42",
             "--set", "stagnation_window=20", "--set", "swarm_size=40",
             *data_flags(dataset_pair, out)]
        )
        assert code == EXIT_OK
        # manifest.json embeds the output directory, so compare the rest
        outs.append(read_bytes(out, [n for n in ARTIFACTS if n != "manifest.json"]))
    assert outs[0] == outs[1]


def test_run_tnc_on_perfect_inducer_reaches_zero(tmp_path):
    dev = generate_perfect_inducer(120, 5, 10, seed=3, out_dir=tmp_path / "dev", key_prefix="d")
    test = generate_perfect_inducer(60, 5, 6, seed=4, out_dir=tmp_path / "test", key_prefix="t")
    out = tmp_path / "out"
    code = main(["run", "--method", "tnc", *data_flags((dev, test), out)])
    assert code == EXIT_OK
    report = json.loads((out / "optimizer_report.json").read_text())
    assert report["best_objective"] <= 1e-6
    assert report["converged"] is True


def test_run_manifest_rerun_reproduces_artifacts(dataset_pair, tmp_path):
    out_a = tmp_path / "a"
    code = main(
        ["run", "--method", "ga", "--seed", "9",
         "--set", "population_size=30", "--set", "stagnation_window=15",
         *data_flags(dataset_pair, out_a)]
    )
    assert code == EXIT_OK
    first = read_bytes(out_a, ARTIFACTS)

    out_b = tmp_path / "b"
    code = main(["run", "--manifest", str(out_a / "manifest.json"), "--out", str(out_b)])
    assert code == EXIT_OK
    second = read_bytes(out_b, ARTIFACTS)

    first.pop("manifest.json")
    second.pop("manifest.json")  # differs only in out_dir
    assert first == second


@pytest.mark.parametrize(
    "flags, config",
    [
        (
            ["--set", "tolerance=1", "--set", "max_iterations=3000", "--set", "swarm_size=50"],
            {"dimension": 4, "max_iterations": 3000, "tolerance": 1, "seed": 3,
             "method_params": {"swarm_size": 50}},
        ),
        (
            [],
            {"dimension": 4, "max_iterations": 10000, "tolerance": 1e-8, "seed": 3, "method_params": {}},
        ),
    ],
    ids=["with-set", "no-set"],
)
def test_run_report_config_block_is_pinned(dataset_pair, tmp_path, flags, config):
    # the config block: keys in order, settings as given (an int tolerance stays an int)
    out = tmp_path / "o"
    code = main(["run", "--method", "pso", "--seed", "3", *flags, *data_flags(dataset_pair, out)])
    assert code == EXIT_OK
    doc = json.loads((out / "optimizer_report.json").read_text())
    assert list(doc)[:3] == ["method", "seed", "config"]
    assert doc["seed"] == 3
    assert list(doc["config"].items()) == list(config.items())
    assert [type(v) for v in doc["config"].values()] == [type(v) for v in config.values()]


@pytest.mark.parametrize(
    "flags",
    [["--method", "pso"], ["--dev", "d.csv"], ["--test", "t.csv"], ["--truth", "g.csv"],
     ["--k", "10"], ["--seed", "0"], ["--set", "max_iterations=5"],
     ["--method", "pso", "--seed", "9", "--k", "3"]],
    ids=" ".join,
)
def test_run_manifest_rejects_the_flags_it_replaces(dataset_pair, tmp_path, capsys, flags):
    dev, test = dataset_pair
    manifest = RunManifest(
        method="tnc",
        dev_paths=[str(dev.inducer_paths[0].parent)],
        test_paths=[str(test.inducer_paths[0].parent)],
        truth_paths=[str(dev.truth_path), str(test.truth_path)],
        out_dir=str(tmp_path / "a"),
    )
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(asdict(manifest)))
    out = tmp_path / "b"
    code = main(["run", "--manifest", str(path), *flags, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    for flag in flags:
        if flag.startswith("--"):
            assert flag in err
    assert not out.exists()


def test_run_repeated_path_flags_add_up(dataset_pair, tmp_path):
    dev, test = dataset_pair
    whole, split = tmp_path / "whole", tmp_path / "split"
    assert main(["run", "--method", "tnc", *data_flags(dataset_pair, whole)]) == EXIT_OK
    dev_files = [str(p) for p in dev.inducer_paths]
    code = main(
        ["run", "--method", "tnc",
         "--dev", *dev_files[:1], "--dev", *dev_files[1:],
         "--test", str(test.inducer_paths[0].parent),
         "--truth", str(dev.truth_path), "--truth", str(test.truth_path),
         "--out", str(split)]
    )
    assert code == EXIT_OK
    names = [n for n in ARTIFACTS if n != "manifest.json"]  # the manifests list different paths
    assert read_bytes(whole, names) == read_bytes(split, names)
    resolved = [str(Path(p).resolve()) for p in dev_files]
    assert json.loads((split / "manifest.json").read_text())["dev_paths"] == resolved


def test_run_k_past_any_c_long_scores_like_the_largest(dataset_pair, tmp_path):
    # a cutoff past every video's size reads each whole ranking, so a larger one changes no AP
    reports = {}
    for k in (2**63 - 1, 10**23):
        out = tmp_path / str(k)
        assert main(["run", "--method", "tnc", "--k", str(k), *data_flags(dataset_pair, out)]) == EXIT_OK
        rerun = tmp_path / f"rerun-{k}"
        assert main(["run", "--manifest", str(out / "manifest.json"), "--out", str(rerun)]) == EXIT_OK
        assert read_bytes(rerun, ["eval_report.json"]) == read_bytes(out, ["eval_report.json"])
        reports[k] = json.loads((out / "eval_report.json").read_text())
    huge, largest = reports[10**23], reports[2**63 - 1]
    assert huge["k"] == 10**23  # the report keeps the cutoff as given
    assert (huge["per_group"], huge["map_at_k"]) == (largest["per_group"], largest["map_at_k"])


def test_run_weights_json_names_match_inducers(dataset_pair, tmp_path):
    dev, _ = dataset_pair
    out = tmp_path / "out"
    assert main(["run", "--method", "equal", *data_flags(dataset_pair, out)]) == EXIT_OK
    names, _ = read_weights(out)
    assert names == sorted(p.stem for p in dev.inducer_paths)


def test_run_report_mse_matches_recomputation(dataset_pair, tmp_path):
    dev, _ = dataset_pair
    out = tmp_path / "out"
    assert main(
        ["run", "--method", "trust-region", *data_flags(dataset_pair, out)]
    ) == EXIT_OK
    report = json.loads((out / "optimizer_report.json").read_text())
    ranges = read_norm_params(out)
    _, weights = read_weights(out)

    tables = [read_inducer_csv(p) for p in dev.inducer_paths]
    truth = load_ground_truth([dev.truth_path])
    matrix = apply_minmax(ranges, assemble(tables, truth))
    assert report["best_objective"] == mse(weights, matrix)


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "argv",
    # run and compare have no --trace flag: optimizer_report.json holds each run's trace
    [["run", "--method", "sgd"], ["run", "--method", "tnc", "--trace"], ["compare", "--trace"]],
    ids=" ".join,
)
def test_usage_error_unknown_method_or_flag(dataset_pair, tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, *data_flags(dataset_pair, out)])
    assert excinfo.value.code == EXIT_USAGE
    assert argv[-1] in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_missing_method_and_manifest(dataset_pair, tmp_path, capsys):
    code = main(["run", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "either --method or --manifest" in capsys.readouterr().err


def test_usage_error_bad_set_value(dataset_pair, tmp_path, capsys):
    code = main(
        ["run", "--method", "pso", "--set", "swarm_size=many",
         *data_flags(dataset_pair, tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "must be numeric" in capsys.readouterr().err


def test_usage_error_unknown_set_key(dataset_pair, tmp_path, capsys):
    code = main(
        ["run", "--method", "pso", "--set", "swarm=40",
         *data_flags(dataset_pair, tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "swarm" in capsys.readouterr().err


def test_ga_budget_is_its_max_iterations(dataset_pair, tmp_path, capsys):
    # ga has one budget: max_generations is not a key, and max_iterations defaults to 1000 generations
    code = main(["compare", "--methods", "ga", "--set", "ga.max_generations=5", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown method parameter 'max_generations' for method 'ga'; valid keys: [" in err
    assert "'max_iterations'" in err and not (tmp_path / "o").exists()
    out = tmp_path / "ga"
    code = main(["run", "--method", "ga", "--set", "stagnation_window=0", "--set", "population_size=4",
                 *data_flags(dataset_pair, out)])
    assert code == EXIT_OK
    report = json.loads((out / "optimizer_report.json").read_text())
    assert report["config"]["max_iterations"] == 1000
    assert (report["iterations"], report["converged"], report["function_evaluations"]) == (1000, False, 4 * 1001)


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "setting",  # `method.key=value`; an unscoped key is a pso setting
    [
        "max_iterations=1e3", "swarm_size=2.5", "tolerance=-1", "swarm_size=0",
        "inertia=nan", "tolerance=inf", "cognitive=-inf",
        pytest.param("swarm_size=" + "9" * 401, id="swarm_size=401-digits"),
        "ga.mutation_sigma=-1", "lbfgsb.max_backtracks=0", "tnc.max_backtracks=-1",
        "trust-region.initial_radius=0", "trust-region.max_radius=0",
        "trust-region.acceptance_threshold=5",
        "lbfgsb.history=0", "ga.crossover_rate=5", "ga.mutation_rate=-3",
        "nelder-mead.initial_step=-1", "nelder-mead.shrink=0",
        "ga.tournament_size=101", "ga.elite_count=100",
    ],
)
def test_usage_error_bad_numeric_setting(dataset_pair, tmp_path, capsys, command, setting):
    scoped, value = setting.split("=")
    method, _, key = scoped.rpartition(".")
    method = method or "pso"
    if command == "run":
        flags = ["--method", method, "--set", f"{key}={value}"]
    else:
        flags = ["--methods", method, "--set", setting]
    code = main([command, *flags, *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert key in err
    spec = {**CONFIG_SETTINGS, **METHODS[method].settings}[key]
    if value.lstrip("-") in ("nan", "inf"):
        assert "must be finite" in err
    elif spec.type is int and not value.lstrip("-").isdigit():
        assert "must be an integer" in err
    else:
        assert f"must be in {spec.describe()}" in err


def test_compare_bad_method_parameter_writes_nothing(dataset_pair, tmp_path, capsys):
    # pso fails only after equal has been fitted; nothing may be on disk
    out = tmp_path / "o"
    code = main(
        ["compare", "--methods", "all", "--set", "pso.swarm_size=0", *data_flags(dataset_pair, out)]
    )
    assert code == EXIT_USAGE
    assert "swarm_size" in capsys.readouterr().err
    assert not out.exists() or not any(out.rglob("*"))


def test_compare_bad_setting_parses_and_fits_nothing(dataset_pair, tmp_path, capsys, monkeypatch):
    calls = []

    def counting_optimize(method, objective, settings, seed):
        calls.append(method)
        return optimize(method, objective, settings, seed)

    def counting_read(path):
        calls.append(path)
        return read_inducer_csv(path)

    monkeypatch.setattr(cli, "optimize", counting_optimize)
    monkeypatch.setattr(cli, "read_inducer_csv", counting_read)
    code = main(
        ["compare", "--methods", "all", "--set", "ga.elite_count=-1",
         *data_flags(dataset_pair, tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "elite_count must be in [0, population_size)" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "settings, message",
    [
        (["ga.population_size=2"], "got 3 (the default; population_size is 2)"),
        (["ga.population_size=2", "ga.tournament_size=5"], "got 5 (population_size is 2)"),
    ],
    ids=["default", "given"],
)
def test_a_bound_named_by_another_setting_is_reported_with_its_value(
    dataset_pair, tmp_path, capsys, settings, message
):
    # only population_size is set in the first case: the message must not read as if the
    # user had given tournament_size
    flags = [flag for setting in settings for flag in ("--set", setting)]
    code = main(["compare", "--methods", "all", *flags, *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    assert f"usage error: tournament_size must be in [1, population_size], {message}\n" in capsys.readouterr().err


def test_data_error_missing_file(dataset_pair, tmp_path, capsys):
    dev, test = dataset_pair
    code = main(
        ["run", "--method", "equal",
         "--dev", str(tmp_path / "nowhere"),
         "--test", str(test.inducer_paths[0].parent),
         "--truth", str(dev.truth_path),
         "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_DATA
    capsys.readouterr()


def _break_second_inducer(dataset_pair, split, tmp_path, capsys):
    """Prefix the split's second inducer file with a UTF-16 byte-order mark; the run's stderr and the file."""
    path = dataset_pair[split].inducer_paths[1]
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    code = main(["run", "--method", "equal", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_DATA
    return capsys.readouterr().err, path


def test_data_error_names_an_inducer_file_that_is_not_utf8(dataset_pair, tmp_path, capsys):
    err, path = _break_second_inducer(dataset_pair, 0, tmp_path, capsys)
    assert f"data error: {path.resolve()}: not valid UTF-8 at line 1\n" in err


def test_data_error_names_the_test_split_inducer_file(dataset_pair, tmp_path, capsys):
    # dev and test both hold an inducer_2.csv, so only the path says which one is bad
    err, path = _break_second_inducer(dataset_pair, 1, tmp_path, capsys)
    dev_twin = dataset_pair[0].inducer_paths[1]
    assert dev_twin.name == path.name
    assert f"data error: {path.resolve()}: not valid UTF-8 at line 1\n" in err
    assert str(dev_twin.resolve()) not in err


def test_data_error_names_a_truth_file_that_is_not_utf8(dataset_pair, tmp_path, capsys):
    _, test = dataset_pair
    lines = test.truth_path.read_bytes().split(b"\n")
    lines[2] = b"\xe9" + lines[2]  # a Latin-1 byte on line 3
    test.truth_path.write_bytes(b"\n".join(lines))
    code = main(["run", "--method", "equal", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_DATA
    assert f"data error: {test.truth_path.resolve()}: not valid UTF-8 at line 3\n" in capsys.readouterr().err


def test_data_error_names_the_inducer_whose_range_overflows(dataset_pair, tmp_path, capsys):
    # two finite dev scores whose difference is not finite: no warning, no abort, a data error
    path = dataset_pair[0].inducer_paths[1]
    header, *rows = path.read_text().splitlines()
    for i, score in enumerate(["1e308", "-1e308"]):
        rows[i] = ",".join([*rows[i].split(",")[:3], score])
    path.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--method", "equal", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: normalization range for {path.stem!r} is too wide" in err
    assert "Warning" not in err


def test_data_error_mismatched_inducer_sets(dataset_pair, tmp_path, capsys):
    dev, test = dataset_pair
    code = main(
        ["run", "--method", "equal",
         "--dev", *[str(p) for p in dev.inducer_paths],
         "--test", *[str(p) for p in test.inducer_paths[:-1]],
         "--truth", str(dev.truth_path), str(test.truth_path),
         "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_DATA
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize("twice", ["directory given twice", "name in two directories"])
def test_data_error_names_both_files_of_a_repeated_inducer_name(dataset_pair, tmp_path, capsys, twice):
    dev, test = dataset_pair
    if twice == "directory given twice":
        first = again = sorted(dev.inducer_paths)[0]  # the first file of the second copy repeats
    else:
        first, again = dev.inducer_paths[1], tmp_path / "more" / dev.inducer_paths[1].name
        again.parent.mkdir()
        again.write_bytes(first.read_bytes())
    code = main(
        ["run", "--method", "equal", "--dev", str(dev.inducer_paths[0].parent), "--dev", str(again.parent),
         "--test", str(test.inducer_paths[0].parent), "--truth", str(dev.truth_path), str(test.truth_path),
         "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: duplicate inducer name {first.stem!r} in split: {again.resolve()} repeats {first.resolve()}\n"


def test_abort_exit_code_on_non_finite_objective(dataset_pair, tmp_path, capsys, monkeypatch):
    def explode(method, objective, settings, seed):
        raise NonFiniteObjectiveError(np.zeros(objective.dimension), math.nan)

    monkeypatch.setattr(cli, "optimize", explode)
    code = main(["run", "--method", "tnc", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_ABORT
    capsys.readouterr()


def test_failed_run_leaves_no_artifacts(dataset_pair, tmp_path, capsys, monkeypatch):
    # evaluation happens after optimization; a failure there must not leave files
    def explode(method, objective, settings, seed):
        raise NonFiniteObjectiveError(np.zeros(objective.dimension), math.nan)

    monkeypatch.setattr(cli, "optimize", explode)
    out = tmp_path / "o"
    code = main(["run", "--method", "pso", *data_flags(dataset_pair, out)])
    assert code == EXIT_ABORT
    assert not out.exists() or not any(out.iterdir())
    capsys.readouterr()


def test_undefined_metric_is_a_data_error(tmp_path, capsys):
    # every test video gets only label-0 images, so no AP term is defined
    dev = generate_perfect_inducer(60, 3, 6, seed=5, out_dir=tmp_path / "dev", key_prefix="d")
    test = generate_perfect_inducer(30, 3, 3, seed=6, out_dir=tmp_path / "test", key_prefix="t")
    truth_lines = test.truth_path.read_text().splitlines()
    header, rows = truth_lines[0], truth_lines[1:]
    flattened = [",".join(r.split(",")[:2]) + ",0" for r in rows]
    test.truth_path.write_text("\n".join([header, *flattened]) + "\n")
    for path in test.inducer_paths:
        lines = path.read_text().splitlines()
        body = [",".join([*r.split(",")[:2], "0", r.split(",")[3]]) for r in lines[1:]]
        path.write_text("\n".join([lines[0], *body]) + "\n")

    out = tmp_path / "o"
    code = main(["run", "--method", "equal", *data_flags((dev, test), out)])
    assert code == EXIT_DATA
    assert not out.exists() or not any(out.iterdir())
    capsys.readouterr()


def test_nan_fused_score_is_a_data_error(dataset_pair, tmp_path, capsys, monkeypatch):
    def nan_first(weights, matrix):
        fused = np.zeros(matrix.n_samples)
        fused[0] = math.nan
        return fused

    monkeypatch.setattr(cli, "fuse", nan_first)
    out = tmp_path / "o"
    code = main(["run", "--method", "equal", *data_flags(dataset_pair, out)])
    assert code == EXIT_DATA
    assert "NaN at row 0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------- manifests

def test_manifest_round_trip():
    manifest = RunManifest(
        method="pso",
        dev_paths=["/d/a.csv"],
        test_paths=["/t/a.csv"],
        truth_paths=["/d/gt.csv"],
        out_dir="/o",
        k=5,
        seed=11,
        overrides={"swarm_size": 40},
    )
    assert RunManifest.from_dict(asdict(manifest)) == manifest


def test_manifest_rejects_unknown_method():
    with pytest.raises(UsageError):
        RunManifest(
            method="adam", dev_paths=["a"], test_paths=["b"],
            truth_paths=["c"], out_dir="o",
        )


def test_manifest_rejects_bad_k():
    with pytest.raises(UsageError):
        RunManifest(
            method="equal", dev_paths=["a"], test_paths=["b"],
            truth_paths=["c"], out_dir="o", k=0,
        )


def test_manifest_from_dict_missing_field():
    with pytest.raises(UsageError, match="missing field"):
        RunManifest.from_dict({"method": "equal"})


@pytest.mark.parametrize(
    "change,message",
    [
        pytest.param(lambda doc: [1, 2], "must be a JSON object", id="top-level-array"),
        pytest.param(lambda doc: {**doc, "overrides": [1, 2]}, "'overrides' must be dict", id="overrides-list"),
        pytest.param(lambda doc: {**doc, "dev_paths": 5}, "'dev_paths' must be list[str]", id="dev_paths-number"),
        # an echo written when the manifest had a trace field must drop that field
        pytest.param(lambda doc: {**doc, "trace": False}, "unknown field 'trace'", id="old-echo-trace"),
        pytest.param(lambda doc: {**doc, "k": "x"}, "'k' must be int", id="k-string"),
        pytest.param(lambda doc: {**doc, "seed": -1}, "seed must be in [0, inf), got -1", id="seed-negative"),
        pytest.param(
            lambda doc: {**doc, "sed": 5, "trace_": True}, "unknown field 'sed'", id="unknown-fields",
        ),
        pytest.param(
            lambda doc: {**doc, "overrides": {"swarm_size": "40"}}, "swarm_size must be an integer",
            id="override-string",
        ),
    ],
)
def test_run_rejects_malformed_manifest(dataset_pair, tmp_path, capsys, monkeypatch, change, message):
    monkeypatch.setattr(cli, "read_inducer_csv", None)  # a parse would raise TypeError
    dev, test = dataset_pair
    doc = asdict(RunManifest(
        method="pso",
        dev_paths=[str(dev.inducer_paths[0].parent)],
        test_paths=[str(test.inducer_paths[0].parent)],
        truth_paths=[str(dev.truth_path), str(test.truth_path)],
        out_dir=str(tmp_path / "a"),
    ))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(change(doc)))
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "b")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def without_out_dir(files):
    """The artifacts with manifest.json's out_dir dropped, the one field two output directories change."""
    doc = json.loads(files["manifest.json"])
    del doc["out_dir"]
    return {**files, "manifest.json": doc}


def test_relative_manifest_is_echoed_absolute_and_reruns_from_another_directory(
    dataset_pair, tmp_path, capsys, monkeypatch
):
    dev, test = dataset_pair

    def relative(path):
        return str(path.relative_to(tmp_path))

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "method": "tnc", "dev_paths": [relative(dev.inducer_paths[0].parent)],
        "test_paths": [relative(test.inducer_paths[0].parent)],
        "truth_paths": [relative(dev.truth_path), relative(test.truth_path)], "out_dir": "ignored",
    }))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--manifest", "manifest.json", "--out", "a"]) == EXIT_OK
    echo = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert echo["dev_paths"] == [str(dev.inducer_paths[0].parent.resolve())]
    assert echo["truth_paths"] == [str(dev.truth_path.resolve()), str(test.truth_path.resolve())]
    assert echo["out_dir"] == str((tmp_path / "a").resolve())

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--manifest", "../a/manifest.json", "--out", "b"]) == EXIT_OK
    first, second = read_bytes(tmp_path / "a", ARTIFACTS), read_bytes(elsewhere / "b", ARTIFACTS)
    assert without_out_dir(first) == without_out_dir(second)
    capsys.readouterr()


def test_echo_without_out_dir_reruns_with_out(dataset_pair, tmp_path, capsys):
    out_a = tmp_path / "a"
    assert main(["run", "--method", "lbfgsb", "--seed", "4", *data_flags(dataset_pair, out_a)]) == EXIT_OK
    doc = json.loads((out_a / "manifest.json").read_text())
    del doc["out_dir"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(doc))
    out_b = tmp_path / "b"
    assert main(["run", "--manifest", str(path), "--out", str(out_b)]) == EXIT_OK
    assert without_out_dir(read_bytes(out_a, ARTIFACTS)) == without_out_dir(read_bytes(out_b, ARTIFACTS))
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--dev", "--test", "--truth", "--out"])
@pytest.mark.parametrize("command", ["run", "compare", "run --manifest"])
def test_an_empty_path_is_a_usage_error_before_any_file_is_read(
    dataset_pair, tmp_path, capsys, monkeypatch, command, flag
):
    # an empty path would otherwise name the working directory: read its CSVs, or write the run there
    dev, test = dataset_pair
    paths = {
        "--dev": [str(dev.inducer_paths[0].parent)], "--test": [str(test.inducer_paths[0].parent)],
        "--truth": [str(dev.truth_path), str(test.truth_path)], "--out": [str(tmp_path / "o")],
    }
    paths[flag] = [""]
    if command == "run --manifest":
        # an echo holds the data paths, and its out_dir gives way to --out
        doc = {"method": "equal", **{name[2:] + "_paths": values for name, values in paths.items() if name != "--out"},
               "out_dir": str(tmp_path / "echo")}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        argv = ["run", "--manifest", str(path), "--out", *paths["--out"]]
    else:
        method = ["--method", "equal"] if command == "run" else ["--methods", "equal"]
        argv = [command, *method, *(arg for name, values in paths.items() for arg in (name, *values))]
    monkeypatch.setattr(cli, "read_inducer_csv", None)  # a parse would raise TypeError
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    (workdir / "inducer_01.csv").write_bytes(dev.inducer_paths[0].read_bytes())
    monkeypatch.chdir(workdir)
    assert main(argv) == EXIT_USAGE
    field = {"--out": "out_dir"}.get(flag, flag[2:] + "_paths")
    assert capsys.readouterr().err == f"usage error: {field} has an empty path\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["inducer_01.csv"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "echo").exists()


def test_run_manifest_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("{method: pso}")
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "b")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err and "not valid JSON" in err
    assert not (tmp_path / "b").exists()


def test_run_manifest_nested_past_the_parsers_depth_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "read_inducer_csv", None)  # a parse would raise TypeError
    path = tmp_path / "manifest.json"
    path.write_text("[" * 200_000 + "]" * 200_000)  # json raises RecursionError, not JSONDecodeError
    assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "b")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: manifest {path} is not valid JSON: maximum recursion depth exceeded")
    assert not (tmp_path / "b").exists()


def test_run_manifest_with_an_integer_past_the_digit_limit_is_a_usage_error(dataset_pair, tmp_path, capsys):
    assert main(["run", "--method", "equal", *data_flags(dataset_pair, tmp_path / "a")]) == EXIT_OK
    text = (tmp_path / "a" / "manifest.json").read_text()
    path = tmp_path / "manifest.json"
    path.write_text(text.replace('"seed": 0', '"seed": ' + "1" * 5000))  # json raises a plain ValueError
    capsys.readouterr()
    assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "b")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: manifest {path} is not valid JSON: Exceeds the limit")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flag", ["--dev", "--out"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_symlink_loop_path_is_a_data_error(dataset_pair, tmp_path, command, flag):
    # Path.resolve raises RuntimeError on a loop before Python 3.13; the installed command must not crash
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    argv = data_flags(dataset_pair, tmp_path / "o")
    argv[argv.index(flag) + 1] = str(tmp_path / "a")
    method = ["--method", "equal"] if command == "run" else ["--methods", "equal"]
    proc = subprocess.run(
        [sys.executable, "-m", "latefuse", command, *method, *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.startswith("data error:") and str(tmp_path / "a") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_run_manifest_that_cannot_be_read_is_a_data_error(tmp_path, capsys):
    code = main(["run", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "b")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_parse_set_values():
    parsed = parse_set_values(["swarm_size=40", "tolerance=1e-6", "pso.inertia=0.5"])
    assert parsed == {"swarm_size": 40.0, "tolerance": 1e-6, "pso.inertia": 0.5}
    with pytest.raises(UsageError):
        parse_set_values(["swarm_size"])


# ---------------------------------------------------------------- compare

@pytest.fixture
def compare_out(dataset_pair, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--methods", "all", "--seed", "3",
         "--set", "pso.swarm_size=30", "--set", "pso.stagnation_window=15",
         "--set", "ga.population_size=30", "--set", "ga.stagnation_window=15",
         "--set", "ga.max_iterations=120",
         *data_flags(dataset_pair, out)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    return out


def test_compare_writes_summary_for_all_methods(compare_out):
    lines = (compare_out / "summary.csv").read_text().splitlines()
    assert lines[0] == "method,dev_mse,test_map_at_10,evaluations,wall_time"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert sorted(methods) == sorted(
        ["equal", "pso", "ga", "nelder-mead", "trust-region", "lbfgsb", "tnc"]
    )
    for method in methods:
        assert (compare_out / method / "weights.json").exists()


def test_compare_every_method_beats_or_ties_equal(compare_out):
    lines = (compare_out / "summary.csv").read_text().splitlines()[1:]
    dev_mse = {line.split(",")[0]: float(line.split(",")[1]) for line in lines}
    for method, value in dev_mse.items():
        assert value <= dev_mse["equal"], method


def test_compare_summary_mse_is_bit_equal_to_recomputation(compare_out, dataset_pair):
    dev, _ = dataset_pair
    tables = [read_inducer_csv(p) for p in dev.inducer_paths]
    truth = load_ground_truth([dev.truth_path])
    lines = (compare_out / "summary.csv").read_text().splitlines()[1:]
    for line in lines:
        method, dev_mse = line.split(",")[0], float(line.split(",")[1])
        ranges = read_norm_params(compare_out / method)
        matrix = apply_minmax(ranges, assemble(tables, truth))
        _, weights = read_weights(compare_out / method)
        assert dev_mse == mse(weights, matrix), method


def test_compare_summary_json_mirrors_csv(compare_out):
    doc = json.loads((compare_out / "summary.json").read_text())
    lines = (compare_out / "summary.csv").read_text().splitlines()[1:]
    assert len(doc) == len(lines)
    for row, line in zip(doc, lines):
        cells = line.split(",")
        assert row["method"] == cells[0]
        assert row["dev_mse"] == float(cells[1])
        assert row["test_map_at_10"] == float(cells[2])
        assert row["evaluations"] == int(cells[3])
        assert math.isclose(row["wall_time"], float(cells[4]), abs_tol=1e-9)


def float_cells(rows):
    """The cells that parse as a float but not as an int."""
    for cell in (cell for row in rows for cell in row):
        with contextlib.suppress(ValueError):
            int(cell)
            continue
        with contextlib.suppress(ValueError):
            float(cell)
            yield cell


def test_every_artifact_is_canonical_utf8_text(dataset_pair, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--methods", "all", "--seed", "3",
         "--set", "pso.swarm_size=30", "--set", "pso.stagnation_window=15",
         "--set", "ga.population_size=30", "--set", "ga.stagnation_window=15",
         *data_flags(dataset_pair, out)]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    files = sorted(path for path in out.rglob("*") if path.is_file())
    assert len(files) == 2 + len(METHODS) * len(ARTIFACTS)  # the summaries, then each method's
    for path in files:
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text and text.endswith("\n") and not text.endswith("\n\n"), path
        if path.suffix == ".json":
            sort_keys = path.name == "norm_params.json"
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=sort_keys) + "\n", path
        else:
            rows = [line.split(",") for line in text.splitlines()]
            assert all(len(row) == len(rows[0]) for row in rows), path
            assert all(repr(float(cell)) == cell for cell in float_cells(rows[1:])), path


def test_compare_parses_each_inducer_file_once(dataset_pair, tmp_path, capsys, monkeypatch):
    dev, test = dataset_pair
    parsed = []

    def counting_read(path):
        parsed.append(path)
        return read_inducer_csv(path)

    monkeypatch.setattr(cli, "read_inducer_csv", counting_read)
    code = main(["compare", "--methods", "all", *data_flags(dataset_pair, tmp_path / "cmp")])
    assert code == EXIT_OK
    assert sorted(parsed) == sorted(dev.inducer_paths + test.inducer_paths)
    capsys.readouterr()


def test_compare_directories_match_single_runs(compare_out, dataset_pair, tmp_path, capsys):
    scoped = {
        "pso": ["--set", "swarm_size=30", "--set", "stagnation_window=15"],
        "ga": ["--set", "population_size=30", "--set", "stagnation_window=15",
               "--set", "max_iterations=120"],
    }
    for method in ["equal", "pso", "ga", "nelder-mead", "trust-region", "lbfgsb", "tnc"]:
        out = tmp_path / "single" / method
        flags = ["--method", method, "--seed", "3", *scoped.get(method, [])]
        assert main(["run", *flags, *data_flags(dataset_pair, out)]) == EXIT_OK
        single = read_bytes(out, ARTIFACTS)
        compared = read_bytes(compare_out / method, ARTIFACTS)
        # manifest.json differs only in out_dir
        doc = json.loads(single["manifest.json"])
        doc["out_dir"] = json.loads(compared["manifest.json"])["out_dir"]
        single["manifest.json"] = (json.dumps(doc, indent=2) + "\n").encode()
        assert single == compared, method
    capsys.readouterr()


def test_compare_subset_and_dedup(dataset_pair, tmp_path, capsys):
    out = tmp_path / "cmp2"
    code = main(
        ["compare", "--methods", "equal,tnc,equal", *data_flags(dataset_pair, out)]
    )
    assert code == EXIT_OK
    lines = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["equal", "tnc"]
    capsys.readouterr()


def test_compare_rejects_empty_method_list(dataset_pair, tmp_path, capsys):
    code = main(["compare", "--methods", " , ", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "no methods selected" in capsys.readouterr().err


def test_compare_rejects_unknown_method(dataset_pair, tmp_path, capsys):
    code = main(["compare", "--methods", "equal,sgd", *data_flags(dataset_pair, tmp_path / "o")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_compare_call_writes_what_the_command_writes(dataset_pair, tmp_path, capsys, monkeypatch):
    # both resolve relative paths, so even manifest.json matches; only the summaries' wall_time may differ
    monkeypatch.chdir(tmp_path)
    truth = [str(split.truth_path.relative_to(tmp_path)) for split in dataset_pair]
    settings = {"pso.swarm_size": 30, "pso.stagnation_window": 15, "tolerance": 1e-6, "tnc.max_iterations": 50}

    def written(out):
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        csv, rows = files.pop(Path("summary.csv")).decode(), json.loads(files.pop(Path("summary.json")))
        files["summary.csv"] = [line.rpartition(",")[0] for line in csv.splitlines()]  # wall_time is last
        files["summary.json"] = [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]
        return files

    flags = [flag for key, value in settings.items() for flag in ("--set", f"{key}={value}")]
    code = main(["compare", "--methods", "pso,equal,tnc,pso", "--k", "5", "--seed", "3", *flags,
                 "--dev", "dev", "--test", "test", "--truth", *truth, "--out", "out"])
    assert code == EXIT_OK
    by_command = written(tmp_path / "out")
    (tmp_path / "out").rename(tmp_path / "by-command")
    results = compare(["pso", "equal", "tnc", "pso"], ["dev"], ["test"], truth, "out", k=5, seed=3, overrides=settings)
    assert [r.manifest.method for r in results] == ["pso", "equal", "tnc"]
    assert written(tmp_path / "out") == by_command
    assert len(by_command) == 3 * len(ARTIFACTS) + 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "methods, settings, message",
    [
        ([], {}, "no methods selected"),
        (["equal", "sgd"], {}, "unknown method 'sgd'"),
        (["equal", "pso"], {"pso.swarm_size": 0}, "swarm_size must be in"),
        (["equal"], {"pso.swarm_size": 10}, "--set 'pso.swarm_size' targets a method not selected for this compare"),
    ],
    ids=["no-method", "unknown-method", "bad-setting", "unselected-scope"],
)
def test_compare_call_checks_everything_before_reading_a_file(
    dataset_pair, tmp_path, monkeypatch, methods, settings, message
):
    monkeypatch.setattr(cli, "read_inducer_csv", None)  # a parse would raise TypeError
    dev, test = dataset_pair
    with pytest.raises(UsageError, match=re.escape(message)):
        compare(
            methods, [str(dev.inducer_paths[0].parent)], [str(test.inducer_paths[0].parent)],
            [str(dev.truth_path), str(test.truth_path)], tmp_path / "cmp", overrides=settings,
        )
    assert not (tmp_path / "cmp").exists()


def test_compare_scoped_override_reaches_only_named_method(dataset_pair, tmp_path, capsys):
    out = tmp_path / "cmp3"
    code = main(
        ["compare", "--methods", "pso,ga",
         "--set", "pso.swarm_size=17",
         "--set", "stagnation_window=12",
         *data_flags(dataset_pair, out)]
    )
    assert code == EXIT_OK
    pso_manifest = json.loads((out / "pso" / "manifest.json").read_text())
    ga_manifest = json.loads((out / "ga" / "manifest.json").read_text())
    assert pso_manifest["overrides"] == {"swarm_size": 17.0, "stagnation_window": 12.0}
    assert ga_manifest["overrides"] == {"stagnation_window": 12.0}
    pso_report = json.loads((out / "pso" / "optimizer_report.json").read_text())
    assert pso_report["config"]["method_params"]["swarm_size"] == 17.0
    capsys.readouterr()


@pytest.mark.parametrize("order", ["scoped first", "plain first"])
def test_compare_scoped_override_beats_plain_key_in_any_order(dataset_pair, tmp_path, capsys, order):
    flags = [["--set", "tnc.tolerance=1e-3"], ["--set", "tolerance=1e-9"]]
    if order == "plain first":
        flags.reverse()
    out = tmp_path / "o"
    code = main(["compare", "--methods", "tnc,lbfgsb", *flags[0], *flags[1], *data_flags(dataset_pair, out)])
    assert code == EXIT_OK
    assert json.loads((out / "tnc" / "manifest.json").read_text())["overrides"] == {"tolerance": 1e-3}
    assert json.loads((out / "lbfgsb" / "manifest.json").read_text())["overrides"] == {"tolerance": 1e-9}
    capsys.readouterr()


def test_compare_failed_write_removes_every_method_artifact(dataset_pair, tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "tnc").write_text("in the way\n")  # tnc's directory cannot be made
    code = main(["compare", "--methods", "all", *data_flags(dataset_pair, out)])
    assert code == EXIT_DATA
    assert sorted(out.rglob("*")) == [out / "tnc"]
    assert (out / "tnc").read_text() == "in the way\n"
    capsys.readouterr()


def test_compare_rejects_override_scoped_to_unselected_method(dataset_pair, tmp_path, capsys):
    code = main(
        ["compare", "--methods", "equal", "--set", "pso.swarm_size=10",
         *data_flags(dataset_pair, tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------- any --set value

REGISTRY_KEYS = sorted({*CONFIG_SETTINGS, *(k for m in METHODS.values() for k in m.settings)})


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    w_star = [0.7, 0.2, 0.5]
    dev = generate(SynthSpec(30, 3, 5, seed=1, planted_weights=w_star, key_prefix="d"), root / "dev")
    test = generate(SynthSpec(20, 3, 4, seed=2, planted_weights=w_star, key_prefix="t"), root / "test")
    return dev, test


@st.composite
def any_setting(draw):
    """A method, a key (its own, another method's or unknown) and a value of any kind."""
    method = draw(st.sampled_from(sorted(METHODS)))
    own = sorted({*CONFIG_SETTINGS, *METHODS[method].settings})
    others = [*REGISTRY_KEYS, "swarm", "pso.swarm_size", "dimension", "seed"]
    key = draw(st.sampled_from(own) if own and draw(st.booleans()) else st.sampled_from(others))
    value = draw(
        st.one_of(
            st.integers(),
            st.integers(-2, 1001),
            st.sampled_from([10**400, -(10**400), 10**5, 10**7 + 1]),
            st.floats(),
            st.floats(0, 1),
            st.text(max_size=8),
        )
    )
    return method, key, value


@settings(max_examples=150, deadline=None)
@given(drawn=any_setting())
def test_any_set_value_exits_0_or_2(small_pair, drawn):
    method, key, value = drawn
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main(
            ["run", "--method", method, "--set", "max_iterations=5", "--set", f"{key}={value}",
             *data_flags(small_pair, Path(out) / "o")]
        )
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE), stderr.getvalue()

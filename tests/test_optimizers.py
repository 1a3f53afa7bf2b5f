import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import quadratic
from latefuse.fusion import equal_weights, make_mse_objective, mse
from latefuse.optimizers import METHODS, check, optimize, trust_region
from latefuse.optimizers.common import CONFIG_SETTINGS, NonFiniteObjectiveError, ParameterError, Search
from oracles import planted_score_matrix, random_score_matrix

SEARCH_METHODS = [m for m in METHODS if m != "equal"]
DERIVATIVE_FREE = ["pso", "ga", "nelder-mead"]
GRADIENT_METHODS = ("trust-region", "lbfgsb", "tnc")


def quadratic_objective(center):
    """f(x) = |x - center|^2 = x'x - 2 center'x + center'center; minimizer at the center."""
    c = np.asarray(center, dtype=float)
    return quadratic(np.eye(c.size), c, c @ c)


def cheap_params(method):
    """Small budgets so the whole matrix of method tests stays fast."""
    return {
        "equal": {},
        "pso": {"swarm_size": 40, "stagnation_window": 30},
        "ga": {"population_size": 40, "stagnation_window": 30, "max_iterations": 400},
        "nelder-mead": {},
        "trust-region": {},
        "lbfgsb": {},
        "tnc": {},
    }[method]


# ---------------------------------------------------------------- config

def test_config_defaults(run_on_pair):
    report = optimize("equal", quadratic_objective([0.5]))
    assert report.settings == {"max_iterations": 10000, "tolerance": 1e-8}
    assert report.seed == 0
    _, out = run_on_pair("equal")
    assert json.loads((out / "optimizer_report.json").read_text())["config"] == {
        "dimension": 4, "max_iterations": 10000, "tolerance": 1e-8, "seed": 0, "method_params": {}
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iterations": True},
        {"seed": True},
        {"max_iterations": 2.5},
        {"max_iterations": 0},
        {"tolerance": 0.0},
        {"tolerance": math.inf},
        {"tolerance": math.nan},
        {"seed": 1.5},
        {"seed": -1},
        {"tolerance": "1e-8"},
        {"max_iterations": 10**7 + 1},
    ],
)
def test_config_validation(kwargs):
    settings = dict(kwargs)
    seed = settings.pop("seed", 0)  # an argument of its own, next to the settings
    with pytest.raises(ParameterError):
        optimize("equal", quadratic_objective([0.5]), settings, seed=seed)


@pytest.mark.parametrize("method", list(METHODS))
def test_objective_without_inducers_rejected(method):
    with pytest.raises(ValueError, match="need at least one inducer"):
        optimize(method, quadratic(np.zeros((0, 0)), np.zeros(0), 0.0))


@pytest.mark.parametrize("method", ["pso", "ga", "nelder-mead"])
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-float")]
)
def test_non_finite_tolerance_rejected(method, value):
    with pytest.raises(ParameterError, match="tolerance must be finite"):
        optimize(method, quadratic_objective([0.5, 0.5]), {"tolerance": value})


def test_unknown_method_rejected():
    obj = quadratic_objective([0.5])
    with pytest.raises(ValueError, match="unknown method"):
        optimize("newton", obj)


def test_unknown_method_param_rejected():
    obj = quadratic_objective([0.5])
    with pytest.raises(ValueError, match="unknown method parameter"):
        optimize("pso", obj, {"swarm": 10})


def test_readme_table_lists_every_setting():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1].startswith("`"):  # a setting's row, not the header
            rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
    registry = [("all", k, spec) for k, spec in CONFIG_SETTINGS.items()]
    registry += [(m, k, spec) for m, method in METHODS.items() for k, spec in method.settings.items()]
    # both ways, in order: a row the registry lacks fails too
    assert list(rows) == [(owner, key) for owner, key, _ in registry]
    for owner, key, spec in registry:
        kind, default, interval = rows[owner, key]
        assert kind == spec.type.__name__, key
        assert default.startswith(f"`{spec.default!r}`"), key
        assert interval == f"`{spec.describe()}`", key


# ---------------------------------------------------------------- equal baseline

def test_equal_weights_m29_matches_uniform_value():
    report = optimize("equal", quadratic_objective([0.5] * 29))
    assert np.all(report.best_weights == 1.0 / 29)
    assert report.best_weights[0] == pytest.approx(0.0345, abs=5e-4)
    assert report.iterations == 0
    assert report.converged


@pytest.mark.parametrize("m,expected", [(1, [1.0]), (4, [0.25, 0.25, 0.25, 0.25])])
def test_equal_weights_small_dims(m, expected):
    report = optimize("equal", quadratic_objective([0.5] * m))
    assert report.best_weights.tolist() == expected


# ---------------------------------------------------------------- shared contract

@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_interior_quadratic_minimum(method):
    report = optimize(method, quadratic_objective([0.3]), cheap_params(method), seed=5)
    tol = 1e-2 if method in ("pso", "ga") else 1e-4
    assert abs(report.best_weights[0] - 0.3) <= tol
    assert report.best_objective == pytest.approx(0.0, abs=tol**2 * 1.1)


@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_bound_active_quadratic(method):
    report = optimize(method, quadratic_objective([1.5]), cheap_params(method), seed=5)
    assert abs(report.best_weights[0] - 1.0) <= 1e-6
    if method in GRADIENT_METHODS:
        assert report.best_weights[0] == 1.0


@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_planted_recovery_small(method):
    w_star = np.array([0.8, 0.2, 0.6, 0.4])
    matrix = planted_score_matrix(200, 4, w_star, seed=3)
    report = optimize(method, make_mse_objective(matrix), cheap_params(method), seed=1)
    tol = 1e-6 if method in GRADIENT_METHODS else 1e-3
    assert report.best_objective <= tol


@pytest.mark.parametrize("method", list(METHODS))
def test_report_invariants(method):
    matrix = random_score_matrix(60, 3, seed=8)
    params = cheap_params(method) if method != "equal" else {}
    report = optimize(method, make_mse_objective(matrix), params, seed=2)
    assert np.all(report.best_weights >= 0.0)
    assert np.all(report.best_weights <= 1.0)
    objectives = [f for _, f in report.trace]
    assert objectives == sorted(objectives, reverse=True)
    assert report.best_objective == objectives[-1]
    # the reported objective is bit-equal to a fresh scalar evaluation
    assert report.best_objective == mse(report.best_weights, matrix)
    assert report.function_evaluations >= 1
    assert report.method == method
    assert report.seed == 2


@pytest.mark.parametrize("method", list(METHODS))
def test_search_starts_from_the_exact_equal_weights(method):
    matrix = random_score_matrix(70, 4, seed=3)
    equal_mse = mse(equal_weights(4), matrix)
    params = cheap_params(method) if method != "equal" else {}
    report = optimize(method, make_mse_objective(matrix), params, seed=4)
    assert report.trace[0] == (0, equal_mse)
    assert report.best_objective <= equal_mse


@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_baseline_dominance(method):
    matrix = random_score_matrix(80, 5, seed=14)
    report = optimize(method, make_mse_objective(matrix), cheap_params(method), seed=6)
    assert report.best_objective <= mse(equal_weights(5), matrix)


def test_nelder_mead_dominates_equal_under_adversarial_search_value():
    # The search value is -MSE: the simplex climbs, and the best vertex of the
    # initial simplex by search value is the exactly-worst one.  Only the equal
    # start, where the search state begins, keeps the result at equal weights.
    matrix = random_score_matrix(80, 5, seed=14)
    obj = make_mse_objective(matrix)
    obj.value = lambda w: -obj.exact(w)
    report = optimize("nelder-mead", obj, {"max_iterations": 200})
    assert report.best_objective <= mse(equal_weights(5), matrix)


@pytest.mark.parametrize("method", ["pso", "ga"])
def test_stochastic_determinism_seed_42(method):
    matrix = random_score_matrix(50, 4, seed=1)
    obj = make_mse_objective(matrix)

    def one_run():
        return optimize(method, obj, {"stagnation_window": 20}, seed=42)

    a, b = one_run(), one_run()
    fields = ("method", "best_objective", "function_evaluations", "gradient_evaluations",
              "iterations", "converged", "trace", "settings", "seed")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert np.array_equal(a.best_weights, b.best_weights)


NON_FINITE_CASES = (
    [(method, "value") for method in SEARCH_METHODS]
    + [(method, "gradient") for method in GRADIENT_METHODS]
    + [(method, "exact") for method in METHODS]
)


@pytest.mark.parametrize(
    "method,broken", NON_FINITE_CASES, ids=[m if b == "value" else f"{b}-{m}" for m, b in NON_FINITE_CASES]
)
def test_non_finite_objective_aborts_with_point(method, broken):
    obj = quadratic_objective([0.5, 0.5])
    if broken == "value":
        obj.value = lambda x: math.nan
        obj.value_batch = lambda xs: np.full(len(xs), math.nan)
        message = "non-finite objective value .*nan.* at point "
    elif broken == "gradient":
        obj.gradient = lambda x: np.full(len(x), math.nan)
        message = "non-finite gradient value .*nan.* at point "
    else:
        # the equal start is scored exactly while the Search is built, before any counted evaluation
        obj.exact = lambda x: math.inf
        obj.value = obj.gradient = obj.value_batch = None  # an evaluation would raise TypeError
        message = r"non-finite objective value inf at point \[0.5, 0.5\]$"
    with pytest.raises(NonFiniteObjectiveError, match=f"^{message}") as excinfo:
        optimize(method, obj, cheap_params(method), seed=0)
    assert excinfo.value.point.shape == (2,)


POPULATION_SIZE = {"pso": "swarm_size", "ga": "population_size"}


def population_settings(method, size, settings):
    """A pso or ga run's settings with the given population size."""
    return {POPULATION_SIZE[method]: size, **settings}


def test_budget_exhaustion_reports_not_converged():
    matrix = random_score_matrix(60, 6, seed=9)
    settings = {"max_iterations": 2, "tolerance": 1e-14}
    for method in GRADIENT_METHODS:
        report = optimize(method, make_mse_objective(matrix), settings, seed=0)
        assert not report.converged, method
        assert report.iterations == 2, method

    # a stagnation window of 0 runs the whole budget: size x (iterations + 1) evaluations
    objective = make_mse_objective(random_score_matrix(60, 4, seed=9))
    for method in POPULATION_SIZE:
        settings = population_settings(method, 8, {"stagnation_window": 0, "max_iterations": 7})
        report = optimize(method, objective, settings)
        assert (report.iterations, report.converged, report.function_evaluations) == (7, False, 64), method


@pytest.mark.parametrize("method", POPULATION_SIZE)
def test_population_stagnation_stops_converged_after_window(method):
    flat = quadratic(np.zeros((3, 3)), np.zeros(3), 1.0)
    report = optimize(method, flat, population_settings(method, 8, {"stagnation_window": 5}))
    assert (report.iterations, report.converged, report.function_evaluations) == (5, True, 48)
    assert report.trace == [(0, 1.0)]


# ---------------------------------------------------------------- incumbent

def one_ulp_low(objective):
    """The same objective, but its batch path reads exactly one ulp below `exact`,
    and `exact` records every point it scores (returned as the second item)."""
    scored = []
    exact = objective.exact
    objective.exact = lambda x: scored.append(x) or exact(x)
    objective.value_batch = lambda xs: np.nextafter([exact(x) for x in xs], -np.inf)
    return objective, scored


def test_incumbent_does_not_rescore_itself():
    scored = []
    objective = quadratic_objective([0.2, 0.7])  # away from the equal start [0.5, 0.5]
    objective.exact = lambda x: scored.append(x) or objective.value(x)
    search = Search(objective, "equal", check("equal", {}))
    start_f = search.best_objective
    del scored[:]  # the equal start's score, made on construction
    x = np.array([0.2, 0.7])
    assert search.consider(x, 0)
    assert not search.consider(x.copy(), 1)
    assert len(scored) == 1
    assert search.function_evaluations == 0  # exact re-scores are not search evaluations
    assert search.trace == [(0, start_f), (0, search.best_objective)]


@pytest.mark.parametrize("method,size_key", [("pso", "swarm_size"), ("ga", "population_size")])
def test_population_methods_rescore_only_new_points(method, size_key):
    # Read one ulp low, the batch value of the incumbent always seems to beat
    # it; only a new point may cost an exact re-score, and each one is an
    # accepted improvement (the start re-scores included), so it is traced.
    # The search evaluations are the batch points alone.
    size = 30
    obj, scored = one_ulp_low(make_mse_objective(random_score_matrix(60, 4, seed=5)))
    params = {size_key: size, "stagnation_window": 20}
    report = optimize(method, obj, params, seed=1)
    assert report.iterations > 20
    assert report.function_evaluations == size * (report.iterations + 1)
    assert len(scored) == len(report.trace)


# ---------------------------------------------------------------- population steps against their references

REFERENCE_STEPS = {"ga": oracles.optimize_ga, "pso": oracles.optimize_pso}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "method, m, params",
    [
        ("ga", 4, {"population_size": 20}),
        ("ga", 1, {"population_size": 12, "stagnation_window": 10}),
        ("ga", 5, {"population_size": 2}),
        ("ga", 3, {"population_size": 15}),
        ("ga", 6, {"population_size": 10}),
        ("pso", 4, {"swarm_size": 20}),
        ("pso", 1, {"swarm_size": 6, "stagnation_window": 10}),
        ("pso", 5, {"swarm_size": 1}),
        ("pso", 3, {"swarm_size": 8}),
    ],
)
def test_population_steps_match_their_references_bit_for_bit(method, m, params, seed):
    objective = make_mse_objective(random_score_matrix(50, m, seed=seed + 20))
    settings = {**params, "max_iterations": 150}
    expected = REFERENCE_STEPS[method](Search(objective, method, check(method, settings), seed))
    got = optimize(method, objective, settings, seed=seed)
    assert got.best_weights.tobytes() == expected.best_weights.tobytes()
    assert got.best_objective == expected.best_objective
    assert got.trace == expected.trace
    assert got.function_evaluations == expected.function_evaluations
    assert got.gradient_evaluations == expected.gradient_evaluations
    assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


def test_scalar_normals_consume_the_stream_as_one_vector_draw():
    # ga's reference draws its mutation noise one gene at a time, ga itself in one call
    one_by_one, at_once = np.random.default_rng(8), np.random.default_rng(8)
    scalars = np.array([one_by_one.normal(0.0, 0.1) for _ in range(500)])
    assert scalars.tobytes() == at_once.normal(0.0, 0.1, size=500).tobytes()
    assert one_by_one.bit_generator.state == at_once.bit_generator.state


class RecordedGenerator:
    """A real `Generator` that logs each draw as (method name, result)."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            result = getattr(self.rng, name)(*args, **kwargs)
            self.draws.append((name, result))
            return result

        return draw


@pytest.mark.parametrize("landscape", ["mse", "flat"])
def test_ga_draws_one_normal_per_mutated_gene_and_best_contenders_win(monkeypatch, landscape):
    # On the flat landscape every contender ties, so each tournament goes to its lowest index.
    m, size, generations = 4, 10, 6
    n_children = size - 1
    if landscape == "mse":
        objective = make_mse_objective(random_score_matrix(40, m, seed=3))
    else:
        objective = quadratic(np.zeros((m, m)), np.zeros(m), 1.0)
    batches = []
    value_batch = objective.value_batch
    objective.value_batch = lambda xs: batches.append((xs.copy(), value_batch(xs))) or batches[-1][1]
    generators = []
    default_rng = np.random.default_rng

    def recorded(seed):
        generators.append(RecordedGenerator(default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)

    optimize("ga", objective, {"population_size": size, "max_iterations": generations, "stagnation_window": 0}, seed=5)

    (rng,) = generators
    assert [name for name, _ in rng.draws] == ["uniform"] + ["integers", "random", "normal"] * generations
    ties = 0
    for g in range(generations):
        (population, fitness), (next_pop, _) = batches[g], batches[g + 1]
        ranks, coins, noise = (result for _, result in rng.draws[1 + 3 * g : 4 + 3 * g])
        cross = coins[:n_children] < 0.9
        take_b = coins[n_children : n_children * (m + 1)].reshape(n_children, m) < 0.5
        mutate = coins[n_children * (m + 1) :].reshape(n_children, m) < 1.0 / m
        assert noise.shape == (np.count_nonzero(mutate),)

        # the contender draw names each contender by its rank in (fitness, index) order
        ranked = sorted(range(size), key=lambda i: (fitness[i], i))
        winners = np.empty((2, n_children), dtype=int)
        for slate, child in np.ndindex(winners.shape):
            contenders = [ranked[r] for r in ranks[slate, child]]
            winners[slate, child] = min(contenders, key=lambda i: (fitness[i], i))
            ties += len({fitness[i] for i in contenders}) < len(set(contenders))
        parent = np.where(cross[:, None] & take_b, population[winners[1]], population[winners[0]])
        assert np.array_equal(next_pop[1:][~mutate], parent[~mutate])
    if landscape == "flat":
        assert ties > 0


# ---------------------------------------------------------------- method specifics

def test_ga_dominates_seeded_equal_vector():
    matrix = random_score_matrix(70, 4, seed=10)
    settings = {"population_size": 20, "max_iterations": 50, "stagnation_window": 10}
    report = optimize("ga", make_mse_objective(matrix), settings, seed=3)
    assert report.best_objective <= mse(equal_weights(4), matrix)


def test_nelder_mead_simplex_stays_in_box():
    # a minimizer outside the box drags every candidate toward the wall
    report = optimize("nelder-mead", quadratic_objective([2.0, -1.0, 0.5]), seed=0)
    assert np.all(report.best_weights >= 0.0)
    assert np.all(report.best_weights <= 1.0)
    assert report.best_weights[0] == pytest.approx(1.0, abs=1e-6)
    assert report.best_weights[1] == pytest.approx(0.0, abs=1e-6)


def test_lbfgsb_interior_quadratic_against_closed_form():
    rng = np.random.default_rng(44)
    m = 6
    root = rng.normal(size=(m, m)) / math.sqrt(m)
    a_matrix = root @ root.T + 0.5 * np.eye(m)
    x_star = rng.uniform(0.3, 0.7, m)
    b = -a_matrix @ x_star

    def gradient(x):
        return a_matrix @ x + b

    closed_form = np.linalg.solve(a_matrix, -b)
    assert np.all(closed_form > 0.0) and np.all(closed_form < 1.0)

    # 0.5 x'Ax + b'x as w'Gw - 2g'w + c: G = A/2, g = -b/2, c = 0
    report = optimize("lbfgsb", quadratic(a_matrix / 2, -b / 2, 0.0), {"max_iterations": 100}, seed=0)
    assert report.converged
    assert report.iterations <= 100
    assert float(np.linalg.norm(gradient(report.best_weights), np.inf)) <= 1e-7
    np.testing.assert_allclose(report.best_weights, closed_form, atol=1e-6)


def test_tnc_converges_on_planted(planted_500x5):
    report = optimize("tnc", make_mse_objective(planted_500x5), seed=0)
    assert report.best_objective <= 1e-10
    assert report.converged


def test_trust_region_handles_bound_pinned_optimum():
    report = optimize("trust-region", quadratic_objective([1.4, 0.6]), seed=0)
    assert report.best_weights[0] == 1.0
    assert report.best_weights[1] == pytest.approx(0.6, abs=1e-6)
    assert report.converged


def test_trust_region_max_radius_defaults_to_the_box_diagonal(monkeypatch):
    # The first step, from the centre, uses all of the first radius, 1.0, and is good enough
    # to double it, into the cap: the box's diagonal, sqrt(3).
    root = np.array([[-2.0, 0.0, 2.0], [-2.0, -1.0, 2.0], [-2.0, -2.0, 1.0]])
    gram = root @ root.T + np.eye(3)
    center = np.array([-0.8, 2.9, 2.4])
    objective = quadratic(gram, gram @ center, center @ gram @ center)
    radii, dogleg = [], trust_region._dogleg

    def recorded(g, hessian, radius):
        radii.append(radius)
        return dogleg(g, hessian, radius)

    monkeypatch.setattr(trust_region, "_dogleg", recorded)
    optimize("trust-region", objective, seed=0)
    assert radii[:2] == [1.0, math.sqrt(3)]


@pytest.mark.parametrize("method", SEARCH_METHODS)
def test_optimum_on_faces_of_the_box(method):
    """The minimiser of |x - (-0.5, 0.5, 1.5)|^2 over [0, 1]^3 is (0, 0.5, 1): two coordinates on a face."""
    w = optimize(method, quadratic_objective([-0.5, 0.5, 1.5]), cheap_params(method), seed=4).best_weights
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    if method in GRADIENT_METHODS:
        assert (w[0], w[2]) == (0.0, 1.0)
        assert w[1] == pytest.approx(0.5, abs=1e-6)
    else:
        assert w.tolist() == pytest.approx([0.0, 0.5, 1.0], abs=1e-3)


# ---------------------------------------------------------------- report serialization

def test_report_json_round_trip(run_on_pair):
    result, out = run_on_pair("pso", seed=7, overrides={"stagnation_window": 10})
    report = result.report
    doc = json.loads((out / "optimizer_report.json").read_text())
    assert doc["method"] == "pso"
    assert doc["seed"] == 7
    assert doc["best_weights"] == [float(x) for x in report.best_weights]
    assert doc["best_objective"] == report.best_objective
    assert doc["config"]["method_params"] == {"stagnation_window": 10}
    assert doc["trace"][0][0] == 0
    assert doc["trace"] == [[it, f] for it, f in report.trace]  # every pair, each value exact


@pytest.mark.parametrize("method", ["pso", "tnc"])
def test_wrappers_set_on_the_instance_see_every_search_evaluation(method):
    """Counting wrappers set on a built objective, as the benchmark's tracer sets its
    timers, see exactly the evaluations the report counts."""
    objective = make_mse_objective(random_score_matrix(60, 4, seed=11))
    seen = {"value": 0, "gradient": 0, "value_batch": 0}  # calls; points for value_batch

    def counting(name, inner):
        def call(x):
            seen[name] += len(x) if name == "value_batch" else 1
            return inner(x)

        return call

    for name in seen:
        setattr(objective, name, counting(name, getattr(objective, name)))
    report = optimize(method, objective, cheap_params(method), seed=0)
    assert seen["value"] + seen["value_batch"] == report.function_evaluations
    assert seen["gradient"] == report.gradient_evaluations
    used = {"pso": ["value_batch"], "tnc": ["value", "gradient"]}[method]
    assert [name for name, count in seen.items() if count] == used


def test_report_counts_gradient_evaluations():
    matrix = random_score_matrix(50, 4, seed=25)
    report = optimize("lbfgsb", make_mse_objective(matrix))
    assert report.gradient_evaluations > 0
    derivative_free = optimize("nelder-mead", make_mse_objective(matrix))
    assert derivative_free.gradient_evaluations == 0

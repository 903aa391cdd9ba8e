"""D-efficiency and the benchmark sweeps over the ratio grids."""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    InteractionFamily,
    InteractionLabel,
    NonpositivePredictor,
    SingularInformation,
    ThreeFactorFamily,
    ThreeFactorScenario,
    ValidationError,
    classify_three_factor,
    d_efficiency,
    efficiency_sweep,
    gamma_grid,
    interaction_benchmark_designs,
    interaction_equal_beta,
    region_vertices,
    three_factor_benchmark_designs,
    three_factor_vertices,
    validate_positivity,
    verify_optimality,
    xi3_weights,
)
from gammadesign import analytic_designs, efficiency, model_core
from gammadesign.efficiency import _admissible

from oracles import equal_beta_edges, ulp_steps as _ulp_steps


POS = ThreeFactorFamily(beta1_sign=1)
NEG = ThreeFactorFamily(beta1_sign=-1)
SQUARE = InteractionFamily(a=1.0, b=4.0)
V = three_factor_vertices()


# ---------------------------------------------------------------- efficiency


def test_efficiency_of_reference_is_one():
    design = POS.reference(0.5)
    assert d_efficiency(POS.model, POS.beta(0.5), design, design) == 1.0


def test_efficiency_never_exceeds_one_against_reference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gamma = rng.uniform(-0.2, 1.0)
        reference = POS.reference(gamma)
        pts = [tuple(p) for p in rng.uniform(1.0, 2.0, size=(5, 3))]
        w = rng.dirichlet(np.ones(5))
        design = Design(points=pts, weights=list(w))
        value = d_efficiency(POS.model, POS.beta(gamma), design, reference)
        assert 0.0 < value <= 1.0 + 1e-9


def test_efficiency_scale_invariant_in_beta():
    designs = three_factor_benchmark_designs()
    beta = np.array([1.0, 0.3, 0.3])
    base = d_efficiency(POS.model, beta, designs["xi4"], designs["xi1"])
    for lam in (0.1, 7.0):
        value = d_efficiency(POS.model, lam * beta, designs["xi4"], designs["xi1"])
        assert value == pytest.approx(base, abs=1e-10)


@given(st.integers(-1000, 1000))
@example(664)
@example(-664)
def test_efficiency_is_the_same_at_every_power_of_two_scale_of_beta(k):
    """d_efficiency is taken at beta scaled by a power of two: at the raw (s, 0.1 s, 0.1 s), s = 1e200
    underflowed M to a singular matrix and s = 1e-200 overflowed its intensities."""
    designs = three_factor_benchmark_designs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = d_efficiency(POS.model, (1.0, 0.1, 0.1), designs["xi4"], designs["xi3"])
        value = d_efficiency(POS.model, [math.ldexp(v, k) for v in (1.0, 0.1, 0.1)], designs["xi4"], designs["xi3"])
    assert value == pytest.approx(base, rel=1e-12)


def test_efficiency_scale_invariant_in_x():
    designs = three_factor_benchmark_designs()
    beta = (1.0, 0.5, 0.5)

    def scaled(design: Design, lam: float) -> Design:
        return Design(
            points=[tuple(lam * c for c in p) for p in design.points],
            weights=list(design.weights),
        )

    base = d_efficiency(POS.model, beta, designs["xi4"], designs["xi1"])
    value = d_efficiency(
        POS.model, beta, scaled(designs["xi4"], 3.0), scaled(designs["xi1"], 3.0)
    )
    assert value == pytest.approx(base, rel=1e-10)


def test_efficiency_rejects_singular_design():
    thin = Design(points=[V[0], V[7]], weights=[0.5, 0.5])
    with pytest.raises(SingularInformation):
        d_efficiency(POS.model, (1.0, 1.0, 1.0), thin, POS.reference(1.0))


# ---------------------------------------------------------------- grid


def test_gamma_grid_inclusive():
    grid = gamma_grid(-0.24, 1.0)
    assert len(grid) == 125
    assert grid[0] == pytest.approx(-0.24)
    assert grid[-1] == pytest.approx(1.0)
    assert gamma_grid(0.0, 0.05) == pytest.approx((0.0, 0.01, 0.02, 0.03, 0.04, 0.05))


def test_gamma_grid_validation():
    with pytest.raises(ValidationError):
        gamma_grid(0.0, 1.0, -0.1)
    with pytest.raises(ValidationError):
        gamma_grid(0.0, 0.055, 0.01)


# ---------------------------------------------------------------- sweeps


def test_sweep_skips_inadmissible_points():
    designs = {"xi1": three_factor_benchmark_designs()["xi1"]}
    sweep = efficiency_sweep(POS, designs, gamma_grid(-0.27, -0.20))
    assert len(sweep.skipped) == 3  # -0.27, -0.26, -0.25
    assert sweep.gammas[0] == pytest.approx(-0.24)
    assert all(0.0 < v <= 1.0 + 1e-9 for row in sweep.values for v in row)


def test_optimal_designs_score_one_on_their_subregions():
    designs = three_factor_benchmark_designs()
    sweep = efficiency_sweep(POS, designs, gamma_grid(0.2, 1.0, 0.2))
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in sweep.column("xi1"))
    sweep = efficiency_sweep(POS, designs, (-0.24, -0.23, -0.22))
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in sweep.column("xi2"))
    assert all(v < 1.0 for v in sweep.column("xi1"))


def test_coarse_range_sanity():
    designs = three_factor_benchmark_designs()
    sweep = efficiency_sweep(POS, designs, gamma_grid(-0.2, 1.0, 0.1))
    xi3 = sweep.column("xi3")
    assert min(xi3) >= 0.85
    assert max(xi3) <= 1.0 + 1e-9
    xi4 = sweep.column("xi4")
    assert 0.57 <= min(xi4) and max(xi4) <= 0.77


def test_interaction_boundary_flips():
    designs = interaction_benchmark_designs()
    sweep = efficiency_sweep(SQUARE, designs, (-0.37, -0.36, 3.99, 4.0))
    by_gamma = dict(zip(sweep.gammas, sweep.values))
    names = sweep.design_names
    assert by_gamma[-0.37][names.index("xi2")] == pytest.approx(1.0, abs=1e-12)
    assert by_gamma[-0.36][names.index("xi2")] < 1.0
    assert by_gamma[3.99][names.index("xi1")] < 1.0
    assert by_gamma[4.0][names.index("xi1")] == pytest.approx(1.0, abs=1e-12)


def test_interaction_admissibility_edge():
    assert not SQUARE.admissible(-0.5)
    assert SQUARE.admissible(-0.49)


@pytest.mark.parametrize("edge", [-0.10499999999999998, math.inf], ids=["zero_predictor", "infinite"])
def test_interaction_sweep_skips_boundary_ratio(edge):
    """At -0.10499999999999998 the ratio exceeds -a/2, but the predictor at
    (0.21, 0.21) computes to 0; the sweep used to abort on both ratios."""
    family = InteractionFamily(0.21, 4.0)
    sweep = efficiency_sweep(family, interaction_benchmark_designs(0.21, 4.0), [edge, 1.0])
    assert sweep.gammas == (1.0,)
    assert sweep.skipped == (f"gamma={edge:g} is outside the admissible range",)
    assert not family.admissible(edge)


def test_three_factor_beta_is_defined_off_the_admissible_range():
    assert NEG.beta(-0.5) == (-1.0, 0.5, 0.5)
    assert not NEG.admissible(-0.5) and not NEG.admissible(math.nan)
    sweep = efficiency_sweep(NEG, three_factor_benchmark_designs(), (-0.5, math.inf, -2.0))
    assert sweep.gammas == (-2.0,) and len(sweep.skipped) == 2


ULPS = st.integers(-4, 4)


@given(
    a=st.floats(0.01, 100.0),
    ratio=st.floats(1.01, 10.0),
    steps=st.lists(ULPS, min_size=1, max_size=6),
)
def test_interaction_admissibility_is_the_kernel_rule_at_the_edge(a, ratio, steps):
    """Ratios within a few ulps of -a/2: the sweep's batched decision, the
    per-ratio ``admissible`` and ``validate_positivity`` agree, every
    admissible ratio has its closed-form reference, and the classifier
    refuses every other one."""
    family = InteractionFamily(a, a * ratio)
    square = ExperimentalRegion.hypercube(a, a * ratio, 2)
    gammas = [_ulp_steps(-a / 2.0, k) for k in steps]
    batched, betas = _admissible(family, gammas)
    single = [validate_positivity(family.model, family.beta(g), square) for g in gammas]
    assert batched.tolist() == single == [family.admissible(g) for g in gammas]
    assert len(betas) == sum(single)
    for gamma, ok in zip(gammas, single):
        if ok:
            interaction_equal_beta(a, a * ratio, gamma)
        else:
            with pytest.raises(ValidationError, match=r"gamma must exceed -a/2"):
                interaction_equal_beta(a, a * ratio, gamma)


@given(
    beta1=st.one_of(st.just(0.0), st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3)),
    step=ULPS,
)
def test_three_factor_closed_form_admissibility_is_the_kernel_rule(beta1, step):
    """``ThreeFactorScenario`` keeps the paper's closed form; within a few
    ulps of its edge it accepts exactly the points whose predictor is
    positive at every vertex of [1,2]^3."""
    edge = -beta1 if beta1 <= 0.0 else -beta1 / 4.0
    beta = _ulp_steps(edge, step)
    try:
        ThreeFactorScenario(beta1, beta)
        closed_form = True
    except ValidationError:
        closed_form = False
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    assert closed_form == validate_positivity(GammaModel.first_order(3), (beta1, beta, beta), cube)


@given(steps=st.lists(ULPS, min_size=1, max_size=6))
def test_three_factor_families_agree_with_the_scenario_at_their_edges(steps):
    for family, edge in ((POS, -0.25), (NEG, -1.0)):
        gammas = [_ulp_steps(edge, k) for k in steps]
        scenario_ok = []
        for gamma in gammas:
            try:
                family.scenario(gamma)
                scenario_ok.append(True)
            except ValidationError:
                scenario_ok.append(False)
        assert _admissible(family, gammas)[0].tolist() == scenario_ok == [family.admissible(g) for g in gammas]


@given(a=st.floats(0.2, 3.0), ratio=st.floats(1.05, 8.0))
def test_interaction_references_have_positive_weights_near_the_edges(a, ratio):
    """Within 3 ulps of a ratio where a four-point weight vanishes, the
    reference drops that vertex instead of carrying a zero weight."""
    family = InteractionFamily(a, a * ratio)
    for edge in equal_beta_edges(family.a, family.b):
        for k in range(-3, 4):
            assert min(family.reference(_ulp_steps(edge, k)).weights) > 0.0


def test_near_edge_example_is_case_iv_and_no_efficiency_exceeds_one():
    """The weight of v1 rounds to exactly 0 here, so the optimum is Case_iv."""
    a, b, gamma = 1.6429115709179976, 4.988404590065324, -0.6151720249885143
    assert interaction_equal_beta(a, b, gamma).label is InteractionLabel.CASE_IV
    sweep = efficiency_sweep(InteractionFamily(a, b), interaction_benchmark_designs(a, b), (gamma,))
    assert sweep.gammas == (gamma,) and all(value <= 1.0 for value in sweep.values[0])


def test_numerical_reference_is_verified_optimal():
    reference = NEG.reference(-2.0)
    report = verify_optimality(
        NEG.model,
        NEG.beta(-2.0),
        reference,
        Criterion.D,
        region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, 3)),
        tol=1e-8,
    )
    assert report.passed


def test_sweep_serialization():
    designs = {"xi1": three_factor_benchmark_designs()["xi1"]}
    sweep = efficiency_sweep(POS, designs, (0.5, 0.6))
    csv = sweep.to_csv("%.4f")
    lines = csv.strip().split("\n")
    assert lines[0] == "gamma,xi1"
    assert lines[1] == "0.5000,1.0000"
    obj = sweep.to_json()
    assert set(obj) == {"scenario", "gammas", "designs", "values", "skipped"}
    with pytest.raises(ValueError):
        sweep.column("nope")
    with pytest.raises(ValidationError):
        efficiency_sweep(POS, {}, (0.5,))


@pytest.mark.parametrize(
    "family, designs, gammas",
    [
        (POS, three_factor_benchmark_designs(), gamma_grid(-0.24, 1.0)),
        (SQUARE, interaction_benchmark_designs(), gamma_grid(-0.49, 5.0)),
        (NEG, three_factor_benchmark_designs(), (-2.5, -2.0, -1.5)),
    ],
    ids=["example1", "example2", "negative_band"],
)
def test_sweep_matches_per_row_d_efficiency(family, designs, gammas):
    sweep = efficiency_sweep(family, designs, gammas)
    assert sweep.gammas == tuple(gammas) and not sweep.skipped
    expected = []
    for gamma in gammas:
        reference = family.reference(gamma)
        expected.append([d_efficiency(family.model, family.beta(gamma), d, reference) for d in designs.values()])
    np.testing.assert_allclose(sweep.values, expected, rtol=1e-12, atol=0.0)


def test_negative_band_rows_use_solver_references():
    assert all(classify_three_factor(NEG.scenario(g)).design is None for g in (-2.5, -2.0, -1.5))


def test_singular_sweep_row_is_named():
    """One ulp past beta = 1 the predictor at (2, 1, 1) is about 4e-16."""
    designs = three_factor_benchmark_designs()
    for gammas in ((-1.0000000000000002,), (-1.1, -1.0000000000000002)):
        with pytest.raises(SingularInformation, match=r"gamma=-1\.0000000000000002, design reference"):
            efficiency_sweep(NEG, designs, gammas)


def test_nonpositive_sweep_row_is_named():
    designs = {
        "xi1": interaction_benchmark_designs()["xi1"],
        "far": Design([(1.0, 1.0), (4.0, 1.0), (10.0, 0.1)], [1 / 3] * 3),
    }
    with pytest.raises(NonpositivePredictor, match=r"gamma=-0\.4, design far"):
        efficiency_sweep(SQUARE, designs, (1.0, -0.4))


def test_sweep_factors_once_per_design_and_reference_support(monkeypatch):
    """A count, not a timing: a fallback to one factorization per row
    would make it grow with the grid."""
    cholesky = np.linalg.cholesky
    calls = []

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    designs = interaction_benchmark_designs()
    for step in (0.01, 0.005):  # 550 and 1099 ratios
        grid = gamma_grid(-0.49, 5.0, step)
        supports = {SQUARE.reference(gamma).points for gamma in grid}
        calls.clear()
        efficiency_sweep(SQUARE, designs, grid)
        assert len(calls) <= len(designs) + len(supports) == 7


@pytest.mark.parametrize(
    "family, designs, grid",
    [
        (POS, three_factor_benchmark_designs(), gamma_grid(-0.24, 1.0)),  # example1: 125 ratios
        (SQUARE, interaction_benchmark_designs(), gamma_grid(-0.49, 5.0)),  # example2: 550 ratios
    ],
    ids=["example1", "example2"],
)
def test_closed_form_sweep_builds_no_design(built_designs, counted_calls, family, designs, grid):
    """Closed-form references are support and weights, never a Design per
    ratio; the grid takes no public classifier call and no one-matrix pivot
    test per ratio."""
    classifier_calls = [counted_calls(analytic_designs, name) for name in ("classify_three_factor", "interaction_equal_beta")]
    pivot_tests = counted_calls(model_core, "_pivot_logdet")
    sweep = efficiency_sweep(family, designs, grid)
    assert len(sweep.gammas) == len(grid) and not sweep.skipped
    assert built_designs == []
    assert classifier_calls == [[], []] and pivot_tests == []


def _grid_optima(family, gammas):
    """(support, weights) of each ratio, from the family's grid optima. A ratio
    the family would solve numerically gets the support ("solved",)."""
    rows = {}
    solved = (SimpleNamespace(points=("solved",), weights=(1.0,)), None)
    with mock.patch.object(efficiency, "_solve_path", lambda model, betas, *args: [solved] * len(betas)):
        for points, weights, group in family._optima(np.array(gammas, dtype=float)):
            for row, w in zip(group, np.broadcast_to(weights, (len(group), len(points)))):
                rows[row] = (points, tuple(w.tolist()))
    return [rows[k] for k in range(len(gammas))]


def _assert_classifier_optima(grid, results):
    """Each grid optimum equals the classifier's points and weights, bitwise."""
    for (points, weights), result in zip(grid, results):
        if result.numerical:
            assert points == ("solved",)
        else:
            assert points == result.points and weights == result.weights


@pytest.mark.parametrize(
    "family, grid",
    [
        (POS, gamma_grid(-0.24, 1.0)),
        (SQUARE, gamma_grid(-0.49, 5.0)),
        # Dense enough to meet the ratios where pow(x, 2) and x * x round apart (about 1 in 1,000).
        (POS, np.random.default_rng(5).uniform(-0.24, 1.0, 20_000).tolist()),
        (SQUARE, np.random.default_rng(6).uniform(-0.49, 5.0, 20_000).tolist()),
    ],
    ids=["example1", "example2", "random_three_factor", "random_interaction"],
)
def test_grid_optima_are_the_classifiers_optima(family, grid):
    if family is POS:
        results = [classify_three_factor(POS.scenario(gamma)) for gamma in grid]
    else:
        results = [interaction_equal_beta(SQUARE.a, SQUARE.b, gamma) for gamma in grid]
    assert {result.label.value for result in results} >= ({"Xi1", "Xi2", "Xi3"} if family is POS else {"Case_i", "Case_iv"})
    _assert_classifier_optima(_grid_optima(family, grid), results)


@given(a=st.floats(0.01, 100.0), ratio=st.floats(1.01, 10.0), steps=st.lists(st.integers(-3, 3), min_size=1, max_size=6))
def test_interaction_grid_optima_match_the_classifier_at_its_edges(a, ratio, steps):
    b = a * ratio
    family = InteractionFamily(a, b)
    edges = [-a * b / (3.0 * b - a)] + ([a * b / (b - 3.0 * a)] if b > 3.0 * a else [])
    gammas = [gamma for edge in edges for gamma in (_ulp_steps(edge, k) for k in steps) if family.admissible(gamma)]
    results = [interaction_equal_beta(family.a, family.b, gamma) for gamma in gammas]
    _assert_classifier_optima(_grid_optima(family, gammas), results)


@given(steps=st.lists(st.integers(-3, 3), min_size=1, max_size=6))
def test_three_factor_grid_optima_match_the_classifier_at_its_edges(steps):
    for family, edges in ((POS, (0.2, -5.0 / 23.0)), (NEG, (-3.0, -1.2))):
        gammas = [_ulp_steps(edge, k) for edge in edges for k in steps]
        results = [classify_three_factor(family.scenario(gamma)) for gamma in gammas]
        _assert_classifier_optima(_grid_optima(family, gammas), results)


# ---------------------------------------------------------------- benchmarks


def test_three_factor_benchmark_shapes():
    designs = three_factor_benchmark_designs()
    sizes = {name: d.size for name, d in designs.items()}
    assert sizes == {"xi1": 3, "xi2": 3, "xi3": 4, "xi4": 8, "xi5": 4, "xi6": 4, "xi7": 27}
    np.testing.assert_allclose(designs["xi3"].weights, xi3_weights(-1.0 / 7.0), rtol=1e-15)
    assert designs["xi2"].points == (V[2], V[3], V[4])
    assert designs["xi5"].points == (V[0], V[4], V[5], V[6])
    assert designs["xi6"].points == (V[1], V[2], V[3], V[7])


def test_interaction_benchmark_shapes():
    designs = interaction_benchmark_designs()
    sizes = {name: d.size for name, d in designs.items()}
    assert sizes == {"xi1": 3, "xi2": 3, "xi3": 4, "xi4": 9}
    assert (2.5, 2.5) in designs["xi4"].points

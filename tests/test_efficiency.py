"""D-efficiency and the benchmark sweeps over the ratio grids."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import warnings
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


@given(st.floats(-10.0, 10.0), st.integers(0, 600), st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.2, 0.25, 1.0]))
@example(-2.99, 199, 0.01)
def test_gamma_grid_is_bitwise_integer_stepping(start, count, step):
    """The grid is start + k * step in floats, bit for bit, drift included."""
    expected = tuple(start + k * step for k in range(count + 1))
    assert [x.hex() for x in gamma_grid(start, expected[-1], step)] == [x.hex() for x in expected]


def test_gamma_grid_keeps_its_float_drift():
    grid = gamma_grid(-2.99, -1.0, 0.01)
    assert grid[179] == -1.2000000000000002 and grid[-1] == -1.0000000000000002


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


CSV_ENTRIES = st.one_of(
    st.floats(1e-8, 1e12).flatmap(lambda x: st.sampled_from((x, -x))),
    # zeros, tiny negatives, exact ties at some k (0.03125 at k = 4), non-finite entries and |x 10^k| >= 2^50
    st.sampled_from((0.0, -0.0, -1e-9, -4e-5, 0.03125, -0.03125, 2.5, -0.5, math.nan, math.inf, -math.inf, 2.0**50, 1e300)),
)
CSV_TABLES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(CSV_ENTRIES, min_size=cols, max_size=cols), max_size=4).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, cols)
    )
)


def percent_rows(table: np.ndarray, float_format: str) -> str:
    return "".join(",".join(float_format % x for x in row) + "\n" for row in table.tolist())


def tiled(table: np.ndarray) -> np.ndarray:
    """The rows of ``table`` repeated up to the size the integer path takes, unless there are none."""
    return np.tile(table, (-(-efficiency._INTEGER_ROWS_MIN_ENTRIES // max(table.size, 1)), 1))


@given(st.integers(1, 9), CSV_TABLES)
@example(4, np.array([[0.03125, 1.0]]))
@example(4, np.array([[-0.0, -1e-9], [123456.78915, 5.0]]))
@example(3, np.empty((0, 5)))
def test_csv_writer_is_the_percent_operator_byte_for_byte(k, table):
    for rows in (table, tiled(table)):
        assert efficiency._csv_rows(rows, f"%.{k}f") == percent_rows(rows, f"%.{k}f")


@pytest.mark.parametrize(
    "table, float_format, fixed",
    [
        (tiled(np.array([[-0.0, -1e-9, -4e-5], [0.25, 1234.5678, 5.0]])), "%.4f", True),
        (np.array([[-0.0, -1e-9, -4e-5], [0.25, 1234.5678, 5.0]]), "%.4f", False),  # too small to pay
        (tiled(np.array([[0.03125]])), "%.4f", False),  # an exact tie: rounds half to even, so the % path decides
        (tiled(np.array([[1.0, math.nan]])), "%.4f", False),
        (tiled(np.array([[1.0, -math.inf]])), "%.4f", False),
        (tiled(np.array([[1.0, 2.0**50 / 1e4]])), "%.4f", False),
        (np.empty((0, 3)), "%.4f", False),
        *[(tiled(np.array([[0.25, -1.5]])), fmt, False) for fmt in ("%.10g", "%g", "%.3e", "%8.2f", "%.0f", "%.10f")],
    ],
)
def test_csv_writer_prints_integers_only_where_they_are_exact(table, float_format, fixed):
    with mock.patch.object(efficiency, "_fixed_rows", wraps=efficiency._fixed_rows) as fixed_rows:
        assert efficiency._csv_rows(table, float_format) == percent_rows(table, float_format)
    assert fixed_rows.called == fixed


@pytest.mark.parametrize("read", [False, True], ids=["fresh", "tuples_read"])
def test_sweep_value_semantics_are_those_of_its_tuples(read):
    """Equality, hash, repr, columns and JSON are those of a dataclass of the five tuples, and every
    copy keeps the array read-only, whether or not the tuples were built before copying."""
    make = lambda: efficiency_sweep(SQUARE, interaction_benchmark_designs(), (-1.0, *gamma_grid(-0.49, 0.5)))
    sweep = make()
    fields = {f.name: getattr(sweep, f.name) for f in dataclasses.fields(efficiency.EfficiencySweep)}
    reference = dataclasses.make_dataclass("EfficiencySweep", list(fields), frozen=True)(**fields)
    assert sweep.skipped and np.array_equal(sweep._table, np.column_stack([fields["gammas"], fields["values"]]))
    for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        original = make()
        if read:
            original.values
        twin = clone(original)
        assert not twin._table.flags.writeable and not original._table.flags.writeable
        with pytest.raises(ValueError):
            twin._table[0, 0] = 0.0
        for other in (twin, original):
            assert other == sweep and hash(other) == hash(reference) and repr(other) == repr(reference)
    assert sweep.to_json() == {
        "scenario": reference.scenario,
        "gammas": list(reference.gammas),
        "designs": list(reference.design_names),
        "values": [list(row) for row in reference.values],
        "skipped": list(reference.skipped),
    }
    for i, name in enumerate(sweep.design_names):
        assert sweep.column(name) == tuple(row[i] for row in reference.values)
    with pytest.raises(AttributeError):
        sweep.nope


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


@pytest.mark.parametrize("family, designs", [(POS, three_factor_benchmark_designs()), (SQUARE, interaction_benchmark_designs())])
def test_array_sweep_is_its_tuple_sweep(family, designs):
    """A 1-D float64 array of ratios, read as it is, sweeps bit for bit as its tuple does; a 2-D array or a
    string is judged as numbers and refused."""
    gammas = (-0.3, 0.5, math.nan, 2.0, 4.0)
    by_array, by_tuple = efficiency_sweep(family, designs, np.array(gammas)), efficiency_sweep(family, designs, gammas)
    assert by_array._table.tobytes() == by_tuple._table.tobytes() and by_array.skipped == by_tuple.skipped
    for bad in (np.array([[0.5, 0.6], [0.7, 0.8]]), "0.5"):
        with pytest.raises(ValidationError):
            efficiency_sweep(family, designs, bad)


@pytest.mark.parametrize(
    "family, designs, gammas",
    [
        (POS, three_factor_benchmark_designs(), gamma_grid(-0.24, 1.0)),
        (SQUARE, interaction_benchmark_designs(), gamma_grid(-0.49, 5.0)),
        (NEG, three_factor_benchmark_designs(), (-2.5, -2.0, -1.5)),
        (NEG, three_factor_benchmark_designs(), gamma_grid(-2.99, -1.21, 0.01)),
        (POS, three_factor_benchmark_designs(), (1e150, 1e200, 1e300)),
        (SQUARE, interaction_benchmark_designs(), (1e150, 1e200, 1e300)),
    ],
    ids=["example1", "example2", "negative_band", "default_band", "three_factor_huge", "interaction_huge"],
)
def test_sweep_matches_per_row_d_efficiency(family, designs, gammas):
    """Under the RuntimeWarning-as-error filter. At the huge ratios the sweep once built M at the raw betas,
    where u = eta**-2 underflowed: 1e200 raised SingularInformation and 1e150 was off in the 14th digit."""
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


def test_design_of_wrong_dimension_is_named_before_any_solve(counted_calls):
    """A design on the square, swept or scored on the cube, raises naming that design, before the band is solved."""
    solved, factored = counted_calls(efficiency, "_solve_path"), counted_calls(model_core, "_factor")
    square = interaction_benchmark_designs()["xi3"]
    cube = three_factor_benchmark_designs()["xi4"]
    message = r" has dimension 2, the model 3$"
    with pytest.raises(ValidationError, match=r"^design square" + message):
        efficiency_sweep(NEG, {"xi4": cube, "square": square}, (-2.0, -1.5))
    with pytest.raises(ValidationError, match=r"^design" + message):
        d_efficiency(NEG.model, NEG.beta(-2.0), square, cube)
    with pytest.raises(ValidationError, match=r"^optimal design" + message):
        d_efficiency(NEG.model, NEG.beta(-2.0), cube, square)
    assert solved == [] and factored == []


def test_singular_design_row_is_named_without_reevaluation(counted_calls):
    """A design column, not the reference, fails at a later row: the point (0.5, 0.5) of "low" has
    predictor gamma + 0.25, about 3e-17 there. The sweep names that design and that gamma from the stack
    it evaluated, with no more factorizations than a grid that passes; each row was evaluated again."""
    calls = counted_calls(model_core, "_factor")
    designs = {
        "xi1": interaction_benchmark_designs()["xi1"],
        "low": Design([(0.5, 0.5), (1.0, 4.0), (4.0, 1.0)], [1 / 3] * 3),
    }
    efficiency_sweep(SQUARE, designs, (0.0, 0.5))
    passing = len(calls)
    calls.clear()
    with pytest.raises(SingularInformation, match=r"gamma=-0\.24999999999999997, design low"):
        efficiency_sweep(SQUARE, designs, (0.0, -0.24999999999999997))
    assert len(calls) <= passing


def test_stacked_rules_name_their_first_failing_member():
    """Two members of each stack fail; the rule sets the index of the first, and a sweep whose
    design fails at two rows names the first of them."""
    tiny = np.diag([1.0, 1e-14])
    with pytest.raises(SingularInformation) as singular:
        model_core._factor(np.array([np.eye(2), tiny, np.eye(2), tiny]))
    assert singular.value._member == 1
    betas = np.array([(1.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
    with pytest.raises(NonpositivePredictor) as nonpositive:
        model_core._positive_predictor(GammaModel.first_order(2), betas, np.array([(2.0, 1.0)]))
    assert nonpositive.value._member == 2
    far = {"far": Design([(1.0, 1.0), (4.0, 1.0), (10.0, 0.1)], [1 / 3] * 3)}
    with pytest.raises(NonpositivePredictor, match=r"gamma=-0\.4, design far"):
        efficiency_sweep(SQUARE, far, (1.0, -0.4, -0.45))


def test_sweep_factors_once_per_design_and_reference_support(counted_calls):
    """A count, not a timing: a fallback to one factorization per row
    would make it grow with the grid. ``_factor`` holds the package's only
    Cholesky call, so its calls count the factorizations. The numerical band
    of the three-factor cube is one more stack, not one per ratio (186 stacks
    on the default band grid when each solved ratio had its own)."""
    calls = counted_calls(model_core, "_factor")
    designs = interaction_benchmark_designs()
    for step in (0.01, 0.005):  # 550 and 1099 ratios
        grid = gamma_grid(-0.49, 5.0, step)
        supports = {SQUARE.reference(gamma).points for gamma in grid}
        calls.clear()
        efficiency_sweep(SQUARE, designs, grid)
        assert len(calls) <= len(designs) + len(supports) == 7
    calls.clear()
    efficiency_sweep(NEG, three_factor_benchmark_designs(), gamma_grid(-2.99, -1.21, 0.01))  # 179 solved ratios
    assert len([M for (M,) in calls if M.ndim == 3]) == 7 + 1  # the solver's own factorizations are of one M


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
    solved = lambda model, betas, *args: (("solved",), [(np.ones(1), None)] * len(betas))
    with mock.patch.object(efficiency, "_solve_path", solved):
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

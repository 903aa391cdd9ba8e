"""Sensitivity functions and equivalence-theorem verification."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    InterceptTransform,
    NonpositivePredictor,
    SingularInformation,
    ValidationError,
    VerificationReport,
    a_optimal_two_factor,
    d_optimal_interaction,
    interaction_to_intercept,
    interaction_vertices,
    is_simplex_design_d_optimal,
    map_design_interaction,
    orthant_axis_points,
    region_vertices,
    sensitivity,
    simplex_design,
    verify_intercept_design,
    verify_optimality,
)
from gammadesign import equivalence

from oracles import eager_report, raw_features, raw_information, raw_intensities


# ---------------------------------------------------------------- helpers


def equal_weight_design(points) -> Design:
    n = len(points)
    return Design(points=points, weights=[1.0 / n] * n)


def simplex_support(nu: int, a: float, b: float):
    """One coordinate at b, the rest at a, for each coordinate in turn."""
    pts = []
    for j in range(nu):
        pts.append(tuple(b if i == j else a for i in range(nu)))
    return pts


# ---------------------------------------------------------------- vertices


def test_region_vertices_square():
    square = ExperimentalRegion.hypercube(1.0, 2.0, 2)
    assert region_vertices(square).tolist() == [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]


def test_region_vertices_cube():
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    verts = list(map(tuple, region_vertices(cube).tolist()))
    assert len(verts) == 8
    assert verts[0] == (1.0, 1.0, 1.0)
    assert verts[-1] == (2.0, 2.0, 2.0)
    assert len(set(verts)) == 8


def test_region_vertices_thin_box():
    eps = 1e-6
    thin = ExperimentalRegion.hypercube(2.0 - eps, 2.0, 2)
    verts = region_vertices(thin).tolist()
    assert len(set(map(tuple, verts))) == 4


def test_region_vertices_rejects_orthant():
    with pytest.raises(ValidationError):
        region_vertices(ExperimentalRegion.orthant(2))


def test_orthant_axis_points():
    assert orthant_axis_points(3) == [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    ]
    assert orthant_axis_points(2, scale=(2.0, 5.0)) == [(2.0, 0.0), (0.0, 5.0)]


# ---------------------------------------------------------------- sensitivity


def test_sensitivity_equals_p_at_axis_support():
    m3 = GammaModel.first_order(3)
    design = equal_weight_design(orthant_axis_points(3))
    value = sensitivity(m3, (1.0, 2.0, 3.0), design, (1.0, 0.0, 0.0), Criterion.D)
    assert value == pytest.approx(3.0, abs=1e-12)


def test_sensitivity_exceeds_bound_for_small_gamma():
    # equal weights on the three simplex vertices of [1,2]^3 stop being
    # optimal once the two small coefficients shrink enough; the bound
    # is then exceeded at the opposite vertex (1,2,2)
    m3 = GammaModel.first_order(3)
    design = equal_weight_design(simplex_support(3, 1.0, 2.0))
    value = sensitivity(m3, (1.0, 0.1, 0.1), design, (1.0, 2.0, 2.0), Criterion.D)
    assert value > 3.0


def test_sensitivity_scale_free_in_x():
    m3 = GammaModel.first_order(3)
    rng = np.random.default_rng(42)
    pts = rng.uniform(1.0, 2.0, size=(4, 3))
    design = equal_weight_design([tuple(p) for p in pts])
    beta = (0.7, 1.3, 0.4)
    for _ in range(5):
        x = tuple(rng.uniform(1.0, 2.0, size=3))
        lx = tuple(2.0 * c for c in x)
        v1 = sensitivity(m3, beta, design, x, Criterion.D)
        v2 = sensitivity(m3, beta, design, lx, Criterion.D)
        assert v2 == pytest.approx(v1, rel=1e-12)


def test_sensitivity_matches_direct_formula():
    rng = np.random.default_rng(3)
    mi = GammaModel.interaction()
    beta = (1.0, 0.5, 0.25)
    pts = [tuple(p) for p in rng.uniform(1.0, 2.0, size=(4, 2))]
    w = rng.dirichlet(np.ones(4))
    design = Design(points=pts, weights=list(w))
    M = raw_information("interaction", beta, pts, w)
    x = (1.3, 1.8)
    f = raw_features("interaction", [x])[0]
    u = raw_intensities("interaction", beta, [x])[0]
    expected_d = u * f @ np.linalg.inv(M) @ f
    expected_a = u * f @ np.linalg.matrix_power(np.linalg.inv(M), 2) @ f
    assert sensitivity(mi, beta, design, x, Criterion.D) == pytest.approx(expected_d, rel=1e-10)
    assert sensitivity(mi, beta, design, x, Criterion.A) == pytest.approx(expected_a, rel=1e-10)


# ---------------------------------------------------------------- verification


def test_verify_axis_design_passes_with_random_candidates():
    rng = np.random.default_rng(2024)
    m3 = GammaModel.first_order(3)
    beta = (1.0, 2.0, 3.0)
    design = equal_weight_design(orthant_axis_points(3))
    candidates = orthant_axis_points(3) + [
        tuple(rng.uniform(0.05, 10.0, size=3)) for _ in range(50)
    ]
    report = verify_optimality(m3, beta, design, Criterion.D, candidates)
    assert report.passed
    assert report.bound == pytest.approx(3.0)
    assert report.worst_excess <= 1e-9


def test_verify_flags_simplex_design_outside_its_region():
    m3 = GammaModel.first_order(3)
    design = equal_weight_design(simplex_support(3, 1.0, 2.0))
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    report = verify_optimality(
        m3, (1.0, 0.1, 0.1), design, Criterion.D, region_vertices(cube)
    )
    assert not report.passed
    assert report.worst_point == (1.0, 2.0, 2.0)
    assert report.worst_excess > 0.0


def test_verify_a_criterion_two_point():
    m2 = GammaModel.first_order(2)
    design = Design(points=[(1.0, 0.0), (0.0, 1.0)], weights=[0.25, 0.75])
    report = verify_optimality(
        m2, (1.0, 3.0), design, Criterion.A, orthant_axis_points(2)
    )
    assert report.passed
    M = raw_information("first_order", (1.0, 3.0), design.points, design.weights)
    assert report.bound == pytest.approx(np.trace(np.linalg.inv(M)), rel=1e-12)


def test_support_attains_bound_for_passing_design():
    m3 = GammaModel.first_order(3)
    design = equal_weight_design(simplex_support(3, 1.0, 2.0))
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    report = verify_optimality(
        m3, (1.0, 1.0, 1.0), design, Criterion.D, region_vertices(cube)
    )
    assert report.passed
    by_point = dict(zip(report.points, report.sensitivities))
    for pt in design.points:
        assert by_point[pt] == pytest.approx(3.0, abs=1e-8)


def test_weighted_support_sensitivity_averages_to_p():
    rng = np.random.default_rng(11)
    m3 = GammaModel.first_order(3)
    beta = (0.5, 1.0, 1.5)
    for _ in range(10):
        pts = [tuple(p) for p in rng.uniform(1.0, 2.0, size=(5, 3))]
        w = rng.dirichlet(np.ones(5))
        design = Design(points=pts, weights=list(w))
        total = sum(
            wi * sensitivity(m3, beta, design, x, Criterion.D)
            for x, wi in zip(design.points, design.weights)
        )
        assert total == pytest.approx(3.0, abs=1e-10)


def test_outcome_invariant_under_beta_scaling():
    m3 = GammaModel.first_order(3)
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    design = equal_weight_design(simplex_support(3, 1.0, 2.0))
    for gamma in (0.1, 1.0):
        base = np.array([1.0, gamma, gamma])
        reports = [
            verify_optimality(m3, lam * base, design, Criterion.D, region_vertices(cube))
            for lam in (1.0, 0.1, 7.0)
        ]
        assert len({r.passed for r in reports}) == 1
        if not reports[0].passed:
            # the maximiser is strict here, so it must not move under scaling;
            # for passing designs every support point ties at the bound and the
            # argmax is decided by rounding noise, so no such claim is made
            assert len({r.worst_point for r in reports}) == 1


def test_scaled_candidate_is_a_no_op_for_first_order():
    m3 = GammaModel.first_order(3)
    beta = (1.0, 2.0, 3.0)
    design = equal_weight_design(orthant_axis_points(3))
    base = orthant_axis_points(3) + [(1.0, 1.0, 1.0)]
    extended = base + [(3.0, 3.0, 3.0)]
    r1 = verify_optimality(m3, beta, design, Criterion.D, base)
    r2 = verify_optimality(m3, beta, design, Criterion.D, extended)
    assert r1.passed == r2.passed
    assert r2.worst_excess == pytest.approx(r1.worst_excess, abs=1e-12)


def test_report_json_shape():
    m2 = GammaModel.first_order(2)
    design = equal_weight_design(orthant_axis_points(2))
    report = verify_optimality(m2, (1.0, 1.0), design, Criterion.D, orthant_axis_points(2))
    obj = report.to_json()
    assert set(obj) == {"criterion", "bound", "worst_point", "worst_excess", "pass", "values"}
    assert obj["criterion"] == "D"
    assert obj["pass"] is True
    assert len(obj["values"]) == 2
    assert set(obj["values"][0]) == {"point", "sensitivity"}


@pytest.mark.parametrize("name", ["D", "A"])
def test_criterion_given_as_string_runs_its_own_check(name):
    """A plain string used to run the A check for "D" too, with bound tr(M^-1)."""
    m2 = GammaModel.first_order(2)
    design = Design([(1.0, 2.0), (2.0, 1.0)], [0.5, 0.5])
    vertices = region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, 2))
    report = verify_optimality(m2, (1.0, 1.0), design, name, vertices)
    assert report == verify_optimality(m2, (1.0, 1.0), design, Criterion(name), vertices)
    assert report.criterion is Criterion(name) and report.to_json()["criterion"] == name
    if name == "D":
        assert report.bound == 2.0 and report.passed


@settings(max_examples=40)
@given(
    st.integers(2, 6),
    st.floats(0.5, 2.0),
    st.floats(1.1, 4.0),
    st.lists(st.floats(0.1, 3.0), min_size=6, max_size=6),
    st.lists(st.floats(0.05, 1.0), min_size=64, max_size=64),
)
def test_vertex_array_and_vertex_tuples_give_equal_reports(nu, a, ratio, beta, weights):
    """The read-only vertex array and the same vertices as a list of tuples are the same candidates."""
    vertices = region_vertices(ExperimentalRegion.hypercube(a, a * ratio, nu))
    w = np.array(weights[: len(vertices)])
    design = Design(vertices, (w / w.sum()).tolist())
    for criterion in (Criterion.D, Criterion.A):
        check = lambda candidates: verify_optimality(GammaModel.first_order(nu), beta[:nu], design, criterion, candidates)
        assert check(vertices) == check(list(map(tuple, vertices.tolist())))


# ---------------------------------------------------------------- lazy tuples


def _both_reports():
    """Two report makers, one per entry point: D on the [1, 4]^2 interaction
    square, and A of the mapped design on the intercept square."""
    beta, square = (2.0, 2.0, 1.0), interaction_vertices(1.0, 4.0)
    design = d_optimal_interaction(1.0, 4.0, beta).design
    transform = interaction_to_intercept(1.0, 4.0, beta)
    mapped = map_design_interaction(design, 1.0, 4.0)
    return (
        lambda: verify_optimality(GammaModel.interaction(), beta, design, Criterion.D, square),
        lambda: verify_intercept_design(transform, mapped, Criterion.A),
    )


@pytest.mark.parametrize("read", ["points", "sensitivities", "worst_point", "to_json"])
def test_reports_build_no_point_tuples_until_read(monkeypatch, read):
    """Both entry points turned every judged candidate back into a tuple on each call,
    though most callers read only the verdict."""
    makers = _both_reports()
    calls = []
    original = equivalence._canonical_points
    monkeypatch.setattr(equivalence, "_canonical_points", lambda X: calls.append(X.shape) or original(X))
    for make in makers:
        calls.clear()
        report = make()
        expected = eager_report(report)  # reads the verdict and the two arrays
        assert calls == []
        value = report.to_json() if read == "to_json" else getattr(report, read)
        assert len(calls) == (read != "sensitivities")
        assert value == (expected.to_json() if read == "to_json" else getattr(expected, read))


@settings(max_examples=60)
@given(
    st.integers(2, 6),
    st.sampled_from([Criterion.D, Criterion.A]),
    st.floats(0.5, 2.0),
    st.floats(1.1, 4.0),
    st.lists(st.floats(0.1, 3.0), min_size=6, max_size=6),
    st.lists(st.floats(0.05, 1.0), min_size=64, max_size=64),
)
def test_lazy_report_matches_the_eager_oracle(nu, criterion, a, ratio, beta, weights):
    vertices = region_vertices(ExperimentalRegion.hypercube(a, a * ratio, nu))
    w = np.array(weights[: len(vertices)])
    design = Design(vertices, (w / w.sum()).tolist())
    check = lambda crit: verify_optimality(GammaModel.first_order(nu), beta[:nu], design, crit, vertices)
    report, twin = check(criterion), check(criterion)
    other = check(Criterion.A if criterion is Criterion.D else Criterion.D)
    eager = eager_report(report)
    for name in ("criterion", "bound", "points", "sensitivities", "worst_point", "worst_excess", "passed"):
        assert getattr(report, name) == getattr(eager, name), name
    assert repr(report) == repr(eager)
    assert hash(report) == hash(eager) == hash(twin)
    assert report.to_json() == eager.to_json()
    assert report == twin and eager == eager_report(twin)
    assert report != other and eager != eager_report(other)
    assert report.__eq__(eager) is NotImplemented  # as a dataclass answers another class


def test_reports_are_frozen_with_read_only_arrays():
    report = _both_reports()[0]()
    for name in ("criterion", "bound", "points", "sensitivities", "worst_point", "worst_excess", "passed"):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(report, name)
    for array in (report._candidates, report._sensitivities):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_report_fields_are_the_seven_dataclass_fields_in_order():
    assert [f.name for f in dataclasses.fields(VerificationReport)] == [
        "criterion", "bound", "points", "sensitivities", "worst_point", "worst_excess", "passed",
    ]


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_reports_survive_pickle_and_deepcopy(clone, read_first):
    for make in _both_reports():
        report = make()
        if read_first:
            report.to_json()
        twin = clone(report)
        assert ("points" in vars(twin)) == read_first  # an unread report stays lazy in its copy
        assert twin == report and hash(twin) == hash(report)
        assert twin == make() and repr(twin) == repr(report)


@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"]
)
def test_report_copies_keep_their_arrays_read_only(clone):
    """A copied report's arrays were writable, so a write before its tuples were
    built would have set them apart from the verdict."""
    for make in _both_reports():
        twin = clone(make())
        for array in (twin._candidates, twin._sensitivities):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_unknown_report_attribute_raises_attribute_error():
    report = _both_reports()[0]()
    with pytest.raises(AttributeError, match="no attribute 'weights'"):
        report.weights
    # an instance with no state, as unpickling makes one: a lazy field fails on its missing array, without recursion
    with pytest.raises(AttributeError, match="_candidates"):
        object.__new__(VerificationReport).points


# ---------------------------------------------------------------- scale of beta
#
# D-sensitivities are homogeneous of degree 0 in beta and A-sensitivities and
# their bound of degree 2, so at 2^k beta a D report is the same report and an
# A report is the one at beta scaled by exactly 4^k. Both entry points form G
# at beta scaled by a power of two, so neither overflows nor underflows.

_SQUARE = interaction_vertices(1.0, 2.0)


def _scaled_reports(beta, scale, criterion):
    """The report at beta times ``scale`` for each entry point, with every warning raised as an error:
    the uniform design on the interaction square [1, 2]^2, and its image under the intercept transform
    at beta, whose parameters are scaled alike."""
    transform = interaction_to_intercept(1.0, 2.0, beta)
    lifted = InterceptTransform(1.0, 2.0, *(value * scale for value in (transform.beta0, transform.beta1, transform.beta2)))
    square = equal_weight_design(_SQUARE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (
            verify_optimality(GammaModel.interaction(), [value * scale for value in beta], square, criterion, _SQUARE),
            verify_intercept_design(lifted, map_design_interaction(square, 1.0, 2.0), criterion),
        )


_POSITIVE_BETA = st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0))


@settings(max_examples=60)
@given(_POSITIVE_BETA, st.integers(-1000, 1000))
def test_d_reports_are_the_same_at_every_power_of_two_scale_of_beta(beta, k):
    assert _scaled_reports(beta, math.ldexp(1.0, k), Criterion.D) == _scaled_reports(beta, 1.0, Criterion.D)


@settings(max_examples=60)
@given(_POSITIVE_BETA, st.integers(-200, 200))
def test_a_reports_scale_by_the_exact_power_of_four(beta, k):
    for scaled, base in zip(_scaled_reports(beta, math.ldexp(1.0, k), Criterion.A), _scaled_reports(beta, 1.0, Criterion.A)):
        assert scaled.bound == math.ldexp(base.bound, 2 * k)
        assert scaled.sensitivities == tuple(math.ldexp(value, 2 * k) for value in base.sensitivities)


# Designs that fail or pass either criterion: the uniform square design fails both, the A-optimal
# two-point design passes A only, and the four-point D-optimal interaction design passes D only.
_VERDICT_CASES = {
    "uniform_square": (GammaModel.interaction(), (1.0, 1.0, 1.0), equal_weight_design(_SQUARE), _SQUARE),
    "two_factor_a": (
        GammaModel.first_order(2), (1.0, 3.0), a_optimal_two_factor(1.0, 3.0, (1.0, 3.0)),
        region_vertices(ExperimentalRegion.hypercube(1.0, 3.0, 2)),
    ),
    "four_point_d": (GammaModel.interaction(), (1.0, 1.0, 0.2), d_optimal_interaction(1.0, 2.0, (1.0, 1.0, 0.2)).design, _SQUARE),
}


@settings(max_examples=100)
@given(st.sampled_from(sorted(_VERDICT_CASES)), st.sampled_from(list(Criterion)), st.integers(-1000, 1000))
@example("uniform_square", Criterion.A, -600)
def test_verdicts_are_the_same_at_every_power_of_two_scale_of_beta(case, criterion, k):
    """The A excess is judged relative to its bound, both at one scale of beta. Judged as an absolute
    excess, the uniform square design, which fails A at (1, 1, 1), passed at 2^-600 (1, 1, 1), where
    excess and bound both underflowed to 0."""
    model, beta, design, candidates = _VERDICT_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = verify_optimality(model, beta, design, criterion, candidates)
        scaled = verify_optimality(model, [math.ldexp(value, k) for value in beta], design, criterion, candidates)
    assert scaled.passed is base.passed
    if abs(k) <= 200:
        assert scaled.worst_excess / scaled.bound == base.worst_excess / base.bound


def test_verdict_cases_pass_and_fail_each_criterion():
    verdicts = {
        (case, criterion): verify_optimality(model, beta, design, criterion, candidates).passed
        for case, (model, beta, design, candidates) in _VERDICT_CASES.items()
        for criterion in Criterion
    }
    assert [name for name, passed in verdicts.items() if passed] == [("two_factor_a", Criterion.A), ("four_point_d", Criterion.D)]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_d_verification_at_extreme_beta_scales(scale):
    """A tiny beta overflowed G, and a huge one underflowed M to a singular matrix."""
    unit = (1.0, 1.0, 1.0)
    for report, base in zip(_scaled_reports(unit, scale, Criterion.D), _scaled_reports(unit, 1.0, Criterion.D)):
        assert report.passed is base.passed
        assert report.worst_point == base.worst_point
        assert report.worst_excess == pytest.approx(base.worst_excess, rel=1e-12)


# ---------------------------------------------------------------- errors


def test_singular_information_rejected():
    m3 = GammaModel.first_order(3)
    thin = Design(points=[(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)], weights=[0.5, 0.5])
    with pytest.raises(SingularInformation):
        verify_optimality(m3, (1.0, 1.0, 1.0), thin, Criterion.D, [(1.0, 1.0, 1.0)])


def test_narrow_simplex_designs_are_not_called_singular():
    # On a narrow cube the simplex design's information matrix is well
    # conditioned (about 1e4 at nu=6, b/a=1.05), so verification must give
    # a verdict, and the verdict must be the closed-form rule's.
    rng = np.random.default_rng(2026)
    cases = [(6, 1.0, 1.05, (1.0,) * 6)]
    for _ in range(400):
        nu = int(rng.integers(3, 7))
        a = float(rng.uniform(0.5, 2.0))
        b = a * float(rng.uniform(1.01, 5.0))
        cases.append((nu, a, b, tuple(rng.uniform(0.2, 3.0, nu))))
    for nu, a, b, beta in cases:
        cube = ExperimentalRegion.hypercube(a, b, nu)
        report = verify_optimality(
            GammaModel.first_order(nu), beta, simplex_design(nu, a, b), Criterion.D, region_vertices(cube)
        )
        assert report.passed == is_simplex_design_d_optimal(nu, a, b, beta), (nu, a, b, beta)


def test_nonpositive_candidate_rejected():
    m2 = GammaModel.first_order(2)
    design = equal_weight_design(orthant_axis_points(2))
    with pytest.raises(NonpositivePredictor):
        verify_optimality(m2, (1.0, 1.0), design, Criterion.D, [(-1.0, -1.0)])


def test_empty_candidates_rejected():
    m2 = GammaModel.first_order(2)
    design = equal_weight_design(orthant_axis_points(2))
    with pytest.raises(ValidationError):
        verify_optimality(m2, (1.0, 1.0), design, Criterion.D, [])

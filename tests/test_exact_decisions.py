"""The closed-form rules decide as exact arithmetic does.

The simplex rule and the vertex-drop rule of the interaction square are
polynomial inequalities in the float inputs. ``exact_simplex_margins`` and
``exact_drop_forms`` evaluate them in rational arithmetic, so every input
has an exact verdict. Near an edge a float evaluation may differ from it
only where the exact margin is within rounding of zero; everywhere else the
rule must give the exact verdict, and every design it calls optimal must
verify. The inputs sit at seeded relative offsets of 1e-15 to 1e-8, and
within 6 ulp, of edges on narrow and wide cubes and squares.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from gammadesign import (
    Criterion,
    ExperimentalRegion,
    GammaModel,
    InteractionLabel,
    NonpositivePredictor,
    ThreeFactorLabel,
    ThreeFactorScenario,
    classify_three_factor,
    d_optimal_interaction,
    equal_beta_threshold,
    interaction_vertices,
    is_simplex_design_d_optimal,
    multiplicative,
    region_vertices,
    simplex_design,
    verify_optimality,
)

from oracles import exact_drop_forms, exact_simplex_margins, ulp_steps

# A float evaluation may miss the exact verdict only at margins this close to zero, relative.
ROUNDING = 1e-13
OFFSETS = np.geomspace(1e-15, 1e-8, 15).tolist()
DROP_LABELS = (InteractionLabel.CASE_I, InteractionLabel.CASE_II, InteractionLabel.CASE_III, InteractionLabel.CASE_IV)


def near(x: float) -> list[float]:
    """x moved by each of ``OFFSETS`` relative, and by 1 to 6 ulp, both ways."""
    return [x * (1.0 + s * off) for off in OFFSETS for s in (1.0, -1.0)] + [ulp_steps(x, k) for k in range(-6, 7) if k]


# ---------------------------------------------------------------- simplex rule


def simplex_margins(nu, a, b, beta):
    """Exact relative margins (rhs - lhs) / rhs of the vertex condition, at the
    support vertices (one coordinate b) and at all the others."""
    support, others = [], []
    for x, (margin, rhs) in exact_simplex_margins(nu, a, b, beta).items():
        (support if x.count(b) == 1 else others).append(margin / rhs)
    return support, others


def bisect_edge(rule, lo: float, hi: float) -> float:
    """A float where ``rule`` flips between lo and hi, found to neighbouring floats."""
    left = rule(lo)
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if rule(mid) == left:
            lo = mid
        else:
            hi = mid
    return hi


NARROW, WIDE = (1.05, 1.1, 1.2, 1.3, 1.4, 1.5), (1.5, 2.0, 3.0, 5.0, 8.0)


@functools.cache
def simplex_cases() -> tuple:
    """(nu, a, b, beta, rule verdict, support margins, other margins) near seeded
    edges in b: cube widths where the rule flips, searched over the ratios b/a of
    ``NARROW`` (where only nu = 3 has edges) and ``WIDE``, at betas with entries
    in [-0.5, 3]."""
    rng = np.random.default_rng(18)
    cases = []
    for nu, ratios in [(3, NARROW)] * 2 + [(nu, WIDE) for nu in (3, 4, 5, 6)]:
        flips = []
        while not flips:
            a = float(rng.uniform(0.2, 3.0))
            beta = tuple(rng.uniform(-0.5, 3.0, size=nu).tolist())
            rule = functools.partial(is_simplex_design_d_optimal, nu, a, beta=beta)
            try:
                verdicts = [rule(a * r) for r in ratios]
            except NonpositivePredictor:
                continue
            flips = [k for k in range(len(ratios) - 1) if verdicts[k] != verdicts[k + 1]]
        edge = bisect_edge(rule, a * ratios[flips[0]], a * ratios[flips[0] + 1])
        cases += [(nu, a, b, beta, rule(b), *simplex_margins(nu, a, b, beta)) for b in near(edge)]
    return tuple(cases)


def test_simplex_rule_judges_all_but_its_support_vertices_exactly():
    """The support vertices meet the vertex condition with equality, exactly, so
    the rule skips them; at every other vertex it compares, and it gives the
    exact verdict wherever the smallest margin is not within rounding of zero."""
    cases = simplex_cases()
    assert {nu for nu, *_ in cases} == {3, 4, 5, 6}
    assert any(b < 1.5 * a for _, a, b, *_ in cases) and any(b > 1.5 * a for _, a, b, *_ in cases)
    decided = 0
    for nu, a, b, beta, verdict, support, others in cases:
        assert support == [0] * nu
        if abs(min(others)) > ROUNDING:
            assert verdict == (min(others) >= 0), (nu, a, b, beta, min(others))
            decided += 1
    assert decided > len(cases) // 3


# ---------------------------------------------------------------- drop rule


def exact_drop_label(a, b, beta) -> tuple[InteractionLabel, Fraction]:
    """The label of the exact drop forms, and the smallest |form| relative to their
    sum among the forms that decide it: those tried up to the first nonpositive one."""
    forms = exact_drop_forms(a, b, beta)
    for k, form in enumerate(forms):
        if form <= 0:
            return DROP_LABELS[k], min(map(abs, forms[: k + 1])) / sum(forms)
    return InteractionLabel.CASE_V_FOUR_POINT, min(forms) / sum(forms)


@functools.cache
def drop_cases() -> tuple:
    """(a, b, beta, label, exact label, margin) at seeded (a, b, beta_1, beta_2) with
    beta_3 near each real root of each drop form, on narrow (b/a < 1.5) and wide squares."""
    rng = np.random.default_rng(18)
    cases = []
    for draw in range(40):
        a = float(rng.uniform(0.2, 3.0))
        b = a * float(rng.uniform(1.05, 1.5) if draw % 2 else rng.uniform(1.5, 8.0))
        b1, b2 = rng.uniform(-1.0, 1.0, size=2).tolist()
        for k in range(4):
            # form k is t^2 + p t + r in t = beta_3
            r = float(exact_drop_forms(a, b, (b1, b2, 0.0))[k])
            p = float(exact_drop_forms(a, b, (b1, b2, 1.0))[k]) - r - 1.0
            if p * p <= 4.0 * r:
                continue
            for root in ((-p + s * math.sqrt(p * p - 4.0 * r)) / 2.0 for s in (1.0, -1.0)):
                for b3 in near(root):
                    beta = (b1, b2, b3)
                    if all(Fraction(b1) * x + Fraction(b2) * y + Fraction(b3) * x * y > 0 for x, y in interaction_vertices(a, b)):
                        cases.append((a, b, beta, d_optimal_interaction(a, b, beta).label, *exact_drop_label(a, b, beta)))
    return tuple(cases)


def test_drop_rule_decides_as_exact_arithmetic_near_its_edges():
    """Each label of the drop rule is the exact label wherever the forms that
    decide it are not within rounding of zero."""
    cases = drop_cases()
    assert {exact for *_, exact, _ in cases} == set(DROP_LABELS) | {InteractionLabel.CASE_V_FOUR_POINT}
    assert any(b < 1.5 * a for a, b, *_ in cases) and any(b > 1.5 * a for a, b, *_ in cases)
    decided = [(a, b, beta, label, exact) for a, b, beta, label, exact, margin in cases if margin > ROUNDING]
    assert len(decided) > len(cases) // 3
    for a, b, beta, label, exact in decided:
        assert label is exact, (a, b, beta)


def test_designs_the_rules_call_optimal_near_their_edges_verify():
    """Every design a rule calls optimal near its edges verifies at the default tol."""
    for nu, a, b, beta, verdict, *_ in simplex_cases():
        if verdict:
            report = verify_optimality(
                GammaModel.first_order(nu), beta, simplex_design(nu, a, b), Criterion.D,
                region_vertices(ExperimentalRegion.hypercube(a, b, nu)),
            )
            assert report.passed, (nu, a, b, beta, report.worst_excess)
    for a, b, beta, label, *_ in drop_cases():
        if label is not InteractionLabel.CASE_V_FOUR_POINT:
            design = d_optimal_interaction(a, b, beta).design
            report = verify_optimality(GammaModel.interaction(), beta, design, Criterion.D, interaction_vertices(a, b))
            assert report.passed, (a, b, beta, report.worst_excess)


# ---------------------------------------------------------------- named cases


@pytest.mark.parametrize(
    "nu, offset",
    [(nu, 1e-9) for nu in range(4, 9)] + [(nu, 5e-10) for nu in range(6, 9)],
    ids=lambda v: f"{v:g}",
)
def test_simplex_rule_just_below_the_equal_beta_threshold(nu, offset):
    """Just below b/a = sqrt((nu-1)(nu-2)/2) at equal betas the simplex design is
    not optimal: a rule with slack 1e-9 called it optimal, and it fails
    verification with excess 1.1e-9 to 2.9e-9."""
    a, b, beta = 1.0, math.sqrt(equal_beta_threshold(nu)) * (1.0 - offset), (1.0,) * nu
    support, others = simplex_margins(nu, a, b, beta)
    assert support == [0] * nu and min(others) < -ROUNDING
    assert not is_simplex_design_d_optimal(nu, a, b, beta)


def test_drop_rule_keeps_all_four_vertices_just_past_the_v1_edge():
    """Here a rule with slack 1e-12 |beta|^2 dropped v1 (Case_iv), and that
    three-point design fails verification with excess 2e-9; exactly, no form
    is nonpositive, and the solver certifies the four-point design."""
    a, b = 2.518701733612855, 2.5666862532205537
    beta = (-0.010930837525723103, -0.9152264730381208, 0.3684545901055872)
    exact, margin = exact_drop_label(a, b, beta)
    assert exact is InteractionLabel.CASE_V_FOUR_POINT and margin > ROUNDING
    assert d_optimal_interaction(a, b, beta).label is exact
    design, trace = multiplicative(GammaModel.interaction(), beta, interaction_vertices(a, b))
    assert trace.converged and design.size == 4
    report = verify_optimality(GammaModel.interaction(), beta, design, Criterion.D, interaction_vertices(a, b))
    assert report.passed, report.worst_excess


# ---------------------------------------------------------------- constant edges


@pytest.mark.parametrize("edge", [-3.0, -1.2])
def test_three_factor_constant_edges_decide_as_fractions(edge):
    """For beta_1 < 0 the edges -3 and -6/5 are float constants. Within a few ulp
    of them, every ratio gets the subregion its exact value lies in."""
    for gamma in [ulp_steps(edge, k) for k in range(-8, 9)]:
        exact = Fraction(gamma)
        if exact <= -3:
            want = ThreeFactorLabel.XI1
        elif exact >= Fraction(-6, 5):
            want = ThreeFactorLabel.XI4
        else:
            want = ThreeFactorLabel.XI5_NUMERICAL
        c = classify_three_factor(ThreeFactorScenario(-1.0, -gamma))
        assert c.gamma == gamma and c.label is want, gamma

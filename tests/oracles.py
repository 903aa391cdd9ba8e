"""Reference computations used only by the tests.

Everything here is built from scratch on top of numpy so that the
package's answers can be checked against an independent route.  The
optimal-weight searches below are slow and generic on purpose: a
projected gradient ascent over the weight simplex for log det, and a
golden-section search for two-point trace-minimising weights.  None of
it may call into the optimality machinery of the package itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# --------------------------------------------------------------------------
# raw model quantities, rebuilt without the package


def raw_features(kind: str, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if kind == "interaction":
        return np.column_stack([pts[:, 0], pts[:, 1], pts[:, 0] * pts[:, 1]])
    if kind != "first_order":
        raise ValueError(f"unknown model kind {kind!r}")
    return pts


def raw_intensities(kind: str, beta, points) -> np.ndarray:
    eta = raw_features(kind, points) @ np.asarray(beta, dtype=float)
    if np.any(eta <= 0.0):
        raise ValueError("nonpositive predictor in oracle computation")
    return eta**-2.0


def raw_information(kind: str, beta, points, weights) -> np.ndarray:
    F = raw_features(kind, points)
    u = raw_intensities(kind, beta, points)
    w = np.asarray(weights, dtype=float)
    return (F * (w * u)[:, None]).T @ F


def det_information(kind: str, beta, points, weights) -> float:
    return float(np.linalg.det(raw_information(kind, beta, points, weights)))


def trace_inverse(kind: str, beta, points, weights) -> float:
    M = raw_information(kind, beta, points, weights)
    return float(np.trace(np.linalg.inv(M)))


def logdet_tolerance(M) -> float:
    """How far two backward-stable eliminations of the SPD matrix M, say a stacked LDL' and one Cholesky
    factorization, may put log det M apart.

    Each gives the log-det of some M + E with ||E||_2 <= p (p + 1) eps ||M||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), which moves log det by at most |tr(M^-1 E)| <= p cond(M) ||E||_2 / ||M||_2; so the
    two differ by at most twice that. The pivots lie in [lambda_min, lambda_max], so the p logs and their sum add
    p^2 eps max|log lambda| each, again twice.
    """
    p, eps = len(M), np.finfo(float).eps
    values = np.linalg.eigvalsh(M)
    return 2.0 * (p * np.linalg.cond(M) * p * (p + 1) * eps + p * p * eps * np.abs(np.log(values)).max())


def any_pair_within(points, tol: float) -> bool:
    """Whether some two points differ by less than ``tol`` in every
    coordinate, by comparing all pairs."""
    pts = np.asarray(points, dtype=float)
    return any(np.all(np.abs(pts[i] - pts[j]) < tol) for i in range(len(pts)) for j in range(i))


# --------------------------------------------------------------------------
# brute-force D-optimal weights over a fixed candidate set


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1}, sort method."""
    v = np.asarray(v, dtype=float)
    mu = np.sort(v)[::-1]
    cuts = (np.cumsum(mu) - 1.0) / np.arange(1, v.size + 1)
    rho = np.nonzero(mu > cuts)[0][-1]
    return np.maximum(v - cuts[rho], 0.0)


def best_logdet_weights(
    kind: str,
    beta,
    points,
    *,
    iterations: int = 5000,
    excess_tol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Maximise log det M(w) over the weight simplex.

    Projected gradient ascent with backtracking; the gradient entry for
    point i is its D-sensitivity, so the stopping rule is the
    equivalence-theorem excess on the candidate set itself.  Returns
    the weights and the achieved log-determinant.
    """
    F = raw_features(kind, points)
    u = raw_intensities(kind, beta, points)
    m, p = F.shape
    w = np.full(m, 1.0 / m)

    def logdet(wt: np.ndarray) -> float:
        sign, value = np.linalg.slogdet((F * (wt * u)[:, None]).T @ F)
        return value if sign > 0 else -np.inf

    current = logdet(w)
    step = 1.0
    for _ in range(iterations):
        M = (F * (w * u)[:, None]).T @ F
        grad = u * np.einsum("ij,jk,ik->i", F, np.linalg.inv(M), F)
        if np.max(grad) - p <= excess_tol:
            break
        for _ in range(60):
            trial = project_to_simplex(w + step * grad)
            value = logdet(trial)
            if value > current:
                break
            step *= 0.5
        else:
            break
        w, current = trial, value
        step *= 1.4
    return w, current


def min_trace_weight(kind: str, beta, pair, *, tol: float = 1e-12) -> float:
    """First weight of the two-point design minimising tr(M^{-1})."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def objective(w1: float) -> float:
        return trace_inverse(kind, beta, pair, [w1, 1.0 - w1])

    lo, hi = 1e-9, 1.0 - 1e-9
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    while hi - lo > tol:
        if objective(c) < objective(d):
            hi = d
        else:
            lo = c
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# vertex-dropping conditions of the interaction model on [a,b]^2


def unit_scaled(beta) -> tuple[float, ...]:
    """beta times the power of two that puts its largest |beta_j| in [1, 2):
    every bit is kept, and no square of an entry over- or underflows."""
    top = max(abs(float(c)) for c in beta)
    return tuple(math.ldexp(float(c), 1 - math.frexp(top)[1]) for c in beta)


def drop_vertex_forms(a: float, b: float, beta) -> tuple[float, float, float, float]:
    """Quadratic forms in beta deciding, in order, whether v4, v2, v3 or v1
    can be dropped from the support (form <= 0 means: drop), expanded by
    hand from the source model without the intercept reduction. The forms
    are those of ``unit_scaled(beta)``: homogeneous of degree 2, each keeps
    its sign, and none underflows at a tiny beta or overflows at a huge one."""
    return _drop_forms(1.0 / a, 1.0 / b, *unit_scaled(beta))


def _drop_forms(ia, ib, b1, b2, b3):
    """The four forms at ia = 1/a and ib = 1/b, in the arithmetic of the inputs:
    floats, or exact on Fractions (every constant is an int)."""
    form_i = b3**2 + ib**2 * (b1**2 + b2**2) + (ib**2 - ia**2 + 2 * ia * ib) * b1 * b2 + 2 * ib * b3 * (b1 + b2)
    form_ii = b3**2 + ib**2 * b1**2 + ia**2 * b2**2 + 2 * ib * b3 * b1 + 2 * ia * b3 * b2 + (ib**2 + ia**2) * b1 * b2
    form_iii = b3**2 + ib**2 * b2**2 + ia**2 * b1**2 + 2 * ib * b3 * b2 + 2 * ia * b3 * b1 + (ib**2 + ia**2) * b1 * b2
    form_iv = b3**2 + ia**2 * (b1**2 + b2**2) + (ia**2 - ib**2 + 2 * ia * ib) * b1 * b2 + 2 * ia * b3 * (b1 + b2)
    return form_i, form_ii, form_iii, form_iv


def equal_beta_edges(a: float, b: float) -> tuple[float, ...]:
    """Ratios gamma on the path (gamma, gamma, 1) where a four-point weight on
    [a,b]^2 vanishes, as roots of the linear numerators worked out by hand:
    ab + (3b - a) gamma for v1, and ab - (b - 3a) gamma for v4 when b > 3a."""
    return (-a * b / (3.0 * b - a),) + ((a * b / (b - 3.0 * a),) if b > 3.0 * a else ())


def ulp_steps(x: float, k: int) -> float:
    """The float k representable steps above x (below for negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# --------------------------------------------------------------------------
# exact verdicts: rational arithmetic on the float inputs, no package call


def exact_drop_forms(a: float, b: float, beta) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four ``drop_vertex_forms`` evaluated exactly at the given floats. Form k
    equals half the sum of e_j^2 over j != k less e_k^2 (e_j the intercept
    predictor at mapped corner j), so the four forms sum to sum_j e_j^2 > 0: the
    scale their margins are measured against."""
    return _drop_forms(1 / Fraction(a), 1 / Fraction(b), *map(Fraction, beta))


def exact_simplex_margins(nu: int, a: float, b: float, beta) -> dict[tuple[float, ...], tuple[Fraction, Fraction]]:
    """rhs - lhs and rhs of the vertex condition of the single-high-coordinate
    simplex design on [a,b]^nu, exactly, at every vertex x (the key):
    lhs = sum_j (x_j - q T(x))^2 c_j^2 and rhs = (b-a)^2 (beta'x)^2, with
    T(x) = sum x_j, q = a/((nu-1)a + b) and c_j = (b-a) beta_j + a sum(beta).
    The design is D-optimal iff no margin is negative."""
    lo, hi, vec = Fraction(a), Fraction(b), [Fraction(c) for c in beta]
    q = lo / ((nu - 1) * lo + hi)
    c2 = [((hi - lo) * c + lo * sum(vec)) ** 2 for c in vec]
    margins = {}
    for x in itertools.product((lo, hi), repeat=nu):
        shift = q * sum(x)
        lhs = sum((xj - shift) ** 2 * cj for xj, cj in zip(x, c2))
        rhs = (hi - lo) ** 2 * sum(c * xj for c, xj in zip(vec, x)) ** 2
        margins[tuple(map(float, x))] = (rhs - lhs, rhs)
    return margins


def exact_band_weights(g: Fraction) -> tuple[Fraction, ...]:
    """The stated D-optimal weights on v2, v3, v4, v6, v7 of [1,2]^3 at the ratio
    g = beta/beta_1 of the band -3 < g < -6/5 with beta_1 < 0, exactly."""
    w2 = (7 * g * g + 7 * g + 6) / (16 * g * g)
    w3 = (3 * g + 1) ** 2 * (5 * g + 6) / (96 * g * g * (g + 1))
    w6 = -(g + 3) * (3 * g + 2) ** 2 / (48 * g * g * (g + 1))
    return (w2, w3, w3, w6, w6)


def exact_d_excess(beta, points, weights, candidates) -> list[Fraction]:
    """u(x) f(x)' M^-1 f(x) - p of the first-order model at each candidate x, in
    rational arithmetic on the given numbers: M = sum_i w_i u(x_i) x_i x_i' with
    u = (beta'x)^-2, inverted by Gauss-Jordan elimination."""
    beta = [Fraction(c) for c in beta]
    p = len(beta)
    u = lambda x: 1 / sum(c * Fraction(xj) for c, xj in zip(beta, x)) ** 2
    M = [[sum(Fraction(w) * u(x) * Fraction(x[i]) * Fraction(x[j]) for x, w in zip(points, weights)) for j in range(p)] for i in range(p)]
    inv = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if M[r][col] != 0)
        M[col], M[pivot], inv[col], inv[pivot] = M[pivot], M[col], inv[pivot], inv[col]
        scale = M[col][col]
        M[col], inv[col] = [v / scale for v in M[col]], [v / scale for v in inv[col]]
        for r in range(p):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    excess = []
    for x in candidates:
        f = [Fraction(c) for c in x]
        excess.append(u(x) * sum(f[i] * inv[i][j] * f[j] for i in range(p) for j in range(p)) - p)
    return excess


# --------------------------------------------------------------------------
# the verification report with every tuple built when it is made


@dataclass(frozen=True)
class VerificationReport:
    """The eager form of ``gammadesign.VerificationReport``: a frozen dataclass
    of seven fields, each set when it is made. It shares the class name, so
    its repr is the one the package's report must print."""

    criterion: object
    bound: float
    points: tuple[tuple[float, ...], ...]
    sensitivities: tuple[float, ...]
    worst_point: tuple[float, ...]
    worst_excess: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "bound": self.bound,
            "worst_point": list(self.worst_point),
            "worst_excess": self.worst_excess,
            "pass": self.passed,
            "values": [
                {"point": list(pt), "sensitivity": s}
                for pt, s in zip(self.points, self.sensitivities)
            ],
        }


def eager_report(report) -> VerificationReport:
    """The eager report built from the candidate and sensitivity arrays that
    ``report`` keeps, with the worst point at the first largest sensitivity."""
    points = tuple(tuple(float(c) for c in row) for row in report._candidates)
    sensitivities = tuple(float(s) for s in report._sensitivities)
    worst = sensitivities.index(max(sensitivities))
    return VerificationReport(
        report.criterion, report.bound, points, sensitivities, points[worst], report.worst_excess, report.passed
    )

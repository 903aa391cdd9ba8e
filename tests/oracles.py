"""Reference computations used only by the tests.

Everything here is built from scratch on top of numpy so that the
package's answers can be checked against an independent route.  The
optimal-weight searches below are slow and generic on purpose: a
projected gradient ascent over the weight simplex for log det, and a
golden-section search for two-point trace-minimising weights.  None of
it may call into the optimality machinery of the package itself.
"""

from __future__ import annotations

import math

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


def drop_vertex_forms(a: float, b: float, beta) -> tuple[float, float, float, float]:
    """Quadratic forms in beta deciding, in order, whether v4, v2, v3 or v1
    can be dropped from the support (form <= 0 means: drop), expanded by
    hand from the source model without the intercept reduction."""
    b1, b2, b3 = (float(c) for c in beta)
    ia, ib = 1.0 / a, 1.0 / b
    form_i = b3**2 + ib**2 * (b1**2 + b2**2) + (ib**2 - ia**2 + 2.0 * ia * ib) * b1 * b2 + 2.0 * ib * b3 * (b1 + b2)
    form_ii = b3**2 + ib**2 * b1**2 + ia**2 * b2**2 + 2.0 * ib * b3 * b1 + 2.0 * ia * b3 * b2 + (ib**2 + ia**2) * b1 * b2
    form_iii = b3**2 + ib**2 * b2**2 + ia**2 * b1**2 + 2.0 * ib * b3 * b2 + 2.0 * ia * b3 * b1 + (ib**2 + ia**2) * b1 * b2
    form_iv = b3**2 + ia**2 * (b1**2 + b2**2) + (ia**2 - ib**2 + 2.0 * ia * ib) * b1 * b2 + 2.0 * ia * b3 * (b1 + b2)
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

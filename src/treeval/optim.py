"""Solvers shared by the valuation, dual and risk-sharing modules:
finite-difference gradient ascent with a backtracking line search,
restarted Nelder-Mead for kinked objectives, and multiplicative-weights
descent on the simplex with c/sqrt(k) steps.  Objectives evaluate batches:
f((B, d)) -> (B,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class AscentResult:
    x: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    diverged: bool = False
    direction: np.ndarray | None = None


def fd_gradient(f, x: np.ndarray, step_rel: float) -> np.ndarray:
    """Central differences, all 2d evaluations in one batch.

    Probes that land outside an open effective domain come back non-finite;
    those coordinates retry with geometrically smaller steps (the base point
    is strictly inside, so small enough steps always succeed)."""
    d = x.size
    h = step_rel * np.maximum(1.0, np.abs(x))
    idx = np.arange(d)
    vals = None
    for _ in range(8):
        pts = np.repeat(x[None, :], 2 * d, axis=0)
        pts[idx, idx] += h
        pts[d + idx, idx] -= h
        vals = np.asarray(f(pts), dtype=float)
        bad = ~np.isfinite(vals[:d]) | ~np.isfinite(vals[d:])
        if not bad.any():
            break
        h = np.where(bad, h / 64.0, h)
    diff = vals[:d] - vals[d:]
    grad = np.divide(diff, 2.0 * h, out=np.zeros(d), where=np.isfinite(diff))
    return np.where(np.isfinite(grad), grad, 0.0)


def maximize(f, x0, *, gradient_tolerance: float = 1e-6, max_iterations: int = 100_000,
             divergence_bound: float = 1e6, fd_step: float = 1e-6,
             initial_step: float = 1.0, value_tolerance: float = 0.0,
             patience: int = 10) -> AscentResult:
    """Maximize a concave batch objective by steepest ascent.

    Stops when the finite-difference gradient's sup norm is within tolerance;
    declares divergence when the iterate's sup norm crosses the bound, the
    signature of an effective-domain escape.  A positive ``value_tolerance``
    additionally accepts the point once ``patience`` consecutive steps gain
    less than it, which is how kinked objectives (whose gradient norm never
    settles) terminate.
    """
    x = np.array(x0, dtype=float)
    fx = float(f(x[None, :])[0])
    if not np.isfinite(fx):
        raise DomainError("objective is not finite at the start point")
    step = initial_step
    iterations = 0
    stalled = 0
    for iterations in range(1, max_iterations + 1):
        g = fd_gradient(f, x, fd_step)
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= gradient_tolerance:
            return AscentResult(x, fx, gnorm, iterations, converged=True)
        g_sq = float(g @ g)
        t = step
        accepted = None
        for _ in range(80):
            cand = x + t * g
            fc = float(f(cand[None, :])[0])
            if np.isposinf(fc):
                # the objective already overflowed its bound: unbounded above
                return AscentResult(cand, fx, gnorm, iterations, converged=False,
                                    diverged=True, direction=g / max(gnorm, 1e-300))
            if np.isfinite(fc) and fc >= fx + 1e-4 * t * g_sq:
                accepted = (t, cand, fc)
                break
            t *= 0.5
        if accepted is None:
            # line search hit the noise floor (or a kink); report honestly
            return AscentResult(x, fx, gnorm, iterations, converged=False)
        # expand while the sufficient-increase test keeps passing, so
        # unbounded recession directions are traversed exponentially fast
        for _ in range(70):
            t, cand, fc = accepted
            t2 = 2.0 * t
            cand2 = x + t2 * g
            fc2 = float(f(cand2[None, :])[0])
            if np.isposinf(fc2):
                return AscentResult(cand2, fx, gnorm, iterations, converged=False,
                                    diverged=True, direction=g / max(gnorm, 1e-300))
            if np.isfinite(fc2) and fc2 >= fc and fc2 >= fx + 1e-4 * t2 * g_sq:
                accepted = (t2, cand2, fc2)
            else:
                break
        step, cand, fc = accepted
        gain = fc - fx
        x, fx = cand, fc
        if np.max(np.abs(x)) > divergence_bound:
            return AscentResult(x, fx, gnorm, iterations, converged=False,
                                diverged=True, direction=g / max(gnorm, 1e-300))
        if value_tolerance > 0.0:
            stalled = stalled + 1 if gain <= value_tolerance * (1.0 + abs(fx)) else 0
            if stalled >= patience:
                return AscentResult(x, fx, gnorm, iterations, converged=True)
    g = fd_gradient(f, x, fd_step)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    return AscentResult(x, fx, gnorm, iterations, converged=gnorm <= gradient_tolerance)


class _Escaped(Exception):
    pass


def maximize_nelder_mead(f, x0, *, divergence_bound: float) -> AscentResult:
    """Maximize a concave batch objective with kinks, where steepest ascent
    stalls off the optimum, by Nelder-Mead restarted at its endpoint until a
    run gains nothing (three runs at most).  Each run starts from a simplex
    with edges max(1, |x|_inf): scipy's default edge is 0.00025 at a zero
    coordinate, too short to leave a kink.  An iterate beyond the divergence
    bound reports divergence along its own direction."""
    from scipy.optimize import minimize  # a slow import, paid on first use

    def negated(v: np.ndarray) -> float:
        if np.max(np.abs(v)) > divergence_bound:
            raise _Escaped(v)
        return -float(f(v[None, :])[0])

    best = AscentResult(np.array(x0, dtype=float), -np.inf, np.nan, 0, converged=False)
    for _ in range(3):
        x = best.x
        simplex = x + max(1.0, np.max(np.abs(x))) * np.vstack([np.zeros(x.size), np.eye(x.size)])
        try:
            res = minimize(negated, x, method="Nelder-Mead",
                           options={"initial_simplex": simplex, "xatol": 1e-10, "fatol": 1e-12,
                                    "maxiter": 2000 * x.size, "maxfev": 2000 * x.size})
        except _Escaped as escape:
            far = escape.args[0]
            return AscentResult(far, best.value, np.nan, best.iterations, converged=False,
                                diverged=True, direction=far / np.max(np.abs(far)))
        value = -float(res.fun)
        gained = not np.isfinite(best.value) or value > best.value + 1e-13 * (1.0 + abs(best.value))
        if value >= best.value:
            best = AscentResult(res.x, value, np.nan, best.iterations + res.nit, bool(res.success))
        if not gained:
            break
    return best


@dataclass
class SimplexResult:
    weights: np.ndarray
    value: float | None
    gap: float
    iterations: int
    converged: bool


def eg_minimize(grad_fn, d: int, *, value_fn=None, step_constant: float = 1.0,
                tolerance: float = 1e-9, max_iterations: int = 100_000,
                x0: np.ndarray | None = None) -> SimplexResult:
    """Minimize a convex function over the simplex by exponentiated gradient.

    ``grad_fn`` may be exact up to an additive constant (the update and the
    duality-gap surrogate are both invariant to constant shifts).  The gap
    ``lam . g - min g`` bounds the suboptimality and is the stopping rule.
    """
    lam = np.full(d, 1.0 / d) if x0 is None else np.array(x0, dtype=float)
    best = lam.copy()
    best_gap = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        g = np.clip(np.asarray(grad_fn(lam), dtype=float), -1e12, 1e12)
        gap = float(lam @ g - g.min())
        if gap < best_gap:
            best_gap = gap
            best = lam.copy()
        if gap <= tolerance:
            converged = True
            break
        eta = step_constant / np.sqrt(iterations)
        lam = lam * np.exp(-eta * (g - g.min()))
        lam = np.maximum(lam, 1e-300)
        lam /= lam.sum()
    value = float(value_fn(best)) if value_fn is not None else None
    return SimplexResult(best, value, best_gap, iterations, converged)

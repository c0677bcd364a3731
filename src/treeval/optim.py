"""Solvers shared by the valuation, dual and market modules: BFGS ascent
with a backtracking line search and step doubling along recession
directions, restarted Nelder-Mead for kinked objectives, ``sup``, the one
policy that chooses between them, ``newton_ascent``, damped Newton on a
batch of smooth sups with one value-and-gradient call per trial point and
one Cholesky factorization and one linear solve per step (a row where
either fails stops as indefinite, never with numpy's error), ``sup_rows``,
the policy of ``sup`` for many independent sups at once (that Newton
stage first), and multiplicative-weights descent on the simplex with
1/sqrt(k) steps.  Objectives evaluate batches:
f((B, d)) -> (B,).  Dual solves, one-step duals among them, run the Newton
stage first too, and go on to ``sup`` where it does not finish; every
``sup`` of the package is given its objective's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Consecutive steps gaining less than ``value_tolerance`` that end an
# ascent as stalled.
STALL_STEPS = 10

# Sup norm of an iterate beyond which an ascent declares divergence.
DIVERGENCE_BOUND = 1e6

# Steps of the batched Newton stage, and halvings of one step, before a
# row is left to ``sup``.
NEWTON_STEPS = 20
NEWTON_HALVINGS = 30

# Relative step of the forward differences of the gradient that give the
# batched Newton stage its Hessian.
HESSIAN_STEP = 1e-7


@dataclass
class AscentResult:
    """Where an ascent stopped and how it got there.  ``evaluations``
    counts the objective rows the solver evaluated, ``gradient_evaluations``
    the gradient calls (Newton's value-and-gradient calls among them);
    ``stop_reason`` is one of ``gradient``, ``stalled``, ``line_search``,
    ``diverged`` or ``max_iterations`` (``newton_ascent`` gives one reason
    per row, of its own); ``method`` names the solvers that
    ran, joined by ``+`` in order: ``newton``, ``bfgs`` and
    ``nelder-mead``, as in ``newton+bfgs``.  A dual solve that fell back
    from Newton joins Newton's reason and the fallback's the same way, as
    in ``indefinite+gradient``."""

    x: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    diverged: bool = False
    direction: np.ndarray | None = None
    evaluations: int = 0
    gradient_evaluations: int = 0
    stop_reason: str = ""
    method: str = ""


def maximize(f, gradient, x0, *, gradient_tolerance: float = 1e-6, max_iterations: int = 100_000,
             value_tolerance: float = 0.0) -> AscentResult:
    """Maximize a concave batch objective by BFGS.  ``gradient(x)`` gives
    the objective and its gradient at one point, ``(f(x), (d,))``; the
    backtracking evaluates ``f`` alone.

    Each step tries the full quasi-Newton step and backtracks from it, by
    quadratic interpolation, until it gains at least 1e-4 of the predicted
    increase (Armijo), then doubles while the slope along the step stays at
    0.9 or more of its starting value, so a recession direction is followed
    exponentially fast.  The inverse Hessian starts as the identity and
    becomes max(1, s.y / y.y) times it at the first update.  A direction
    that is not uphill, or a line search that fails along a quasi-Newton
    direction, restarts from the gradient.  Stops when the gradient's sup
    norm is within tolerance; declares divergence when the iterate's sup
    norm crosses ``DIVERGENCE_BOUND`` or the objective overflows to +inf, the
    signature of an effective-domain escape.  A positive
    ``value_tolerance`` also accepts the point once ``STALL_STEPS``
    consecutive steps gain less than it, which is how kinked objectives
    (whose gradient norm never settles) terminate.
    """
    x = np.array(x0, dtype=float)
    counts = [0, 0]

    def value(z: np.ndarray) -> float:
        counts[0] += 1
        return float(f(z[None, :])[0])

    def value_and_gradient(z: np.ndarray) -> tuple[float, np.ndarray]:
        counts[1] += 1
        fz, gz = gradient(z)
        return float(fz), np.asarray(gz, dtype=float)

    def stop(z, fz, g, iterations, reason, direction=None) -> AscentResult:
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if reason == "max_iterations" and gnorm <= gradient_tolerance:
            reason = "gradient"
        if direction is not None:
            direction = direction / max(float(np.max(np.abs(direction))), 1e-300)
        return AscentResult(z, fz, gnorm, iterations, converged=reason in ("gradient", "stalled"),
                            diverged=reason == "diverged", direction=direction, method="bfgs",
                            evaluations=counts[0], gradient_evaluations=counts[1], stop_reason=reason)

    def sufficient(t: float, fc: float) -> bool:
        # Armijo: at least 1e-4 of the increase the slope predicts
        return math.isfinite(fc) and fc >= fx + 1e-4 * t * slope

    fx, g = value_and_gradient(x)
    if not math.isfinite(fx):
        raise DomainError("objective is not finite at the start point")
    inverse_hessian = None   # the identity until the first update rescales it
    stalled = 0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if g.size == 0 or np.max(np.abs(g)) <= gradient_tolerance:
            return stop(x, fx, g, iterations, "gradient")
        step = g if inverse_hessian is None else inverse_hessian @ g
        slope = float(g @ step)
        if not slope > 0.0:
            # roundoff cost the update its definiteness: restart from the gradient
            inverse_hessian, step, slope = None, g, float(g @ g)
        # the full step mostly passes, so its gradient is taken with it
        t, cand = 1.0, x + step
        fc, gc = value_and_gradient(cand)
        for _ in range(80):
            if fc == math.inf:
                return stop(cand, fx, g, iterations, "diverged", step)
            if sufficient(t, fc) or np.array_equal(cand, x):
                break
            # the maximum of the parabola through fx, slope and fc, kept
            # within [t / 10, t / 2]; halving where fc is not finite
            t = min(max(0.5 * slope * t * t / (fx + slope * t - fc), 0.1 * t), 0.5 * t) \
                if math.isfinite(fc) else 0.5 * t
            cand = x + t * step
            fc, gc = value(cand), None
        if not sufficient(t, fc) or np.array_equal(cand, x):
            if inverse_hessian is None:
                # the gradient step hit the noise floor (or a kink)
                return stop(x, fx, g, iterations, "line_search")
            inverse_hessian = None
            continue
        if gc is None:
            fc, gc = value_and_gradient(cand)
        for _ in range(70):
            if gc @ step < 0.9 * slope or np.max(np.abs(cand)) > DIVERGENCE_BOUND:
                break
            cand2 = x + 2.0 * t * step
            fc2, gc2 = value_and_gradient(cand2)
            if fc2 == math.inf:
                return stop(cand2, fx, g, iterations, "diverged", step)
            if not (math.isfinite(fc2) and fc2 >= fc):
                break
            t, cand, fc, gc = 2.0 * t, cand2, fc2, gc2
        s, y = cand - x, g - gc
        gain = fc - fx
        x, fx, g = cand, fc, gc
        if np.max(np.abs(x)) > DIVERGENCE_BOUND:
            return stop(x, fx, g, iterations, "diverged", step)
        sy = float(s @ y)
        if sy > 1e-12 * np.sqrt(float(s @ s) * float(y @ y)):
            if inverse_hessian is None:
                # backtracking shortens a step that is too long in a few
                # evaluations, but only many updates lengthen one that is
                # too short: scale the identity up, never down
                inverse_hessian = np.eye(x.size) * max(1.0, sy / float(y @ y))
            hy = inverse_hessian @ y
            rho = 1.0 / sy
            inverse_hessian = (inverse_hessian - rho * (np.outer(s, hy) + np.outer(hy, s))
                               + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
        if value_tolerance > 0.0:
            stalled = stalled + 1 if gain <= value_tolerance * (1.0 + abs(fx)) else 0
            if stalled >= STALL_STEPS:
                return stop(x, fx, g, iterations, "stalled")
    return stop(x, fx, g, iterations, "max_iterations")


class _Escaped(Exception):
    pass


def maximize_nelder_mead(f, x0) -> AscentResult:
    """Maximize a concave batch objective with kinks, where gradient ascent
    stalls off the optimum, by Nelder-Mead restarted at its endpoint until a
    run gains nothing (three runs at most).  Each run starts from a simplex
    with edges max(1, |x|_inf): scipy's default edge is 0.00025 at a zero
    coordinate, too short to leave a kink.  An iterate beyond
    ``DIVERGENCE_BOUND`` reports divergence along its own direction."""
    from scipy.optimize import minimize  # a slow import, paid on first use

    evaluations = [0]

    def negated(v: np.ndarray) -> float:
        if np.max(np.abs(v)) > DIVERGENCE_BOUND:
            raise _Escaped(v)
        evaluations[0] += 1
        return -float(f(v[None, :])[0])

    best = AscentResult(np.array(x0, dtype=float), -np.inf, np.nan, 0, converged=False,
                        stop_reason="max_iterations")
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
                                diverged=True, direction=far / np.max(np.abs(far)),
                                evaluations=evaluations[0], stop_reason="diverged", method="nelder-mead")
        value = -float(res.fun)
        gained = not np.isfinite(best.value) or value > best.value + 1e-13 * (1.0 + abs(best.value))
        if value >= best.value:
            best = AscentResult(res.x, value, np.nan, best.iterations + res.nit, bool(res.success))
        best.evaluations, best.method = evaluations[0], "nelder-mead"
        best.stop_reason = "max_iterations" if gained else "stalled"
        if not gained:
            break
    return best


def sup(f, x0, *, smooth: bool, gradient_tolerance: float, max_iterations: int,
        gradient=None) -> AscentResult:
    """The sup of a concave batch objective over at least one coordinate:
    the one solver policy.  A smooth objective gets BFGS on ``gradient``,
    its ``(value, gradient)`` callable, stalling once its steps gain
    nothing; unless it ends on the gradient test or diverges, restarted
    Nelder-Mead goes on from where it stopped and the better result wins.
    A kinked objective gets Nelder-Mead from x0 and needs no gradient."""
    x0 = np.asarray(x0, dtype=float)
    if not smooth:
        return maximize_nelder_mead(f, x0)
    ascent = maximize(f, gradient, x0, gradient_tolerance=gradient_tolerance, max_iterations=max_iterations,
                      value_tolerance=1e-12)
    if ascent.stop_reason in ("gradient", "diverged"):
        return ascent
    polished = maximize_nelder_mead(f, ascent.x)
    best = polished if polished.diverged or polished.value >= ascent.value else ascent
    best.method = "bfgs+nelder-mead"
    return best


def _definite_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The solutions x of a x = b for a stack of symmetric matrices a
    (n, k, k) and right-hand sides b (n, k, 1) where a matrix is definite:
    its Cholesky factorization succeeds and its LU solve meets no zero
    pivot, as a singular matrix that the factorization accepts by rounding
    does.  Returns them with which matrices are not definite (None where
    all are), whose x is zero.  One factorization and one solve of the
    stack, and where either raises, both for each matrix alone, so that no
    matrix's answer depends on the others."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b), None
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(b.shape), np.ones(1, dtype=bool)
        parts = [_definite_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))]
        return np.concatenate([x for x, _ in parts]), np.array([failed is not None for _, failed in parts])


def newton_ascent(value_and_gradient, x0, *, gradient_tolerance: float, held: int = 0) -> AscentResult:
    """Damped Newton on a batch of independent smooth concave objectives,
    one per leading index of x0 (..., d).  ``value_and_gradient(points)``
    gives the values (k, ...) and the gradients (k, ..., d) of a stack of k
    points per row.

    Every trial point (the start, each step and each halving of one) is
    one call, together with its Hessian stencil: the forward differences
    of the gradient along each searched coordinate.  An accepted step thus
    carries the next iterate's gradient and Hessian.  The step solves
    ``-S step = g`` for S, the symmetrized Hessian, where -S is definite
    (``_definite_solve``: the Cholesky factorization of -S succeeds and
    the solve meets no zero pivot), that is where S is negative definite
    up to rounding; for one searched coordinate it is -g / H exactly.
    Definiteness is decided row by row, so no row's arithmetic depends on
    the batch around it.  The first ``held`` coordinates stay at their
    start values, but the gradient test reads them too, so a row finishes
    only where its whole gradient vanishes.  A step is halved, row by row,
    wherever the value falls or is not finite (an effective-domain wall).

    Each row stops for one reason, its ``stop_reason``: ``gradient`` (the
    test met), ``indefinite`` (a Hessian that is not finite or not
    definite, or a start whose value is not finite), ``bound``
    (a step beyond ``DIVERGENCE_BOUND``, which is never evaluated: the row
    stands at its iterate in the step's trials, and a step that leaves no
    row running makes none), ``halvings`` (still falling
    after ``NEWTON_HALVINGS`` halvings) or ``steps`` (still going after
    ``NEWTON_STEPS`` steps).  All but the first leave the row where it
    stands.  While every row runs, a step makes one finite test, one
    factorization and one solve of the whole stack and no row masks; those,
    and the stop bookkeeping, run only where some row stops or falls.
    Returns an ``AscentResult`` whose ``x``, ``value``, ``gradient_norm``,
    ``iterations`` (accepted steps), ``converged`` (the gradient test met)
    and ``stop_reason`` hold one entry per row, and whose
    ``gradient_evaluations`` counts the calls."""
    shape = np.shape(x0)
    x = np.array(x0, dtype=float).reshape(-1, shape[-1])   # (rows, d)
    n, d = x.shape
    basis = np.concatenate([np.zeros((1, 1, d)), np.eye(d)[held:, None, :]])   # x, then x + h_j e_j
    calls = 0

    def trial(points, size=None):
        # values (rows,), gradients (1 + d - held, rows, d) and steps h
        # (rows, d); the objective's own arrays, which are never written.
        # size: |points|, where the caller has it
        nonlocal calls
        calls += 1
        h = HESSIAN_STEP * np.maximum(1.0, np.abs(points) if size is None else size)
        fs, gs = value_and_gradient((points + basis * h).reshape(basis.shape[:1] + shape))
        return np.asarray(fs, dtype=float).reshape(-1, n)[0], np.asarray(gs, dtype=float).reshape(-1, n, d), h

    def stop(rows, why):
        nonlocal everyone
        rows &= running
        if rows.any():
            reason[rows] = why
            running[rows] = False
            everyone = False

    fx, gs, h = trial(x)
    running, steps, taken = np.isfinite(fx), np.zeros(n, dtype=int), 0   # taken: steps every row took
    reason = np.full(n, "indefinite", dtype=object)
    reason[running] = "steps"
    everyone = bool(running.all())   # every row running: no step needs a row mask
    for step_count in range(NEWTON_STEPS + 1):
        g = gs[0]
        gradient_norm = np.abs(g).max(axis=1)
        met = gradient_norm <= gradient_tolerance
        if met.any():
            stop(met, "gradient")
        if step_count == NEWTON_STEPS or not (everyone or running.any()):
            break
        slopes = (g[:, held:] - gs[1:, :, held:]) / h[:, held:].T[:, :, None]   # [j, row, i]: -dg_i / dx_j
        minus_s = (slopes.transpose(1, 0, 2) + slopes.transpose(1, 2, 0)) * 0.5
        # solved in the running rows where -S is finite: while every row
        # runs, one finite test and one factorization and solve of the stack
        if everyone and np.isfinite(minus_s).all():
            solution, failed = _definite_solve(minus_s, g[:, held:, None])
        else:
            usable = running & np.isfinite(minus_s).all(axis=(1, 2))
            solution = np.zeros((n, d - held, 1))
            solution[usable], failed = _definite_solve(minus_s[usable], g[usable, held:, None])
            if failed is not None:
                usable[usable] = ~failed
            failed = ~usable
        if failed is not None:
            stop(failed, "indefinite")
            if not running.any():
                break
        step = np.zeros((n, d))   # zero in the rows that take no step
        step[:, held:] = solution[..., 0]
        cand = x + step
        size = np.abs(cand)
        if not size.max() <= DIVERGENCE_BOUND:
            # the rows that step past the bound stop where they stand, and
            # their iterates stand in the trial
            stop(~(size.max(axis=1) <= DIVERGENCE_BOUND), "bound")
            if not running.any():
                break
            cand = np.where(running[:, None], cand, x)
            size = None
        pending = None if everyone else running.copy()   # None: every row
        for _ in range(NEWTON_HALVINGS):
            fc, gc, hc = trial(cand, size)
            rose = (fc >= fx) & np.isfinite(fc)
            if pending is None:
                if rose.all():   # every row rose: take the whole candidate
                    x, fx, gs, h = cand, fc, gc, hc
                    taken += 1
                    break
                pending = running.copy()
            rose &= pending
            x, fx = np.where(rose[:, None], cand, x), np.where(rose, fc, fx)
            gs, h = np.where(rose[:, None], gc, gs), np.where(rose[:, None], hc, h)
            steps += rose
            pending &= ~rose
            if not pending.any():
                break
            step[~pending] = 0.0
            step *= 0.5
            cand, size = x + step, None
        else:
            stop(pending, "halvings")
    lead = shape[:-1]
    return AscentResult(x.reshape(shape), fx.reshape(lead), gradient_norm.reshape(lead), (steps + taken).reshape(lead),
                        (reason == "gradient").reshape(lead), gradient_evaluations=calls,
                        stop_reason=reason.reshape(lead), method="newton")


def sup_rows(value, value_and_gradient, x0, *, smooth: bool, gradient_tolerance: float, max_iterations: int,
             row) -> tuple[np.ndarray, np.ndarray, dict[int, AscentResult]]:
    """The sups of a batch of independent concave objectives, one per
    leading index of x0 (..., d): the policy of ``sup`` for many rows at
    once.  ``value`` evaluates every row (a zero-width search is one call
    of it) and ``value_and_gradient`` every row at a stack of points (as
    ``newton_ascent`` takes it); ``row(i)`` gives the batch objective and
    the ``(value, gradient)`` callable of the row with flat index i.

    Smooth rows take ``newton_ascent``.  The rows it leaves unfinished, and
    every row of a kinked objective, go to ``sup`` one by one from where
    the batch stopped.  Returns the maximizers, the sups, and the ``sup``
    result of each row that went there, by flat index."""
    x = np.array(x0, dtype=float, order="C")   # so that flat_x below is a view of x
    if x.shape[-1] == 0:   # nothing to choose: every row is at its sup
        return x, np.asarray(value(x), dtype=float), {}
    if smooth:
        newton = newton_ascent(value_and_gradient, x, gradient_tolerance=gradient_tolerance)
        x, fx, done = newton.x, newton.value, newton.converged
    else:
        fx, done = np.empty(x.shape[:-1]), np.zeros(x.shape[:-1], dtype=bool)
    flat_x, flat_fx = x.reshape(-1, x.shape[-1]), fx.reshape(-1)
    fallback = {}
    for i in np.flatnonzero(~done).tolist():
        f, grad = row(i)
        fallback[i] = res = sup(f, flat_x[i], smooth=smooth, gradient_tolerance=gradient_tolerance,
                                max_iterations=max_iterations, gradient=grad)
        flat_x[i], flat_fx[i] = res.x, res.value
    return x, fx, fallback


@dataclass
class SimplexResult:
    """Where a simplex descent stopped: ``stop_reason`` is ``gap`` (the
    duality gap met the tolerance) or ``max_iterations``."""

    weights: np.ndarray
    value: float | None
    gap: float
    iterations: int
    converged: bool
    stop_reason: str = ""


def eg_minimize(grad_fn, d: int, *, value_fn=None, tolerance: float = 1e-9,
                max_iterations: int = 100_000) -> SimplexResult:
    """Minimize a convex function over the simplex by exponentiated gradient
    with 1/sqrt(k) steps.

    ``grad_fn`` may be exact up to an additive constant (the update and the
    duality-gap surrogate are both invariant to constant shifts).  The gap
    ``lam . g - min g`` bounds the suboptimality and is the stopping rule.
    """
    lam = np.full(d, 1.0 / d)
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
        eta = 1.0 / np.sqrt(iterations)
        lam = lam * np.exp(-eta * (g - g.min()))
        lam = np.maximum(lam, 1e-300)
        lam /= lam.sum()
    value = float(value_fn(best)) if value_fn is not None else None
    return SimplexResult(best, value, best_gap, iterations, converged, "gap" if converged else "max_iterations")

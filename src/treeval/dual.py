"""Numerical convex duals of assembled valuations, primal recovery from a
dual function, the dual decomposition residual, and dual-side property
checks.

The dual of a node operator is the sup over cash balances of value minus the
pairing with a density; it is finite only on probability densities over the
node's subtree.  Densities that are not probabilities are rejected up front;
probability densities with mass off the subtree make the sup run away, which
the ascent reports as divergence and this module converts to +inf.  Smooth
families take the batched Newton stage of ``optim`` first, one reverse
sweep per trial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (ConvergenceError, DomainError, ValidationError, check_count, check_number, check_numbers,
                     check_tolerance)
from .optim import AscentResult, eg_minimize, newton_ascent, sup
from .tree import CashBalance, NodeRecord, Tree
from .valuation import OneStepValuation, assemble, is_probability


@dataclass(frozen=True)
class DualSolverOptions:
    """Knobs for the solvers.

    ``tolerance`` is the duality-gap target of the simplex descent;
    ``gradient_tolerance`` is the gradient test of every numeric sup
    (dual solves, one-step duals among them: the Newton stage, which must
    meet it in every free coordinate, then ``optim.sup``; one-step hedges
    and numeric one-step pools: ``optim.sup_rows``);
    ``max_iterations`` caps each BFGS ascent and simplex descent (the
    Newton stage has its own caps, ``optim.NEWTON_STEPS`` and
    ``optim.NEWTON_HALVINGS``).  Tolerances must be finite and
    positive, the cap an integer of at least 1.
    """

    tolerance: float = 1e-9
    max_iterations: int = 100_000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("tolerance", "gradient_tolerance"):
            if not check_numbers(name, getattr(self, name), ()) > 0:
                raise ValidationError(f"{name} must be positive")
        check_count("max_iterations", self.max_iterations, 1)


DEFAULT_OPTIONS = DualSolverOptions()


@dataclass(frozen=True)
class DualDensity:
    """Probability density on the subtree of its support node; nodes absent
    from ``values`` carry zero mass."""

    support: str
    values: Mapping[str, float]


def _mapping_of(lam) -> Mapping[str, float]:
    if isinstance(lam, DualDensity):
        return lam.values
    if isinstance(lam, Mapping):
        return lam
    raise ValidationError(f"expected a density, got {type(lam).__name__}")


def _mass_vector(tree: Tree, lam) -> np.ndarray:
    """Masses of a density or mapping in node order; unknown nodes and
    masses that are not numbers (``check_number``) are rejected, absent
    nodes carry zero."""
    masses = np.zeros(tree.n_nodes)
    for node_id, v in _mapping_of(lam).items():
        i = tree.node_index(node_id)
        try:
            masses[i] = check_number("density mass", v)
        except ValidationError:
            raise ValidationError(f"density mass at {node_id!r} must be a number (got {v!r})") from None
    return masses


def _mass_off(tree: Tree, masses: np.ndarray, xi: int) -> np.ndarray:
    """Indices of the nodes off the subtree at xi that carry mass."""
    off = masses > 0
    off[tree.descendant_indices(xi)] = False
    return np.flatnonzero(off)


def _probability_masses(tree: Tree, lam) -> np.ndarray:
    """``_mass_vector`` of a density with no negative mass and a sum of 1;
    where it may carry mass is the caller's to check."""
    masses = _mass_vector(tree, lam)
    if not is_probability(masses):
        negative = np.flatnonzero(masses < 0)
        if negative.size:
            raise DomainError(f"density mass at {tree.ids[negative[0]]!r} is negative")
        raise DomainError(f"density is not a probability: its masses must sum to 1 (got {masses.sum()!r})")
    return masses


def dual_density(tree: Tree, x: str, values: Mapping[str, float]) -> DualDensity:
    values = _mapping_of(values)
    off = _mass_off(tree, _probability_masses(tree, values), tree.node_index(x))
    if off.size:
        raise DomainError(f"density puts mass on {tree.ids[off[0]]!r}, outside the subtree of {x!r}")
    return DualDensity(support=x, values={node_id: float(v) for node_id, v in values.items()})


def sample_density(tree: Tree, x: str, rng: np.random.Generator, *,
                   floor: float = 0.02) -> DualDensity:
    """Random density on the subtree at x, its masses drawn uniform on
    [floor, 1] and normalized: with a floor in (0, 1], strictly positive
    and bounded away from the boundary for well-conditioned solves."""
    floor = float(check_numbers("floor", floor, ()))
    if not 0.0 <= floor <= 1.0:
        raise ValidationError("floor must lie in [0, 1]")
    sub = tree.descendant_indices(tree.node_index(x))
    raw = rng.uniform(floor, 1.0, len(sub))
    raw /= raw.sum()
    return DualDensity(support=x, values={tree.ids[i]: float(w) for i, w in zip(sub, raw)})


def _off_domain_rows(fn):
    """``fn`` on a batch of cash rows (B, d), with each row an operator
    rejects as outside its domain (a ``DomainError``, as walled CRRA families
    raise past the wealth wall) scored -inf, so an ascent backs away from
    it: the whole batch at once, else row by row."""

    def rows(batch: np.ndarray):
        try:
            return fn(batch)
        except DomainError:
            if batch.shape[0] == 1:
                return np.full(1, -math.inf)
            return np.concatenate([rows(batch[r:r + 1]) for r in range(batch.shape[0])])

    return rows


def dual_value_and_argmax(family, x: str, lam, opts: DualSolverOptions | None = None,
                          start: np.ndarray | None = None):
    """Dual value together with the maximizing cash balance (None when the
    sup is +inf) and the solver's result.  The extra returns feed envelope
    gradients to the simplex descent; ``dual_value`` is the plain
    interface.

    A density that is not a probability, whose dual is +inf, raises a
    domain error.  The search runs over the free coordinates, the node's
    subtree (in preorder) and then the nodes off it that carry mass, from
    ``start`` (one finite number for each) or zero.  A smooth family takes
    ``optim.newton_ascent`` first, one reverse sweep per trial point (at
    the root, the trial points themselves are the cash it sweeps), with
    the node's own cash held at its start: translation invariance makes
    the objective flat along the subtree's constant shift.  Its point is
    taken only where the whole gradient meets the gradient test, held
    coordinate included, which assumes no translation invariance.  Other
    solves, and every kinked family, go to ``optim.sup`` over all free
    coordinates from the start.  Not from Newton's last point: a sup
    approached only as the node's own cash grows (a CRRA density with no
    mass on the node) leaves the children near the divergence bound, and
    BFGS from there crosses it.  Such a result's ``method`` and
    ``stop_reason`` join Newton's and the fallback's with ``+``, as in
    ``newton+bfgs`` and ``indefinite+gradient``.  A mass that is not a
    number is a validation error naming its node."""
    opts = opts or DEFAULT_OPTIONS
    tree = family.tree
    xi = tree.node_index(x)
    masses = _probability_masses(tree, lam)

    free = np.concatenate([tree.descendant_indices(xi), _mass_off(tree, masses, xi)])
    lam_vec = masses[free]
    # consecutive nodes (a subtree of a tree given in preorder) are read and
    # written as a slice, which is cheaper than a list of indices; where
    # they are the whole tree, a batch of free coordinates is the cash
    cols = slice(xi, xi + free.size) if free.tolist() == list(range(xi, xi + free.size)) else free
    whole = free.size == tree.n_nodes and isinstance(cols, slice)
    x0 = np.zeros(free.size) if start is None else check_numbers("start", start, (free.size,))

    def cash(batch: np.ndarray) -> np.ndarray:
        if whole:
            return batch
        full = np.zeros((batch.shape[0], tree.n_nodes))
        full[:, cols] = batch
        return full

    def values(batch: np.ndarray) -> np.ndarray:
        return family.node_values(cash(batch))[:, xi] - batch @ lam_vec

    def values_and_gradients(batch: np.ndarray):
        try:
            swept, grad = family.values_and_gradient(cash(batch), xi)
        except DomainError:   # a walled family's point past its wall: the stack scores -inf
            return np.full(batch.shape[0], -math.inf), np.zeros(batch.shape)
        return swept[:, xi] - batch @ lam_vec, grad[:, cols] - lam_vec

    def value_and_gradient(point: np.ndarray):
        fz, gz = values_and_gradients(point[None])
        return float(fz[0]), gz[0]

    smooth = all(b.kernel.smooth for b in family.blocks)
    newton = None
    if smooth and free.size > 1:
        # free[0] is the node itself
        newton = newton_ascent(values_and_gradients, x0, gradient_tolerance=opts.gradient_tolerance, held=1)
    if newton is not None and newton.converged:
        res = AscentResult(newton.x, float(newton.value), float(newton.gradient_norm), int(newton.iterations),
                           converged=True, gradient_evaluations=newton.gradient_evaluations,
                           stop_reason="gradient", method="newton")
    else:
        res = sup(_off_domain_rows(values), x0, smooth=smooth,
                  gradient_tolerance=opts.gradient_tolerance, max_iterations=opts.max_iterations,
                  gradient=value_and_gradient)
        if newton is not None:
            res.method = f"newton+{res.method}"
            res.stop_reason = f"{newton.stop_reason.item()}+{res.stop_reason}"
            res.iterations += int(newton.iterations)
            res.gradient_evaluations += newton.gradient_evaluations
    if res.diverged:
        return math.inf, None, res
    if not res.converged:
        raise ConvergenceError(f"dual maximization ({res.method}) stopped on {res.stop_reason}", best=res)
    return res.value, CashBalance(tree, cash(res.x[None])[0]), res


def dual_value(family, x: str, lam, opts: DualSolverOptions | None = None) -> float:
    """sup over cash balances on the subtree of (node value - density . cash),
    by ``optim.sup`` on the reverse-sweep gradient; +inf signals a density
    outside the effective domain."""
    value, _, _ = dual_value_and_argmax(family, x, lam, opts)
    return value


def _simplex_fd_grad(fn: Callable[[np.ndarray], float], lam: np.ndarray) -> np.ndarray:
    """Gradient up to an additive constant, differencing along edge
    directions inside the simplex (the input function may reject points off
    the simplex, so plain coordinate steps are not available)."""
    d = lam.size
    g = np.zeros(d)
    for y in range(1, d):
        h = min(1e-6, 0.25 * min(lam[0], lam[y]))
        if h <= 0:
            continue
        e = np.zeros(d)
        e[y] = h
        e[0] = -h
        g[y] = (fn(lam + e) - fn(lam - e)) / (2 * h)
    return g


def primal_from_dual(dual_fn, x: str, balance: CashBalance,
                     opts: DualSolverOptions | None = None, *,
                     gradient=None):
    """Recover the primal value  inf over densities of (density . cash +
    dual)  by multiplicative-weights descent on the simplex over the subtree.

    ``dual_fn`` maps a DualDensity to a float.  ``gradient``, when given,
    maps a DualDensity to the mapping of partials of ``dual_fn`` (an
    envelope or closed form); otherwise on-simplex finite differences are
    used.  Returns the infimum value and the argmin density; exhausting the
    iteration budget raises a convergence error carrying the best iterate.
    A dual value or a partial that is not a number or an infinity (NaN, a
    string), or a partial missing at a node of the subtree, is a
    validation error naming the node or the value, raised at once.
    Infinite partials are clipped to +-1e12.
    """
    opts = opts or DEFAULT_OPTIONS
    tree = balance.tree
    xi = tree.node_index(x)
    sub = tree.descendant_indices(xi)
    ids_sub = [tree.ids[i] for i in sub]
    k_sub = balance.values[sub]

    def density_of(vec: np.ndarray) -> DualDensity:
        return DualDensity(support=x, values=dict(zip(ids_sub, map(float, vec))))

    def dual_at(vec: np.ndarray) -> float:
        return float(check_numbers("the value of dual_fn", dual_fn(density_of(vec)), (), infinite=True))

    def value_of(vec: np.ndarray) -> float:
        return float(vec @ k_sub) + dual_at(vec)

    if gradient is not None:
        def grad_of(vec: np.ndarray) -> np.ndarray:
            partials = gradient(density_of(vec))
            try:
                row = [partials[node_id] for node_id in ids_sub]
            except KeyError as missing:
                raise ValidationError(f"gradient gives no partial at {missing.args[0]!r}") from None
            try:
                return k_sub + check_numbers("the partials of gradient", row, (sub.size,), infinite=True)
            except ValidationError:   # name the first node at fault
                for node_id, partial in zip(ids_sub, row):
                    check_numbers(f"the partial of gradient at {node_id!r}", partial, (), infinite=True)
                raise
    else:
        def grad_of(vec: np.ndarray) -> np.ndarray:
            return k_sub + _simplex_fd_grad(dual_at, vec)

    res = eg_minimize(grad_of, len(sub), value_fn=value_of,
                      tolerance=opts.tolerance,
                      max_iterations=opts.max_iterations)
    density = density_of(res.weights)
    if not res.converged:
        raise ConvergenceError(
            f"simplex descent stopped at duality gap {res.gap:.3e} after {res.iterations} iterations",
            best=(res.value, density))
    return res.value, density


def one_step_dual_value(step: OneStepValuation, theta: float, psi,
                        opts: DualSolverOptions | None = None) -> float:
    """Numeric conjugate of a one-step operator at a probability vector
    (theta, psi) over (node, children): ``dual_value`` at the root of the
    step's own depth-one valuation, a root with one child per entry of psi
    ``assemble``d with ``step``.  So a smooth step takes the Newton stage,
    divergence gives +inf and an unfinished ascent a convergence error.
    A psi whose length is not the step's number of children, as one
    evaluation of the step at zero outcomes shows, is a validation
    error."""
    try:
        probe = np.shape(step.evaluate(0.0, np.zeros(len(psi))))
    except (ValueError, IndexError):   # numpy's complaint about the shapes
        probe = None
    if probe != ():
        raise ValidationError(f"psi gives {len(psi)} child masses, but the step does not take {len(psi)} "
                              "children")
    tree = Tree([NodeRecord("node"), *(NodeRecord(f"child {j}", "node") for j in range(len(psi)))])
    return dual_value(assemble(tree, {"node": step}), "node", dict(zip(tree.ids, [theta, *psi])), opts)


def dual_recursion_residual(family, x: str, lam, opts: DualSolverOptions | None = None, *,
                            use_closed_forms: bool = True) -> float:
    """|dual at the node - (one-step dual at the aggregated density + child
    subtree masses times child duals of the renormalized restrictions)|.

    Requires strictly positive mass on the whole subtree so every child term
    is well defined.  Closed forms attached to the family are used when
    available unless disabled; anything else is computed numerically.
    """
    opts = opts or DEFAULT_OPTIONS
    tree = family.tree
    xi = tree.node_index(x)
    if tree.is_leaf[xi]:
        raise ValidationError("the dual recursion lives on internal nodes")
    sub = tree.descendant_indices(xi)
    masses = _mass_vector(tree, dual_density(tree, x, lam))
    if not np.all(masses[sub] > 0):
        raise DomainError("the recursion residual needs strictly positive mass on the whole subtree")

    def node_dual(z: str, mapping: Mapping[str, float]) -> float:
        zi = tree.node_index(z)
        if tree.is_leaf[zi]:
            return 0.0
        if use_closed_forms and family.dual_closed is not None:
            return float(family.dual_closed(z, mapping))
        return dual_value(family, z, mapping, opts)

    lhs = node_dual(x, {tree.ids[i]: float(masses[i]) for i in sub})

    kids = tree.children_index[xi]
    bar = np.array([masses[tree.descendant_indices(z)].sum() for z in kids])
    step = family.one_steps[xi]
    if use_closed_forms and step.dual is not None:
        one_step_term = float(step.dual(float(masses[xi]), bar))
    else:
        one_step_term = one_step_dual_value(step, float(masses[xi]), bar, opts)

    rhs = one_step_term
    for z, bz in zip(kids, bar):
        child_map = {tree.ids[i]: float(masses[i] / bz) for i in tree.descendant_indices(z)}
        rhs += bz * node_dual(tree.ids[z], child_map)
    # both sides +inf: the recursion holds in the extended reals
    return 0.0 if lhs == rhs == math.inf else abs(lhs - rhs)


@dataclass
class DualPropertiesReport:
    convexity_passed: bool
    worst_convexity_residual: float
    infimum: float
    infimum_nonnegative: bool
    infimum_attains_zero: bool
    rejects_off_simplex: bool
    trials: int
    seed: int

    @property
    def all_passed(self) -> bool:
        # a positive infimum is legitimate for aggregated duals and is
        # reported, not failed
        return self.convexity_passed and self.infimum_nonnegative and self.rejects_off_simplex

    def as_dict(self) -> dict:
        return {
            "convexity_passed": self.convexity_passed,
            "worst_convexity_residual": self.worst_convexity_residual,
            "infimum": self.infimum,
            "infimum_nonnegative": self.infimum_nonnegative,
            "infimum_attains_zero": self.infimum_attains_zero,
            "rejects_off_simplex": self.rejects_off_simplex,
            "trials": self.trials,
            "seed": self.seed,
        }


def check_dual_properties(tree: Tree, x: str, dual_fn, *, trials: int = 50, seed: int = 0,
                          tolerance: float = 1e-9,
                          opts: DualSolverOptions | None = None) -> DualPropertiesReport:
    """Sample the simplex over the subtree at x and check midpoint convexity,
    locate the infimum (nonnegative for any valuation dual; zero exactly for
    normalized ones), and confirm rejection of non-probability arguments."""
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    check_tolerance("tolerance", tolerance)
    opts = opts or DEFAULT_OPTIONS
    rng = np.random.default_rng(seed)
    xi = tree.node_index(x)
    sub = tree.descendant_indices(xi)
    ids_sub = [tree.ids[i] for i in sub]

    def density_of(vec):
        return DualDensity(support=x, values=dict(zip(ids_sub, map(float, vec))))

    def f(vec) -> float:
        return float(dual_fn(density_of(vec)))

    worst = 0.0
    for _ in range(trials):
        a = rng.uniform(0.02, 1.0, len(sub))
        a /= a.sum()
        b = rng.uniform(0.02, 1.0, len(sub))
        b /= b.sum()
        worst = max(worst, f(0.5 * (a + b)) - 0.5 * (f(a) + f(b)))

    res = eg_minimize(lambda v: _simplex_fd_grad(f, v), len(sub), value_fn=f,
                      tolerance=max(opts.tolerance, 1e-10),
                      max_iterations=min(opts.max_iterations, 20_000))
    infimum = float(res.value)

    rejected = True
    overweight = np.full(len(sub), 1.2 / len(sub))
    try:
        if math.isfinite(f(overweight)):
            rejected = False
    except DomainError:
        pass
    if len(sub) > 1:
        signed = np.full(len(sub), 1.0 / (len(sub) - 0.5))
        signed[0] = -0.5 / (len(sub) - 0.5)
        signed *= 1.0 / signed.sum()
        try:
            if math.isfinite(f(signed)):
                rejected = False
        except DomainError:
            pass

    return DualPropertiesReport(
        convexity_passed=worst <= tolerance,
        worst_convexity_residual=worst,
        infimum=infimum,
        infimum_nonnegative=infimum >= -max(tolerance, 1e-7),
        infimum_attains_zero=abs(infimum) <= max(tolerance, 1e-6),
        rejects_off_simplex=rejected,
        trials=trials,
        seed=seed,
    )

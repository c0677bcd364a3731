"""Concrete valuation families: exponential certainty equivalents with a
relative-entropy dual, worst-case stop-or-continue operators, and
utility-indifference one-step valuations (with the CRRA dual closed form,
the pasting counterexample on the two-period trinomial lattice, and the
translation-invariance witness that singles out exponential utility).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dual import _mass_vector, dual_density
from .errors import ConvergenceError, DomainError, ValidationError
from .tree import CashBalance, Tree
from .valuation import (Kernel, OneStepValuation, ValuationFamily, is_probability, kernel_family, kernel_step,
                        probability_rows)


def _stack_outcomes(k_x, k_children) -> np.ndarray:
    """Join own cash and child values along the last axis, broadcasting a
    leading batch axis if present."""
    k_x = np.asarray(k_x, dtype=float)
    k_children = np.asarray(k_children, dtype=float)
    return np.concatenate([k_x[..., None], k_children], axis=-1)


def _level_sized(a: np.ndarray) -> bool:
    """Whether a reduction over the short last axis of ``a`` runs faster as
    one whole-array ufunc call per position along that axis than as one
    ``ufunc.reduce``, which spends about 20 ns on every outer entry.  The
    loop wins once the outer entries outnumber about 32 times the axis
    length, for axes of up to 16 (numpy 2.4 on a 2-vCPU Xeon, sums: 256 x 4
    entries took 8.0 us as a reduce and 5.1 us as a loop, 64 x 4 entries
    3.2 us and 4.5 us, 64 x 8 entries 3.4 us and 8.4 us)."""
    m = a.shape[-1]
    return m <= 16 and a.size > 32 * m * m


def _reduce_last(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last axis, looped for level-sized arrays."""
    if not _level_sized(a):
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        ufunc(out, a[..., i], out=out)
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, with the maximum subtracted."""
    m = _reduce_last(np.maximum, a)
    return m + np.log(_reduce_last(np.add, np.exp(a - m[..., None])))


def _softmax(a: np.ndarray) -> np.ndarray:
    """exp(a) normalized over the last axis, with the maximum subtracted."""
    w = np.exp(a - _reduce_last(np.maximum, a)[..., None])
    return w / _reduce_last(np.add, w)[..., None]


def _logsumexp_softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_logsumexp(a)`` and ``_softmax(a)``, equal to theirs, from one set
    of exponentials."""
    m = _reduce_last(np.maximum, a)
    w = np.exp(a - m[..., None])
    total = _reduce_last(np.add, w)
    return m + np.log(total), w / total[..., None]


# ---------------------------------------------------------------------------
# utilities


@dataclass(frozen=True)
class ExponentialUtility:
    """u(w) = -exp(-gamma w), defined on the whole line."""

    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValidationError("exponential utility needs gamma > 0")

    def value(self, w):
        return -np.exp(-self.gamma * np.asarray(w, dtype=float))

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v >= 0):
            raise DomainError("exponential utility takes values in (-inf, 0)")
        return -np.log(-v) / self.gamma


@dataclass(frozen=True)
class CRRAUtility:
    """u(w) = w^(1-R) / (1-R) for wealth w > 0, with R > 0 and R != 1."""

    R: float

    def __post_init__(self):
        if not (self.R > 0 and np.isfinite(self.R)) or self.R == 1.0:
            raise ValidationError("CRRA exponent must be positive and != 1 (log utility unsupported)")

    def value(self, w):
        w = np.asarray(w, dtype=float)
        if np.any(w <= 0):
            raise DomainError("CRRA utility needs strictly positive wealth")
        return w ** (1.0 - self.R) / (1.0 - self.R)

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        scaled = (1.0 - self.R) * v
        if np.any(scaled <= 0):
            raise DomainError("value outside the range of the CRRA utility")
        return scaled ** (1.0 / (1.0 - self.R))

    def log_marginal(self, w):
        """log u'(w) for w > 0."""
        return -self.R * np.log(np.asarray(w, dtype=float))

    def value_and_marginal(self, w):
        """u(w) and u'(w) from one power, for w > 0 (unchecked)."""
        w = np.asarray(w, dtype=float)
        t = w ** (1.0 - self.R)
        return t / (1.0 - self.R), t / w


# ---------------------------------------------------------------------------
# entropic family


@dataclass(frozen=True)
class EntropicParams:
    """Exponential certainty-equivalent family: risk aversion gamma and a
    strictly positive reference distribution over all tree nodes."""

    tree: Tree
    gamma: float
    reference: np.ndarray
    subtree_reference: np.ndarray


def entropic_params(tree: Tree, gamma: float, reference=None) -> EntropicParams:
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValidationError("gamma must be a positive real")
    if reference is None:
        if tree.weights is None:
            raise ValidationError("tree carries no weights; pass an explicit reference")
        ref = np.array(tree.weights, dtype=float)
    elif isinstance(reference, Mapping):
        missing = set(tree.ids) - set(reference)
        if missing:
            raise ValidationError(f"reference missing nodes: {sorted(missing)}")
        ref = np.array([float(reference[node_id]) for node_id in tree.ids])
    else:
        ref = np.array(reference, dtype=float)
        if ref.shape != (tree.n_nodes,):
            raise ValidationError("reference must give one mass per node")
    if not is_probability(ref, positive=True):
        raise ValidationError("reference distribution must be strictly positive on every node "
                              f"and sum to 1 over the tree (got sum {ref.sum()!r})")
    bar = tree.subtree_sums(ref)
    ref.flags.writeable = False
    bar.flags.writeable = False
    return EntropicParams(tree=tree, gamma=float(gamma), reference=ref, subtree_reference=bar)


def _entropic_node_value(params: EntropicParams, xi: int, values: np.ndarray) -> np.ndarray:
    """Closed form at node index xi for cash values of shape (..., n)."""
    tree = params.tree
    sub = tree.descendant_indices(xi)
    log_ref = np.log(params.reference[sub] / params.subtree_reference[xi])
    a = log_ref - params.gamma * np.asarray(values, dtype=float)[..., sub]
    return -_logsumexp(a) / params.gamma


def entropic_value(params: EntropicParams, x: str, balance: CashBalance) -> float:
    """-(1/gamma) log sum_{y in subtree} (p_y / pbar_x) exp(-gamma K_y),
    evaluated with max-subtracted exponents."""
    return float(_entropic_node_value(params, params.tree.node_index(x), balance.values))


def entropic_dual(params: EntropicParams, x: str, lam) -> float:
    """Relative entropy of the density against the renormalized reference on
    the subtree, divided by gamma; zero masses contribute zero."""
    tree = params.tree
    xi = tree.node_index(x)
    sub = tree.descendant_indices(xi)
    vec = _mass_vector(tree, dual_density(tree, x, lam))[sub]
    ref = params.reference[sub] / params.subtree_reference[xi]
    pos = vec > 0
    return float(np.sum(vec[pos] * np.log(vec[pos] / ref[pos])) / params.gamma)


# Least bound on |log(w_i / w_j)| in a segment move between two vertices: a
# split past it leaves the lighter vertex less than e^-700 of the pair's mass.
SEGMENT_LOGIT_BOUND = 700.0

# Rounds of moves a polytope solve may make before it gives up.
MAX_POLYTOPE_ROUNDS = 200


def _log_mix(log_w: np.ndarray, log_v: np.ndarray) -> np.ndarray:
    """log sum_v w_v V_v for log-weights (..., v) and log-vertices
    (..., v, m), with the maximum subtracted; -inf where no vertex has mass."""
    a = log_w[..., :, None] + log_v
    top = a.max(axis=-2)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(a - top[..., None, :]).sum(axis=-2))


def _take_vertex(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row ``index`` (...,) of the vertex axis of a (..., v, m)."""
    a = np.broadcast_to(a, index.shape + a.shape[-2:])
    return np.take_along_axis(a, index[..., None, None], axis=-2)[..., 0, :]


def _pair_move(cost, v, log_v, log_w, i, j) -> np.ndarray:
    """The log vertex weights after the exact move of mass between vertices
    i and j that minimizes  sum q (cost + log q)  along their segment.

    The split is solved in u = log(w_i / w_j), on which the segment's slope
    h(u) = (V_i - V_j) . (cost + log q) increases: safeguarded Newton inside
    the bracket |u| <= SEGMENT_LOGIT_BOUND + 4 max |cost|, bisecting where a
    step leaves it.  A coordinate only one of the pair reaches moves h
    linearly in u, so an exact split lies inside the bracket, however small
    its lighter mass: working in u and in log q keeps it exact.  For one
    distribution with stopping h is linear in u and the first Newton step
    lands on the root."""
    d = _take_vertex(v, i) - _take_vertex(v, j)
    log_vi, log_vj = _take_vertex(log_v, i), _take_vertex(log_v, j)
    lw_i = np.take_along_axis(log_w, i[..., None], axis=-1)[..., 0]
    lw_j = np.take_along_axis(log_w, j[..., None], axis=-1)[..., 0]
    rest = log_w.copy()
    np.put_along_axis(rest, i[..., None], -np.inf, axis=-1)
    np.put_along_axis(rest, j[..., None], -np.inf, axis=-1)
    log_rest = _log_mix(rest, log_v)
    log_pair = np.logaddexp(lw_i, lw_j)[..., None]
    bound = SEGMENT_LOGIT_BOUND + 4.0 * np.abs(cost).max(axis=-1)
    u = np.clip(lw_i - lw_j, -bound, bound)
    # the bracket opens just past the bound, so a step clipped to the bound
    # is tried once before the bracket closes on it
    lo, hi = -bound - 1.0, bound + 1.0
    for _ in range(200):
        log_si, log_sj = -np.logaddexp(0.0, -u)[..., None], -np.logaddexp(0.0, u)[..., None]
        log_q = np.logaddexp(log_rest, np.logaddexp(log_pair + log_si + log_vi, log_pair + log_sj + log_vj))
        h = _reduce_last(np.add, d * (cost + log_q))
        # capped at e^700, which only coordinates the pair misses reach
        slope = _reduce_last(np.add, d * d * np.exp(np.minimum(log_pair + log_si + log_sj - log_q, 700.0)))
        lo, hi = np.where(h < 0, u, lo), np.where(h > 0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = u - np.where(h == 0, 0.0, h / slope)
        tol = 1e-13 * np.maximum(1.0, np.abs(u))
        done = np.abs(newton - u) <= tol
        # a step that leaves the bracket, or none (an underflowed slope): bisect
        nxt = np.clip(np.where(done | ((newton > lo) & (newton < hi)), newton, 0.5 * (lo + hi)), -bound, bound)
        done |= np.abs(nxt - u) <= tol
        u = nxt
        if done.all():
            break
    out = log_w.copy()
    np.put_along_axis(out, i[..., None], log_pair - np.logaddexp(0.0, -u[..., None]), axis=-1)
    np.put_along_axis(out, j[..., None], log_pair - np.logaddexp(0.0, u[..., None]), axis=-1)
    return out


def _newton_move(cost, v, log_v, log_w, log_q, g) -> np.ndarray:
    """The log vertex weights after one damped Newton step on the weights
    above 1e-30 (the others stay for the pairwise moves): the step solves
    the quadratic model with Hessian V diag(1/q) V^T (its diagonal raised
    by 1e-12 of itself for repeated vertices; a ridge scaled to the whole
    Hessian would let one nearly empty vertex's 1/q freeze the others) on
    the simplex, is cut to keep 1% of every shrinking weight, and halves
    until it gains 1e-4 of its slope, or until the gain its slope predicts
    is below rounding, where it is not taken."""
    nv = v.shape[-2]
    # 1 / q capped at e^700: a coordinate with less mass is reached only by
    # vertices whose weight is as small, which the step leaves alone
    hessian = np.einsum("...ai,...bi,...i->...ab", v, v, np.exp(np.minimum(-log_q, 700.0)))
    free = log_w > -69.0
    eye = np.eye(nv)
    kkt = np.zeros(hessian.shape[:-2] + (nv + 1, nv + 1))
    kkt[..., :nv, :nv] = np.where(free[..., :, None] & free[..., None, :], hessian * (1.0 + 1e-12 * eye), eye)
    kkt[..., :nv, nv] = kkt[..., nv, :nv] = free
    rhs = np.concatenate([np.where(free, -g, 0.0), np.zeros(g.shape[:-1] + (1,))], axis=-1)
    d = np.linalg.solve(kkt, rhs[..., None])[..., :nv, 0]
    w = np.exp(log_w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.minimum(1.0, np.where(free & (d < 0), -0.99 * w / d, np.inf).min(axis=-1))
    before = _reduce_last(np.add, np.exp(log_q) * (cost + log_q))
    slope = _reduce_last(np.add, g * d)
    out, pending = log_w, slope < 0
    for _ in range(40):
        # a step whose predicted gain is below rounding is not tried
        pending &= t * np.abs(slope) > 1e-15 * (1.0 + np.abs(before))
        if not pending.any():
            break
        with np.errstate(divide="ignore"):
            trial = np.where(free, np.log(w + t[..., None] * d), log_w)
        trial = trial - _logsumexp(trial)[..., None]
        log_q = _log_mix(trial, log_v)
        after = _reduce_last(np.add, np.exp(log_q) * (cost + log_q))
        # strictly: a step whose gain is below rounding is no step
        ok = pending & (after < before + 1e-4 * t * slope)
        out = np.where(ok[..., None], trial, out)
        pending &= ~ok
        t = np.where(pending, 0.5 * t, t)
    return out


def _polytope_log_argmin(cost: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log q* for the minimizer q* of  sum q (cost + log q)  over the convex
    hull of the vertex rows of v (..., nv, m), batched over the leading axes
    of cost (..., m).  Every coordinate must carry mass at some vertex.

    The search variable is the vertex weights w, from uniform.  Each round
    moves mass exactly (``_pair_move``) to the vertex of least slope
    g_v = V_v . (cost + log q) from the one holding the most of the simplex
    gap  sum w (g - min g), then, with three or more vertices, takes a
    Newton step on the weights (``_newton_move``): pairwise moves alone
    crawl across a thin face, a triangle of nearly collinear distributions
    taking over 500 of them.  Rounds end once the gap is within 1e-13 of
    the slopes' scale.  Two vertices take one move."""
    with np.errstate(divide="ignore"):
        log_v = np.log(v)
    log_w = np.full(cost.shape[:-1] + v.shape[-2:-1], -np.log(v.shape[-2]))
    for _ in range(MAX_POLYTOPE_ROUNDS):
        log_q = _log_mix(log_w, log_v)
        g = _reduce_last(np.add, v * (cost + log_q)[..., None, :])
        excess = np.exp(log_w) * (g - g.min(axis=-1)[..., None])
        if np.all(_reduce_last(np.add, excess) <= 1e-13 * (1.0 + np.abs(g).max(axis=-1))):
            return log_q
        log_w = _pair_move(cost, v, log_v, log_w, np.argmin(g, axis=-1), np.argmax(excess, axis=-1))
        if v.shape[-2] > 2:
            log_q = _log_mix(log_w, log_v)
            g = _reduce_last(np.add, v * (cost + log_q)[..., None, :])
            log_w = _newton_move(cost, v, log_v, log_w, log_q, g)
    raise ConvergenceError(f"the pooled one-step left a simplex gap after {MAX_POLYTOPE_ROUNDS} rounds",
                           best=np.exp(_log_mix(log_w, log_v)))


def _entropic_log_argmin(gamma: float, data, k_x, k_children) -> np.ndarray:
    """log q* of the minimizing density q* of the exponential one-step's
    conjugate problem  min_q [q . k + sum q (log q - log w) / gamma]: the log
    Gibbs weights, or over the polytope of ``data[1]``'s vertices when the
    data carries one."""
    cost = gamma * _stack_outcomes(k_x, k_children) - data[0]
    if len(data) == 1:
        return -cost - _logsumexp(-cost)[..., None]
    return _polytope_log_argmin(cost, data[1])


def _entropic_kernel(gamma: float) -> Kernel:
    """One-step exponential certainty equivalent, stating its ``gamma``;
    data: the log-weights of (own weight, child subtree weights) over the
    subtree weight, or of any positive weights.  Data with a second array,
    the vertices (b, v, m + 1) of a polytope, confine the density of the
    conjugate problem to the polytope (the pooling rule of a polyhedral
    subsidiary): the value is then that problem's minimum and the partials
    its minimizer, found by ``_polytope_log_argmin``."""

    def evaluate(data, k_x, k_children):
        if len(data) == 1:
            return _logsumexp(data[0] - gamma * _stack_outcomes(k_x, k_children)) / -gamma
        return grad(data, k_x, k_children)[0]

    def grad(data, k_x, k_children):
        # the Gibbs weights of the outcomes, from the exponentials of the
        # value; over a polytope, the minimizer (the envelope theorem)
        if len(data) == 1:
            lse, weights = _logsumexp_softmax(data[0] - gamma * _stack_outcomes(k_x, k_children))
            return lse / -gamma, weights
        log_q = _entropic_log_argmin(gamma, data, k_x, k_children)
        q = np.exp(log_q)
        return _reduce_last(np.add, q * (_stack_outcomes(k_x, k_children) + (log_q - data[0]) / gamma)), q

    def dual(data, theta, psi):
        q = np.concatenate([[float(theta)], np.asarray(psi, dtype=float)])
        if not is_probability(q):
            raise DomainError("one-step dual argument must be a probability over (node, children)")
        pos = q > 0
        return float(np.sum(q[pos] * (np.log(q[pos]) - data[0][0, pos])) / gamma)

    return Kernel(evaluate, f"entropic(gamma={gamma})", dual=dual, grad=grad, gamma=gamma)


def _entropic_data(params: EntropicParams):
    ref, bar = params.reference, params.subtree_reference

    def data(nodes, kids):
        return (np.log(np.concatenate([ref[nodes, None], bar[kids]], axis=1) / bar[nodes, None]),)

    return data


def entropic_one_step(params: EntropicParams, x: str) -> OneStepValuation:
    """One-step exponential certainty equivalent splitting the subtree mass
    as (own weight, child subtree weights); assembling these reproduces the
    closed-form node values."""
    return kernel_step(params.tree, _entropic_kernel(params.gamma), _entropic_data(params), x)


def entropic_family(params: EntropicParams) -> ValuationFamily:
    return kernel_family(
        params.tree, _entropic_kernel(params.gamma), _entropic_data(params),
        descriptor=f"entropic(gamma={params.gamma})",
        dual_closed=lambda x, lam: entropic_dual(params, x, lam),
    )


# ---------------------------------------------------------------------------
# worst-case / optimal stopping family


@dataclass(frozen=True)
class WorstCaseParams:
    """Per-node finite sets of child distributions, one read-only
    (distributions, children) array a node, with an optional stop branch
    that locks in the node's own cash."""

    tree: Tree
    alphas: Mapping[str, np.ndarray]
    stopping: bool = True


def worst_case_params(tree: Tree, alphas: Mapping[str, Sequence[Sequence[float]]],
                      stopping: bool = True) -> WorstCaseParams:
    """Validated child distributions, checked with one stacked test per
    level group: every internal node has at least one, and each is a
    probability vector over the node's children."""
    cleaned: dict[str, np.ndarray] = {}
    for nodes, kids in tree.level_groups:
        names = [tree.ids[u] for u in nodes.tolist()]
        missing = [node_id for node_id in names if node_id not in alphas]
        if missing:
            raise ValidationError(f"missing child distributions for node {missing[0]!r}")
        sets = [alphas[node_id] for node_id in names]
        counts = np.array([len(s) for s in sets])
        if not counts.all():
            raise ValidationError(f"need at least one distribution at {names[int(np.argmin(counts))]!r}")
        owner = np.repeat(np.arange(len(names)), counts)
        flat = [a for s in sets for a in s]
        try:
            mat = np.array(flat, dtype=float)
        except ValueError:   # ragged, or not numbers
            mat = None
        if mat is None or mat.shape != (len(flat), kids.shape[1]):
            wrong = next((j for j, a in enumerate(flat) if np.shape(a) != (kids.shape[1],)), None)
            if wrong is None:
                raise ValidationError(f"distributions at {names[0]!r} and its level must be numbers")
            raise ValidationError(f"distribution at {names[owner[wrong]]!r} has wrong length")
        bad = ~probability_rows(mat)
        if bad.any():
            raise ValidationError(
                f"distribution at {names[owner[np.argmax(bad)]]!r} is not a probability vector")
        mat.flags.writeable = False
        cleaned.update(zip(names, np.split(mat, np.cumsum(counts)[:-1])))
    return WorstCaseParams(tree=tree, alphas=cleaned, stopping=stopping)


def _worst_case_kernel(stopping: bool) -> Kernel:
    """Minimum over the stop value (when stopping is enabled) and every
    child expectation; data: the stacked child distributions (a, m) of each
    node.  Its partials are a subgradient: the minimizing distribution, or
    the stop branch (own cash) where stopping is the minimum."""

    def expectations(data, k_children):
        return _reduce_last(np.add, np.asarray(k_children, dtype=float)[..., None, :] * data[0])

    def evaluate(data, k_x, k_children):
        worst = _reduce_last(np.minimum, expectations(data, k_children))
        return np.minimum(np.asarray(k_x, dtype=float), worst) if stopping else worst

    def grad(data, k_x, k_children):
        e = expectations(data, k_children)
        worst = _reduce_last(np.minimum, e)
        stacked = np.broadcast_to(data[0], e.shape + data[0].shape[-1:])
        alpha = np.take_along_axis(stacked, np.argmin(e, axis=-1)[..., None, None], axis=-2)[..., 0, :]
        out = np.concatenate([np.zeros_like(alpha[..., :1]), alpha], axis=-1)
        if not stopping:
            return worst, out
        k_x = np.asarray(k_x, dtype=float)
        return np.minimum(k_x, worst), np.where((k_x <= worst)[..., None], np.eye(out.shape[-1])[0], out)

    def vertices(data):
        # (0, alpha_i) for every distribution, after e_0 when stopping is on
        alphas = data[0]
        out = np.concatenate([np.zeros_like(alphas[..., :1]), alphas], axis=-1)
        if not stopping:
            return out
        return np.concatenate([np.broadcast_to(np.eye(out.shape[-1])[0], out[:, :1].shape), out], axis=1)

    return Kernel(evaluate, "worst_stopping" if stopping else "worst_case", smooth=False, grad=grad,
                  vertices=vertices)


def _worst_case_data(params: WorstCaseParams):
    ids, alphas = params.tree.ids, params.alphas

    def data(nodes, kids):
        sets = [alphas[ids[u]] for u in nodes.tolist()]
        most = max(map(len, sets))
        # repeating a node's first distribution leaves its minimum unchanged
        return (np.stack([s if len(s) == most else np.concatenate([s, np.repeat(s[:1], most - len(s), 0)])
                          for s in sets]),)

    return data


def worst_case_one_step(params: WorstCaseParams, x: str) -> OneStepValuation:
    """Minimum over the stop value (when stopping is enabled) and every
    child expectation at x."""
    return kernel_step(params.tree, _worst_case_kernel(params.stopping), _worst_case_data(params), x)


def worst_case_family(params: WorstCaseParams) -> ValuationFamily:
    kernel = _worst_case_kernel(params.stopping)
    return kernel_family(params.tree, kernel, _worst_case_data(params), descriptor=kernel.descriptor)


# ---------------------------------------------------------------------------
# utility-indifference family


def _check_utility(utility) -> None:
    if not isinstance(utility, (CRRAUtility, ExponentialUtility)):
        raise ValidationError(f"utility must be a CRRAUtility or an ExponentialUtility, not {type(utility).__name__}")


def indifference_price(utility, x0: float, probs, outcomes) -> np.ndarray:
    """The sure payment making the agent indifferent to the outcome vector:
    the b solving  u(x0) = sum_y p_y u(x0 + k_y - b).

    Exponential utility has the closed form -log sum p exp(-gamma k) / gamma;
    CRRA utilities are solved by safeguarded Newton to rounding
    (``_newton_price``) inside [min k, max k] intersected with the wealth
    wall b < x0 + min k (the root always lies between the extreme outcomes,
    and for R > 1 the utility side drops to -inf at the wall, so a root
    always exists there; for R < 1 a root can fail to exist and that raises
    a domain error naming the outcomes).  The price is monotone in each
    outcome and shifts one-for-one with constants.  Broadcasts over a
    leading batch axis of ``outcomes``.
    """
    _check_utility(utility)
    p = np.asarray(probs, dtype=float)
    if not is_probability(p, positive=True):
        raise ValidationError("outcome probabilities must be strictly positive and sum to 1")
    k = np.asarray(outcomes, dtype=float)
    if k.shape[-1] != p.shape[0]:
        raise ValidationError("outcomes and probabilities differ in length")
    return _newton_price(utility, x0, p, k)


# Iterations of an indifference price before it stops: Newton takes a few,
# and as many halvings take a bracket of width 1e18 within the tolerance.
PRICE_ITERATIONS = 100


def _newton_price(utility, x0: float, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Core of ``indifference_price`` for validated probabilities ``p`` that
    broadcast against the outcomes ``k`` along the trailing axes: the closed
    form for exponential utility, Newton for CRRA.

    g(b) = sum p u(x0 + k - b) - u(x0) is concave and decreasing in b, with
    g'(b) = -sum p u'.  Newton starts at the smaller of the mean outcome
    (where g <= 0 by Jensen, so the iterates fall monotonically onto the
    root) and the wealth wall, and keeps a bracket lo <= root <= hi; where a
    step leaves the bracket, or g is not finite (at or past the wall), the
    iterate bisects it.  An entry stops at an exact root, once its own
    Newton step is within 1e-12 (1 + |x0| + |b|), which it takes, or once
    its bracket is that narrow, so its price does not depend on the other
    entries of the batch."""
    if isinstance(utility, ExponentialUtility):
        # the certainty equivalent -log E exp(-gamma k) / gamma, whatever x0,
        # measured from the least outcome so that equal outcomes price to
        # themselves exactly.  Newton from a mean far above it gains only
        # about 1/gamma a step and stopped short after PRICE_ITERATIONS.
        low = _reduce_last(np.minimum, k)
        tail = _reduce_last(np.add, p * np.exp(-utility.gamma * (k - low[..., None])))
        return low - np.log(tail / _reduce_last(np.add, p)) / utility.gamma
    lo = np.array(_reduce_last(np.minimum, k), dtype=float)
    hi = np.minimum(_reduce_last(np.maximum, k), x0 + lo)
    target = float(utility.value(x0))
    if utility.R < 1.0:
        # u(0+) = 0 here, so the utility side stays bounded at the wall and
        # indifference can be unachievable with nonnegative wealth
        wall_wealth = k - lo[..., None]
        g_wall = np.sum(p * np.where(wall_wealth > 0, utility.value(np.maximum(wall_wealth, 1e-300)), 0.0),
                        axis=-1)
        if np.any(g_wall > target):
            flat = k.reshape(-1, k.shape[-1])
            bad = flat[int(np.argmax(np.asarray(g_wall > target).reshape(-1)))]
            raise DomainError(f"no indifference price with positive wealth at x0={x0}: {bad.tolist()}")

    price = np.clip(_reduce_last(np.add, p * k), lo, hi)
    done = np.zeros(price.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(PRICE_ITERATIONS):
            wealth = x0 + k - price[..., None]
            valid = _reduce_last(np.minimum, wealth) > 0
            u, du = utility.value_and_marginal(wealth if valid.all() else np.where(wealth > 0, wealth, 1.0))
            g = np.where(valid, _reduce_last(np.add, p * u) - target, -np.inf)
            lo, hi = np.where(g > 0, price, lo), np.where(g < 0, price, hi)
            slope = _reduce_last(np.add, p * du)
            exact = g == 0
            newton = np.where(exact, price, price + g / slope)
            tol = 1e-12 * (1.0 + abs(x0) + np.abs(price))
            # an exact root, or a step within tolerance (unless the slope
            # overflowed, which makes every step small), is taken before
            # the bracket test, which an iterate at the root would fail; the
            # step is kept inside the bracket, which closes onto the price
            # of outcomes that are all equal
            converged = exact | ((np.abs(newton - price) <= tol) & (slope < np.inf))
            step = np.where(converged | ((newton > lo) & (newton < hi)), newton, 0.5 * (lo + hi))
            price = np.where(done, price, np.minimum(np.maximum(step, lo), hi))
            done |= converged | (hi - lo <= tol)
            if done.all():
                break
    return price


@dataclass(frozen=True)
class UIParams:
    """Single-period indifference pricing at each node: a CRRA or
    exponential utility, reference wealth, and strictly positive outcome
    probabilities over the node and its children, checked on construction
    with one stacked gather per level group: ``levels`` holds the stacks,
    one per ``tree.level_groups`` entry, and ``probs`` then maps each node
    to its read-only row."""

    tree: Tree
    utility: object
    x0: float
    probs: Mapping[str, np.ndarray]
    levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_utility(self.utility)
        levels, table = [], {}
        for nodes, _ in self.tree.level_groups:
            names = [self.tree.ids[u] for u in nodes.tolist()]
            rows = _ui_rows(self.tree, self.probs, nodes, names)
            rows.flags.writeable = False
            levels.append(rows)
            table.update(zip(names, rows))
        object.__setattr__(self, "probs", table)
        object.__setattr__(self, "levels", tuple(levels))


def _ui_rows(tree: Tree, probs: Mapping, nodes: np.ndarray, names: list[str]) -> np.ndarray:
    """The outcome probabilities of the nodes of one level group, gathered
    into one (nodes, m) array and checked in one pass: each row covers its
    node and children, is strictly positive and sums to 1."""
    missing = [node_id for node_id in names if node_id not in probs]
    if missing:
        raise ValidationError(f"missing outcome probabilities for node {missing[0]!r}")
    m = len(tree.children_index[nodes[0]]) + 1
    try:
        p = np.array([probs[node_id] for node_id in names], dtype=float)
    except (TypeError, ValueError):   # ragged, or not numbers
        p = None
    if p is None or p.shape != (len(names), m):
        wrong = next((node_id for node_id in names if np.shape(probs[node_id]) != (m,)), None)
        if wrong is None:
            raise ValidationError(f"outcome probabilities at {names[0]!r} and its level must be numbers")
        raise ValidationError(f"outcome probabilities at {wrong!r} must cover the node and its children")
    bad = ~probability_rows(p, positive=True)
    if bad.any():
        raise ValidationError(f"outcome probabilities at {names[int(np.argmax(bad))]!r} "
                              "must be strictly positive and sum to 1")
    return p


def ui_params(tree: Tree, utility, x0: float, probs: Mapping[str, Sequence[float]] | None = None) -> UIParams:
    """Indifference parameters; without ``probs`` each node splits its
    subtree weight as (own weight, child subtree weights)."""
    if not np.isfinite(x0):
        raise ValidationError("reference wealth must be finite")
    if isinstance(utility, CRRAUtility) and x0 <= 0:
        raise ValidationError("reference wealth must lie in the CRRA domain (x0 > 0)")
    if probs is None:
        if tree.weights is None:
            raise ValidationError("tree carries no weights; pass explicit outcome probabilities")
        probs = {}
        for nodes, kids in tree.level_groups:
            rows = np.concatenate([tree.weights[nodes, None], tree.subtree_weight[kids]], axis=1)
            probs.update(zip((tree.ids[u] for u in nodes.tolist()), rows / tree.subtree_weight[nodes, None]))
    return UIParams(tree=tree, utility=utility, x0=float(x0), probs=probs)


def _ui_kernel(utility: CRRAUtility, x0: float) -> Kernel:
    """CRRA indifference price of the (node, children) outcome vector; data:
    the outcome probabilities of each node, checked by ``_ui_rows``."""

    def evaluate(data, k_x, k_children):
        return _newton_price(utility, x0, data[0], _stack_outcomes(k_x, k_children))

    def grad(data, k_x, k_children):
        # implicit function theorem: p_y u'(w_y) / sum p u'(w), w at the price
        k = _stack_outcomes(k_x, k_children)
        price = _newton_price(utility, x0, data[0], k)
        return price, _softmax(np.log(data[0]) + utility.log_marginal(x0 + k - price[..., None]))

    def dual(data, theta, psi):
        q = np.concatenate([[float(theta)], np.asarray(psi, dtype=float)])
        return crra_one_period_dual(utility.R, x0, data[0][0], q)

    return Kernel(evaluate, f"ui({type(utility).__name__}, x0={x0})", dual=dual, grad=grad)


def _ui_step(params: UIParams):
    """The kernel and data of the indifference one-steps, on the checked
    rows of a level group or of one node of it: for exponential utility the
    exponential one-step on their logarithms, which is its price whatever
    x0, else the CRRA price on the rows."""
    tree = params.tree
    group, row = np.empty(tree.n_nodes, dtype=int), np.empty(tree.n_nodes, dtype=int)
    for g, (nodes, _) in enumerate(tree.level_groups):
        group[nodes], row[nodes] = g, np.arange(nodes.size)
    if isinstance(params.utility, ExponentialUtility):
        kernel, levels = _entropic_kernel(params.utility.gamma), tuple(np.log(rows) for rows in params.levels)
    else:
        kernel, levels = _ui_kernel(params.utility, params.x0), params.levels
    return kernel, lambda nodes, kids: (levels[group[nodes[0]]][row[nodes]],)


def ui_one_step(params: UIParams, x: str) -> OneStepValuation:
    """Indifference price of the (node, children) outcome vector.  Exactly
    translation invariant and monotone by construction; concave for concave
    utilities."""
    return kernel_step(params.tree, *_ui_step(params), x)


def ui_family(params: UIParams) -> ValuationFamily:
    return kernel_family(params.tree, *_ui_step(params), descriptor=f"ui({type(params.utility).__name__})")


def crra_one_period_dual(R: float, x0: float, probs, lam) -> float:
    """Closed-form conjugate of the CRRA indifference price:
    x0 (1 - S^(R/(R-1))) with S = sum_y p_y^(1/R) lam_y^(1-1/R).

    Requires a strictly positive probability vector; R = 1 is unsupported.
    """
    if R == 1.0:
        raise ValidationError("R = 1 (log utility) has no supported closed form")
    p = np.asarray(probs, dtype=float)
    q = np.asarray(lam, dtype=float)
    if q.shape != p.shape:
        raise ValidationError("density and probabilities differ in length")
    if not is_probability(q, positive=True):
        raise DomainError("density must be strictly positive and sum to 1")
    s = float(np.sum(p ** (1.0 / R) * q ** (1.0 - 1.0 / R)))
    return x0 * (1.0 - s ** (R / (R - 1.0)))


def crra_ui_dual(params: UIParams, x: str, lam) -> float:
    """One-period dual of the CRRA indifference valuation at a node, with the
    density ordered as (node, children)."""
    if not isinstance(params.utility, CRRAUtility):
        raise ValidationError("closed-form dual available for CRRA utilities only")
    return crra_one_period_dual(params.utility.R, params.x0, params.probs[x], lam)


# ---------------------------------------------------------------------------
# counterexamples and witnesses


@dataclass
class PastingCounterexample:
    found: bool
    gap: float
    claim: dict[str, float] | None
    matched_claim: dict[str, float] | None
    time1_prices: tuple[float, float, float] | None
    time0_prices: tuple[float, float] | None
    samples_used: int


def ui_dc_counterexample(R: float, x0: float, *, budget: int = 10_000, seed: int = 0,
                         utility=None, scale: float | None = None) -> PastingCounterexample:
    """Search for two terminal claims on the equal-probability trinomial
    lattice with identical time-1 indifference prices but different time-0
    prices.

    Candidates are seeded random draws processed in batches; the partner
    claim keeps two fresh outcomes per time-1 node and solves the third by a
    one-dimensional inversion so the time-1 prices match exactly, and a local
    refinement pass perturbs the best pair found.  With exponential utility
    the time-0 gap collapses to solver noise, which is the control case.
    """
    u = utility if utility is not None else CRRAUtility(R)
    if scale is None:
        scale = 0.45 * x0 if isinstance(u, CRRAUtility) else 1.0
    rng = np.random.default_rng(seed)
    leaf_ids = [a + b for a in "abc" for b in "abc"]
    p3 = np.full(3, 1.0 / 3.0)
    p9 = np.full(9, 1.0 / 9.0)
    u_x0 = float(u.value(x0))
    crra = isinstance(u, CRRAUtility)

    def time1_prices(y: np.ndarray) -> np.ndarray:
        # (B, 9) -> (B, 3)
        return indifference_price(u, x0, p3, y.reshape(-1, 3, 3)).reshape(y.shape[0], 3)

    def match_claims(y: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Partner claims with the same time-1 prices, plus a validity mask."""
        fresh = rng.uniform(-scale, scale, (y.shape[0], 3, 2))
        rhs = 3.0 * u_x0 - u.value(x0 + fresh - b1[:, :, None]).sum(axis=-1)
        if crra:
            ok3 = (1.0 - u.R) * rhs > 0
        else:
            ok3 = rhs < 0
        safe = np.where(ok3, rhs, u_x0)
        third = np.asarray(u.inverse(safe)) - x0 + b1
        other = np.concatenate([fresh, third[:, :, None]], axis=-1).reshape(y.shape[0], 9)
        ok = ok3.all(axis=-1)
        if crra:
            ok &= x0 + other.min(axis=-1) - other.max(axis=-1) > 1e-9
        return other, ok

    best_gap = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    samples = 0
    refine_budget = max(budget // 10, 1)
    main_budget = budget - refine_budget
    batch = 256

    def consider(y: np.ndarray) -> None:
        nonlocal best_gap, best
        other, ok = match_claims(y, time1_prices(y))
        if not ok.any():
            return
        other = np.where(ok[:, None], other, y)  # keep rejected rows domain-safe
        gaps = np.where(
            ok,
            np.abs(indifference_price(u, x0, p9, y) - indifference_price(u, x0, p9, other)),
            -np.inf,
        )
        i = int(np.argmax(gaps))
        if gaps[i] > best_gap:
            best_gap = float(gaps[i])
            best = (y[i].copy(), other[i].copy())

    while samples < main_budget:
        take = min(batch, main_budget - samples)
        consider(rng.uniform(-scale, scale, (take, 9)))
        samples += take
    while samples < budget and best is not None:
        take = min(batch, budget - samples)
        radius = scale * 0.5 ** (1 + 4 * (samples - main_budget) / refine_budget)
        y = np.clip(best[0] + rng.uniform(-radius, radius, (take, 9)), -scale, scale)
        consider(y)
        samples += take

    if best is None:
        return PastingCounterexample(False, 0.0, None, None, None, None, samples)
    y, other = best
    b1 = time1_prices(y[None, :])[0]
    t0 = (float(indifference_price(u, x0, p9, y)), float(indifference_price(u, x0, p9, other)))
    return PastingCounterexample(
        found=True,
        gap=best_gap,
        claim=dict(zip(leaf_ids, map(float, y))),
        matched_claim=dict(zip(leaf_ids, map(float, other))),
        time1_prices=tuple(map(float, b1)),
        time0_prices=t0,
        samples_used=samples,
    )


def exponential_uniqueness_witness(utility, *, trials: int = 200, seed: int = 0) -> float:
    """Largest translation-invariance defect of the certainty-equivalent
    recipe  u(pi(K)) = sum_y p_y u(K_y)  over sampled positive cash vectors
    and shifts.  Exponential utility gives an exact zero; any CRRA utility
    leaves a strictly positive defect because its marginal-utility ratios
    depend on the wealth level.
    """
    p = np.array([0.2, 0.4, 0.4])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = rng.uniform(1.0, 3.0, 3)
        a = float(rng.uniform(0.5, 1.5))
        pi_k = float(utility.inverse(np.sum(p * utility.value(k))))
        pi_shifted = float(utility.inverse(np.sum(p * utility.value(k + a))))
        worst = max(worst, abs(pi_shifted - pi_k - a))
    return worst

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
from .errors import ConvergenceError, DomainError, ValidationError, check_count, check_numbers
from .tree import CashBalance, Tree
from .valuation import (Kernel, OneStepValuation, ValuationFamily, is_probability, kernel_family, kernel_step,
                        probability_rows)


def _level_sized(a: np.ndarray) -> bool:
    """Whether a reduction over the last axis of ``a`` runs as one ufunc
    call per position along it rather than one ``ufunc.reduce``: always for
    8 or more positions, which ``np.add.reduce`` sums in an order set by the
    memory layout and so by the batch; else where that is faster, once the
    outer entries outnumber about 32 times the axis length, as ``reduce``
    spends about 20 ns on each (numpy 2.4 on a 2-vCPU Xeon, sums: 256 x 4
    entries took 8.0 us as a reduce and 5.1 us as a loop, 64 x 4 entries
    3.2 us and 4.5 us)."""
    m = a.shape[-1]
    return m >= 8 or a.size > 32 * m * m


def _reduce_last(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last axis, looped where ``_level_sized``;
    the loop's accumulator keeps the layout of a, so that it runs on
    matching strides (on the worst-case kernel's rows-innermost products,
    256 rows x 28 nodes x 3 x 3: 34 us, against 85 us into a C-ordered
    accumulator)."""
    if not _level_sized(a):
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy(order="K")
    for i in range(1, a.shape[-1]):
        ufunc(out, a[..., i], out=out)
    return out


def _shifted_exp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximum m over the last axis of a, and exp(a - m) written over a."""
    m = _reduce_last(np.maximum, a)
    return m, np.exp(np.subtract(a, m[..., None], out=a), out=a)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, with the maximum subtracted; a is
    overwritten."""
    m, w = _shifted_exp(a)
    return m + np.log(_reduce_last(np.add, w))


def _softmax(a: np.ndarray) -> np.ndarray:
    """exp(a) normalized over the last axis, with the maximum subtracted,
    written over a."""
    _, w = _shifted_exp(a)
    return np.divide(w, _reduce_last(np.add, w)[..., None], out=w)


def _logsumexp_softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_logsumexp(a)`` and ``_softmax(a)``, equal to theirs, from one set
    of exponentials, the softmax written over a."""
    m, w = _shifted_exp(a)
    total = _reduce_last(np.add, w)
    return m + np.log(total), np.divide(w, total[..., None], out=w)


# ---------------------------------------------------------------------------
# utilities


def _positive_wealth(w) -> np.ndarray:
    """The wealth w, checked numbers, as an array; a domain error where
    some entry is not strictly positive."""
    w = check_numbers("wealth", w)
    if np.any(w <= 0):
        raise DomainError("CRRA utility needs strictly positive wealth")
    return w


@dataclass(frozen=True)
class ExponentialUtility:
    """u(w) = -exp(-gamma w), defined on the whole line."""

    gamma: float = 1.0

    def __post_init__(self):
        if not check_numbers("gamma", self.gamma, ()) > 0:
            raise ValidationError("exponential utility needs gamma > 0")

    def value(self, w):
        return -np.exp(-self.gamma * check_numbers("wealth", w))

    def inverse(self, v):
        v = check_numbers("utility value", v)
        if np.any(v >= 0):
            raise DomainError("exponential utility takes values in (-inf, 0)")
        return -np.log(-v) / self.gamma


@dataclass(frozen=True)
class CRRAUtility:
    """u(w) = w^(1-R) / (1-R) for wealth w > 0, with R > 0 and R != 1."""

    R: float

    def __post_init__(self):
        if not check_numbers("R", self.R, ()) > 0 or self.R == 1.0:
            raise ValidationError("CRRA exponent must be positive and != 1 (log utility unsupported)")

    def value(self, w):
        w = _positive_wealth(w)
        return w ** (1.0 - self.R) / (1.0 - self.R)

    def inverse(self, v):
        scaled = (1.0 - self.R) * check_numbers("utility value", v)
        if np.any(scaled <= 0):
            raise DomainError("value outside the range of the CRRA utility")
        return scaled ** (1.0 / (1.0 - self.R))

    def log_marginal(self, w):
        """log u'(w) for w > 0."""
        return self._log_marginal(_positive_wealth(w))

    def _log_marginal(self, w: np.ndarray) -> np.ndarray:
        """``log_marginal`` of a float array w > 0 (unchecked)."""
        return -self.R * np.log(w)

    def value_and_marginal(self, w):
        """u(w) and u'(w) from one power, for w > 0 (unchecked)."""
        w = np.asarray(w, dtype=float)
        t = w ** (1.0 - self.R)
        return t / (1.0 - self.R), t / w


# ---------------------------------------------------------------------------
# entropic family


@dataclass(frozen=True, eq=False)
class EntropicParams:
    """Exponential certainty-equivalent family: risk aversion gamma and a
    strictly positive reference distribution over all tree nodes.
    Parameters compare and hash by identity."""

    tree: Tree
    gamma: float
    reference: np.ndarray
    subtree_reference: np.ndarray


def entropic_params(tree: Tree, gamma: float, reference=None) -> EntropicParams:
    gamma = float(check_numbers("gamma", gamma, ()))
    if not gamma > 0:
        raise ValidationError("gamma must be a positive real")
    if reference is None:
        if tree.weights is None:
            raise ValidationError("tree carries no weights; pass an explicit reference")
        reference = tree.weights
    elif isinstance(reference, Mapping):
        missing = set(tree.ids) - set(reference)
        if missing:
            raise ValidationError(f"reference missing nodes: {sorted(missing)}")
        reference = [reference[node_id] for node_id in tree.ids]
    ref = check_numbers("reference", reference, (tree.n_nodes,))
    if not is_probability(ref, positive=True):
        raise ValidationError("reference distribution must be strictly positive on every node "
                              f"and sum to 1 over the tree (got sum {ref.sum()!r})")
    bar = tree.subtree_sums(ref)
    ref.flags.writeable = False
    bar.flags.writeable = False
    return EntropicParams(tree=tree, gamma=gamma, reference=ref, subtree_reference=bar)


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
    if balance.tree is not params.tree:
        raise ValidationError("cash balance built on a different tree")
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
    its lighter mass: working in u and in log q keeps it exact.  Only
    vertices whose supports overlap come here; the closed form of
    ``_disjoint_log_argmin`` solves the others, one distribution with
    stopping among them."""
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
        trial = trial - _logsumexp(trial.copy())[..., None]
        log_q = _log_mix(trial, log_v)
        after = _reduce_last(np.add, np.exp(log_q) * (cost + log_q))
        # strictly: a step whose gain is below rounding is no step
        ok = pending & (after < before + 1e-4 * t * slope)
        out = np.where(ok[..., None], trial, out)
        pending &= ~ok
        t = np.where(pending, 0.5 * t, t)
    return out


def _polytope_rounds(cost, v, log_v) -> np.ndarray:
    """log q* over the hull of vertices whose supports overlap, by rounds of
    moves on the vertex weights w, from uniform.  Each round moves mass
    exactly (``_pair_move``) to the vertex of least slope
    g_v = V_v . (cost + log q) from the one holding the most of the simplex
    gap  sum w (g - min g), then, with three or more vertices, takes a
    Newton step on the weights (``_newton_move``): pairwise moves alone
    crawl across a thin face, a triangle of nearly collinear distributions
    taking over 500 of them.  Rounds end once the gap is within 1e-13 of
    the slopes' scale."""
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


def _disjoint_log_argmin(cost, v, log_v, repeat) -> np.ndarray:
    """log q* over the hull of vertices whose supports are disjoint, once
    the vertices flagged ``repeat`` are dropped: q = sum t_v V_v makes the
    objective sum t_v (C_v + log t_v), C_v = sum over supp V_v of
    V_vc (cost_c + log V_vc), so log t = -C - logsumexp(-C), and each
    coordinate's log q is its one vertex's log t_v + log V_vc, the most of
    them over the vertices, as the others are -inf."""
    with np.errstate(invalid="ignore"):
        c = _reduce_last(np.add, np.where(v > 0, v * (cost[..., None, :] + log_v), 0.0))
    # less its least entry, so the heaviest vertex's log t carries no
    # rounding of |cost|'s scale, and the exponentials need no other shift
    c = np.where(repeat, np.inf, c)
    c -= _reduce_last(np.minimum, c)[..., None]
    log_t = -c - np.log(_reduce_last(np.add, np.exp(-c)))[..., None]
    return (log_t[..., None] + log_v).max(axis=-2)


def _vertex_plan(v: np.ndarray) -> tuple:
    """What ``_polytope_log_argmin`` reads of the vertices v (b, nv, m),
    node axis first: (v, log v, repeat, closed).  ``repeat`` (b, nv) flags
    a vertex that repeats an earlier one of its node (``WorstCaseParams.levels``
    pads a node with fewer distributions so), and ``closed`` (b,) a node
    whose other vertices reach every coordinate once.  Built with the block
    that holds the vertices, so a sweep does not redo it."""
    with np.errstate(divide="ignore"):
        log_v = np.log(v)
    reach = v > 0
    count, repeat = reach.sum(axis=-2), np.zeros(v.shape[:-1], dtype=bool)
    if (count > 1).any():
        repeat = np.tril((v[..., :, None, :] == v[..., None, :, :]).all(axis=-1), -1).any(axis=-1)
        count = (reach & ~repeat[..., None]).sum(axis=-2)
    return v, log_v, repeat, (count == 1).all(axis=-1)


def _polytope_log_argmin(cost: np.ndarray, plan: tuple) -> np.ndarray:
    """log q* for the minimizer q* of  sum q (cost + log q)  over the convex
    hull of the vertex rows of v (b, nv, m), batched over the leading axes
    of cost (..., b, m), from the ``_vertex_plan`` of v.  Every coordinate
    must carry mass at some vertex.

    A node whose vertices reach every coordinate once, a repeated vertex
    aside, is solved in closed form (``_disjoint_log_argmin``): one
    distribution with stopping is such a node.  The other nodes of the
    block take the rounds of ``_polytope_rounds`` on their own slice."""
    v, log_v, repeat, closed = plan
    if closed.all():
        return _disjoint_log_argmin(cost, v, log_v, repeat)
    if not closed.any():
        return _polytope_rounds(cost, v, log_v)
    cost = np.broadcast_to(cost, np.broadcast_shapes(cost.shape[:-1], closed.shape) + cost.shape[-1:])
    out = np.empty(cost.shape)
    out[..., closed, :] = _disjoint_log_argmin(cost[..., closed, :], v[closed], log_v[closed], repeat[closed])
    out[..., ~closed, :] = _polytope_rounds(cost[..., ~closed, :], v[~closed], log_v[~closed])
    return out


def _one_step_density(data, theta, psi) -> np.ndarray:
    """(theta, psi), a one-step dual's argument, as one checked vector over
    (node, children), for a kernel whose data[0] holds one entry per
    outcome."""
    m = data[0].shape[-1] - 1
    return np.concatenate([check_numbers("theta", theta, ())[None], check_numbers("psi", psi, (m,))])


def _entropic_kernel(gamma: float) -> Kernel:
    """One-step exponential certainty equivalent, stating its rule
    (gamma, log w, None); data: the log-weights log w of (own weight, child
    subtree weights) over the subtree weight, or of any positive weights.
    Its ``solve`` gives the values with log q*, the log Gibbs weights, which
    minimize the conjugate problem  min_q [q . k + sum q (log q - log w) / gamma]."""

    def exponents(data, k):
        # log w - gamma k, in place on k: the same numbers, as x - y is x + (-y)
        return np.add(np.multiply(k, -gamma, out=k), data[0], out=k)

    def evaluate(data, k):
        return _logsumexp(exponents(data, k)) / -gamma

    def grad(data, k):
        # the Gibbs weights of the outcomes, from the exponentials of the value
        lse, weights = _logsumexp_softmax(exponents(data, k))
        return lse / -gamma, weights

    def solve(data, k):
        a = exponents(data, k)
        lse = _logsumexp(a.copy())
        return lse / -gamma, np.subtract(a, lse[..., None], out=a), np.ones(lse.shape, dtype=bool)

    def dual(data, theta, psi):
        q = _one_step_density(data, theta, psi)
        if not is_probability(q):
            raise DomainError("one-step dual argument must be a probability over (node, children)")
        pos = q > 0
        return float(np.sum(q[pos] * (np.log(q[pos]) - data[0][0, pos])) / gamma)

    return Kernel(evaluate, f"entropic(gamma={gamma})", dual=dual, grad=grad,
                  rule=lambda data: (gamma, data[0], None), solve=solve)


def _confined_kernel(gamma: float) -> Kernel:
    """The exponential one-step with the density of its conjugate problem
    confined to a polytope, stating its rule (gamma, log w, vertices); data:
    the log-weights log w and the ``_vertex_plan`` of the vertices
    (b, v, m + 1), each of which must give every coordinate mass, made once
    with the block.  Its ``solve`` gives the problem's minimum with log q*
    of its minimizer, found by ``_polytope_log_argmin``, and its partials
    are q* (the envelope theorem)."""

    def solve(data, k):
        log_q = _polytope_log_argmin(gamma * k - data[0], data[1])
        values = _reduce_last(np.add, np.exp(log_q) * (k + (log_q - data[0]) / gamma))
        return values, log_q, np.ones(values.shape, dtype=bool)

    def grad(data, k):
        values, log_q, _ = solve(data, k)
        return values, np.exp(log_q)

    return Kernel(lambda data, k: solve(data, k)[0], f"entropic(gamma={gamma})",
                  grad=grad, rule=lambda data: (gamma, data[0], data[1][0]), solve=solve)


def _entropic_levels(params: EntropicParams):
    """The log-weights of (own weight, child subtree weights) over the
    subtree weight, one data tuple per level group, computed as read."""
    ref, bar = params.reference, params.subtree_reference
    for nodes, kids in params.tree.level_groups:
        yield (np.log(np.concatenate([ref[nodes, None], bar[kids]], axis=1) / bar[nodes, None]),)


def entropic_one_step(params: EntropicParams, x: str) -> OneStepValuation:
    """One-step exponential certainty equivalent splitting the subtree mass
    as (own weight, child subtree weights); assembling these reproduces the
    closed-form node values."""
    return kernel_step(params.tree, _entropic_kernel(params.gamma), _entropic_levels(params), x)


def entropic_family(params: EntropicParams) -> ValuationFamily:
    return kernel_family(
        params.tree, _entropic_kernel(params.gamma), _entropic_levels(params),
        descriptor=f"entropic(gamma={params.gamma})",
        dual_closed=lambda x, lam: entropic_dual(params, x, lam),
    )


# ---------------------------------------------------------------------------
# worst-case / optimal stopping family


@dataclass(frozen=True, eq=False)
class WorstCaseParams:
    """Per-node finite sets of child distributions, with an optional stop
    branch that locks in the node's own cash, checked on construction by
    level group: ``levels`` holds each ``tree.level_groups`` entry's data,
    its read-only (nodes, distributions, children) stack, in which a node
    with fewer distributions repeats its first (its minimum unchanged);
    ``alphas`` then maps each node to its own rows."""

    tree: Tree
    alphas: Mapping[str, np.ndarray]
    stopping: bool = True
    levels: tuple = field(init=False, repr=False)

    def __post_init__(self):
        levels, table = [], {}
        for nodes, kids in self.tree.level_groups:
            names = [self.tree.ids[u] for u in nodes.tolist()]
            missing = [node_id for node_id in names if node_id not in self.alphas]
            if missing:
                raise ValidationError(f"missing child distributions for node {missing[0]!r}")
            sets = [self.alphas[node_id] for node_id in names]
            counts = np.array([len(s) for s in sets])
            if not counts.all():
                raise ValidationError(f"need at least one distribution at {names[int(np.argmin(counts))]!r}")
            owner = np.repeat(np.arange(len(names)), counts)
            flat = [a for s in sets for a in s]
            try:
                mat = np.array(flat, dtype=float)
            except (ValueError, TypeError):   # ragged, or not numbers
                mat = None
            if mat is None or mat.shape != (len(flat), kids.shape[1]):
                wrong = next((j for j, a in enumerate(flat) if np.array(a, dtype=object).shape != kids.shape[1:]),
                             None)
                if wrong is None:
                    raise ValidationError(f"distributions at {names[0]!r} and its level must be numbers")
                raise ValidationError(f"distribution at {names[owner[wrong]]!r} has wrong length")
            bad = ~probability_rows(mat)
            if bad.any():
                raise ValidationError(f"distribution at {names[owner[np.argmax(bad)]]!r} is not a probability vector")
            mat.flags.writeable = False
            first = np.cumsum(counts) - counts
            table.update(zip(names, np.split(mat, first[1:])))
            most = np.arange(counts.max())
            stack = mat[first[:, None] + np.where(most < counts[:, None], most, 0)]
            stack.flags.writeable = False
            levels.append((stack,))
        object.__setattr__(self, "alphas", table)
        object.__setattr__(self, "levels", tuple(levels))


def worst_case_params(tree: Tree, alphas: Mapping[str, Sequence[Sequence[float]]],
                      stopping: bool = True) -> WorstCaseParams:
    """Validated child distributions (``WorstCaseParams``)."""
    return WorstCaseParams(tree=tree, alphas=alphas, stopping=stopping)


def _worst_case_kernel(stopping: bool) -> Kernel:
    """Minimum over the stop value (when stopping is enabled) and every
    child expectation; data: a ``WorstCaseParams.levels`` stack.  Its
    partials are a subgradient: the minimizing distribution, or the stop
    branch (own cash) where stopping is the minimum."""

    def expectations(data, k):
        kids = k[..., 1:]
        if k.size > k.shape[-2] * k.shape[-1]:
            # rows: the children copied rows innermost, as a gather of them
            # lays them out, so that the product with the distributions
            # runs along the rows (a 256-row chunk of 28 nodes, numpy 2.4
            # on a 2-vCPU Xeon: 70 us, against 290 us on a C-ordered copy)
            lead = tuple(range(k.ndim - 2))
            kids = kids.transpose(-2, -1, *lead).copy().transpose(*(a + 2 for a in lead), 0, 1)
        return _reduce_last(np.add, kids[..., None, :] * data[0])

    def evaluate(data, k):
        worst = _reduce_last(np.minimum, expectations(data, k))
        return np.minimum(k[..., 0], worst) if stopping else worst

    def grad(data, k):
        e = expectations(data, k)
        worst = _reduce_last(np.minimum, e)
        stacked = np.broadcast_to(data[0], e.shape + data[0].shape[-1:])
        alpha = np.take_along_axis(stacked, np.argmin(e, axis=-1)[..., None, None], axis=-2)[..., 0, :]
        out = np.concatenate([np.zeros_like(alpha[..., :1]), alpha], axis=-1)
        if not stopping:
            return worst, out
        k_x = k[..., 0]
        return np.minimum(k_x, worst), np.where((k_x <= worst)[..., None], np.eye(out.shape[-1])[0], out)

    def rule(data):
        # the vertices (0, alpha_i) for every distribution, after e_0 when
        # stopping is on
        alphas = data[0]
        out = np.concatenate([np.zeros_like(alphas[..., :1]), alphas], axis=-1)
        if stopping:
            out = np.concatenate([np.broadcast_to(np.eye(out.shape[-1])[0], out[:, :1].shape), out], axis=1)
        return np.inf, None, out

    return Kernel(evaluate, "worst_stopping" if stopping else "worst_case", smooth=False, grad=grad, rule=rule)


def worst_case_one_step(params: WorstCaseParams, x: str) -> OneStepValuation:
    """Minimum over the stop value (when stopping is enabled) and every
    child expectation at x."""
    return kernel_step(params.tree, _worst_case_kernel(params.stopping), params.levels, x)


def worst_case_family(params: WorstCaseParams) -> ValuationFamily:
    kernel = _worst_case_kernel(params.stopping)
    return kernel_family(params.tree, kernel, params.levels, descriptor=kernel.descriptor)


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
    a domain error naming the outcomes).  The tolerance, 1e-12 (1 + |x0|
    + |b|), is in price: where u is steep by the wall, a price within it
    can leave a large utility residual (R = 1.01, x0 = 1, p = (1e-3,
    0.999), k = (-0.999999, 5): the root lies 1e-127 below the wall, the
    price 9.1e-13, the residual is 1.74).  The price is monotone in each
    outcome and shifts one-for-one with constants.  Broadcasts over a
    leading batch axis of ``outcomes``.
    """
    _check_utility(utility)
    x0 = float(check_numbers("x0", x0, ()))
    if isinstance(utility, CRRAUtility):
        _positive_wealth(x0)
    p, k = check_numbers("outcome probabilities", probs), check_numbers("outcomes", outcomes)
    if p.ndim != 1 or k.shape[-1:] != p.shape:
        raise ValidationError("outcomes and probabilities differ in length")
    if not is_probability(p, positive=True):
        raise ValidationError("outcome probabilities must be strictly positive and sum to 1")
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
    target = float(utility.value_and_marginal(x0)[0])   # x0 > 0, checked by the callers
    if utility.R < 1.0:
        # u(0+) = 0 here, so the utility side stays bounded at the wall and
        # indifference can be unachievable with nonnegative wealth
        wall_wealth = k - lo[..., None]
        u_wall = utility.value_and_marginal(np.maximum(wall_wealth, 1e-300))[0]
        g_wall = np.sum(p * np.where(wall_wealth > 0, u_wall, 0.0), axis=-1)
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


@dataclass(frozen=True, eq=False)
class UIParams:
    """Single-period indifference pricing at each node: a CRRA or
    exponential utility, reference wealth (a finite number, positive for
    CRRA utility), and strictly positive outcome probabilities over the
    node and its children, checked on construction, the probabilities by
    level group (``_ui_rows``): ``levels`` holds each
    ``tree.level_groups`` entry's data, its read-only stack of rows, and
    ``probs`` then maps each node to its row."""

    tree: Tree
    utility: object
    x0: float
    probs: Mapping[str, np.ndarray]
    levels: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_utility(self.utility)
        object.__setattr__(self, "x0", float(check_numbers("reference wealth x0", self.x0, ())))
        if isinstance(self.utility, CRRAUtility) and self.x0 <= 0:
            raise ValidationError("reference wealth must lie in the CRRA domain (x0 > 0)")
        levels, table = [], {}
        for nodes, _ in self.tree.level_groups:
            names = [self.tree.ids[u] for u in nodes.tolist()]
            rows = _ui_rows(self.tree, self.probs, nodes, names)
            rows.flags.writeable = False
            levels.append((rows,))
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
    if probs is None:
        if tree.weights is None:
            raise ValidationError("tree carries no weights; pass explicit outcome probabilities")
        probs = {}
        for nodes, kids in tree.level_groups:
            rows = np.concatenate([tree.weights[nodes, None], tree.subtree_weight[kids]], axis=1)
            probs.update(zip((tree.ids[u] for u in nodes.tolist()), rows / tree.subtree_weight[nodes, None]))
    return UIParams(tree=tree, utility=utility, x0=x0, probs=probs)


def _ui_kernel(utility: CRRAUtility, x0: float) -> Kernel:
    """CRRA indifference price of the (node, children) outcome vector; data:
    the outcome probabilities of each node, checked by ``_ui_rows``."""

    def evaluate(data, k):
        return _newton_price(utility, x0, data[0], k)

    def grad(data, k):
        # implicit function theorem: p_y u'(w_y) / sum p u'(w), w at the price
        price = _newton_price(utility, x0, data[0], k)
        wealth = np.maximum(x0 + k - price[..., None], np.finfo(float).tiny)   # at the wall: the one-hot limit
        return price, _softmax(np.log(data[0]) + utility._log_marginal(wealth))

    def dual(data, theta, psi):
        return crra_one_period_dual(utility.R, x0, data[0][0], _one_step_density(data, theta, psi))

    return Kernel(evaluate, f"ui({type(utility).__name__}, x0={x0})", dual=dual, grad=grad)


def _ui_step(params: UIParams):
    """The kernel and level data of the indifference one-steps: for
    exponential utility the exponential one-step on the logarithms of the
    checked rows, which is its price whatever x0, else the CRRA price on
    the rows."""
    if isinstance(params.utility, ExponentialUtility):
        return _entropic_kernel(params.utility.gamma), tuple((np.log(rows),) for (rows,) in params.levels)
    return _ui_kernel(params.utility, params.x0), params.levels


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
    R, x0 = float(check_numbers("R", R, ())), float(check_numbers("x0", x0, ()))
    if R == 1.0:
        raise ValidationError("R = 1 (log utility) has no supported closed form")
    p = check_numbers("outcome probabilities", probs)
    if p.ndim != 1:
        raise ValidationError("outcome probabilities must be one vector")
    q = check_numbers("density", lam, p.shape)
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
                         utility=None) -> PastingCounterexample:
    """Search for two terminal claims on the equal-probability trinomial
    lattice with identical time-1 indifference prices but different time-0
    prices.

    Candidates are seeded random draws processed in batches; the partner
    claim keeps two fresh outcomes per time-1 node and solves the third by a
    one-dimensional inversion so the time-1 prices match exactly, and a local
    refinement pass perturbs the best pair found.  With exponential utility
    the time-0 gap collapses to solver noise, which is the control case.
    """
    check_count("budget", budget, 1)
    check_count("seed", seed, 0)
    x0 = float(check_numbers("x0", x0, ()))
    u = utility if utility is not None else CRRAUtility(R)
    crra = isinstance(u, CRRAUtility)
    scale = 0.45 * x0 if crra else 1.0
    rng = np.random.default_rng(seed)
    leaf_ids = [a + b for a in "abc" for b in "abc"]
    p3 = np.full(3, 1.0 / 3.0)
    p9 = np.full(9, 1.0 / 9.0)
    u_x0 = float(u.value(x0))

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
    _check_utility(utility)
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
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

"""One-step valuation operators, their backward-induction assembly into
per-node operators (also from one-step sups and by re-basing at a
commitment), stopping-time valuations, and the executable axiom suite.

The assembled operator at a node reads the cash balance only on that node's
subtree; at a leaf it is the identity on the leaf's cash.  One-step operators
receive child values in the tree's deterministic child order, and their
``evaluate`` must broadcast over leading batch axes (scalars in, scalar out;
``(..., )`` and ``(..., m)`` in, ``(..., )`` out) -- every closed form shipped
here does, and the batched sweep is what makes the fuzzing suites cheap.

A family stores its operators as level blocks: one kernel, evaluated on the
stacked parameters of all nodes of one tree level with one child count, so
a sweep is one numpy call per block rather than one Python call per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping

import numpy as np

from .errors import DivergenceError, ValidationError
from .optim import sup_rows
from .tree import CashBalance, StoppingTime, Tree, stop_index, stopping_time

DEFAULT_AXIOM_TOLERANCE = 1e-9

# Largest temporary of a block evaluation, in floats: a block is cut along
# its node axis so that rows x nodes x width stays under this.  A block's
# width is the larger of children + 1 (the stacked outcomes) and the
# per-node size of its widest parameter array, which kernels broadcast
# against the rows (the worst-case distributions x children).
CHUNK_FLOATS = 1 << 16

# Relative step of the central differences that stand in for the local
# partials of kernels without a ``grad``.
PARTIALS_STEP = 1e-6


@dataclass(frozen=True)
class OneStepValuation:
    """Concave operator on a node's own cash and its children's values.

    ``evaluate(k_x, k_children)`` maps the current cash and the vector of
    child values to one number.  ``dual`` is the optional closed-form convex
    conjugate on probability vectors over (node, children), used to verify
    the dual recursion without an inner optimization.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = ""
    dual: Callable[[float, np.ndarray], float] | None = None
    smooth: bool = True


@dataclass(frozen=True, slots=True)
class Kernel:
    """A one-step operator written once for many nodes.

    ``evaluate(data, k_x, k_children)`` takes per-node parameters ``data``
    (a tuple of arrays, node axis first) and broadcasts them against the
    trailing axes of ``k_x`` (..., b) and ``k_children`` (..., b, m), giving
    (..., b).  ``grad``, if given, takes the same arguments and gives the
    values (..., b), equal to ``evaluate``'s, together with the exact local
    partials (..., b, m + 1) with respect to (own cash, children), from the
    one solve or one set of exponentials both need; without it the partials
    are central differences.
    ``dual(data, theta, psi)`` is the closed-form one-step dual at one node,
    given that node's parameters as a block of one (b = 1), if any.
    ``vertices(data)``, for a polyhedral one-step (the minimum of linear
    functionals of (own cash, children)), gives the vertices (b, v, m + 1)
    of its dual domain: the operator is the minimum of ``q . k`` over them.
    ``gamma``, for an exponential one-step, is its risk aversion, with
    ``data[0]`` the log-weights log w of (own cash, children), unnormalized:
    the operator is ``-log sum w exp(-gamma k) / gamma``.
    """

    evaluate: Callable
    descriptor: str = ""
    smooth: bool = True
    dual: Callable | None = None
    grad: Callable | None = None
    vertices: Callable | None = None
    gamma: float | None = None

    def evaluate_with_partials(self, data, k_x, k_children) -> tuple[np.ndarray, np.ndarray]:
        """Values (..., b) and local partials (..., b, m + 1) from one call:
        ``grad`` where the kernel has one, else ``evaluate`` followed by
        ``partials``."""
        if self.grad is not None:
            return self.grad(data, k_x, k_children)
        return self.evaluate(data, k_x, k_children), self.partials(data, k_x, k_children)

    def partials(self, data, k_x, k_children) -> np.ndarray:
        """Local partials (..., b, m + 1) of the operator with respect to
        (own cash, children): ``grad``'s where the kernel has one, else
        central differences with relative step ``PARTIALS_STEP``, all
        2 (m + 1) probes in one evaluation."""
        if self.grad is not None:
            return self.grad(data, k_x, k_children)[1]
        z = np.concatenate([k_x[..., None], k_children], axis=-1)
        width = z.shape[-1]
        h = PARTIALS_STEP * np.maximum(1.0, np.abs(z))
        bump = np.eye(width) * h[..., None, :]                  # (..., b, m + 1, m + 1)
        probes = z[..., None, :] + np.concatenate([bump, -bump], axis=-2)
        probes = np.moveaxis(probes, -2, 0)                     # (2 (m + 1), ..., b, m + 1)
        vals = self.evaluate(data, probes[..., 0], probes[..., 1:])
        return np.moveaxis(vals[:width] - vals[width:], 0, -1) / (2.0 * h)

    def one_step(self, data) -> OneStepValuation:
        """The operator at one node, from that node's parameters as a block
        of one: the kernel on a node axis of length 1."""

        def evaluate(k_x, k_children):
            k_x, k_children = np.asarray(k_x, dtype=float), np.asarray(k_children, dtype=float)
            return self.evaluate(data, k_x[..., None], k_children[..., None, :])[..., 0]

        dual = None if self.dual is None else partial(self.dual, data)
        return OneStepValuation(evaluate, self.descriptor, dual, self.smooth)


def _take(data, index):
    """Index the node axis of (nested tuples of) per-node parameters."""
    return tuple(_take(d, index) for d in data) if isinstance(data, tuple) else data[index]


def _width(data) -> int:
    """Floats per node of the widest array of (nested tuples of) per-node
    parameters."""
    return max((_width(d) if isinstance(d, tuple) else d.size // d.shape[0] for d in data), default=0)


@dataclass(frozen=True, slots=True)
class Block:
    """The nodes of one tree level that share a kernel and a child count:
    ``kids[j]`` are the children of ``nodes[j]`` and
    ``_take(data, slice(j, j + 1))`` its parameters."""

    kernel: Kernel
    data: tuple
    nodes: np.ndarray
    kids: np.ndarray
    width: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "width", max(self.kids.shape[1] + 1, _width(self.data)))

    def parts(self, step: int):
        """(data, nodes, kids) of consecutive runs of at most ``step`` nodes."""
        if step >= self.nodes.size:
            return ((self.data, self.nodes, self.kids),)
        return [(_take(self.data, slice(s, s + step)), self.nodes[s:s + step], self.kids[s:s + step])
                for s in range(0, self.nodes.size, step)]


def probability_rows(q, *, positive: bool = False) -> np.ndarray:
    """Whether each vector along the last axis of q has nonnegative (with
    ``positive``, strictly positive) entries summing to 1 within 1e-9.  Both
    tests are written so that NaN fails them and an infinite entry fails
    the sum."""
    q = np.asarray(q, dtype=float)
    return (q > 0 if positive else q >= 0).all(axis=-1) & (np.abs(q.sum(axis=-1) - 1.0) <= 1e-9)


def is_probability(q, *, positive: bool = False) -> bool:
    """Whether the vector q is a probability (``probability_rows``)."""
    return bool(probability_rows(q, positive=positive))


def linear_one_step(child_weights) -> OneStepValuation:
    """Expectation over the children with the given probability weights."""
    w = np.asarray(child_weights, dtype=float)
    if not is_probability(w):
        raise ValidationError("child weights must be a probability vector")

    def evaluate(k_x, k_children):
        return np.asarray(k_children, dtype=float) @ w

    return OneStepValuation(evaluate, descriptor=f"linear({w.tolist()})")


class ValuationFamily:
    """Per-node valuation operators assembled by backward induction, stored
    as level blocks ordered from the deepest internal level up.

    ``build()`` returns the blocks; it runs on the first sweep, so a family
    that is never swept holds only its parameters."""

    def __init__(self, tree: Tree, build: Callable[[], list[Block]], *, descriptor: str = "",
                 dual_closed=None):
        if not callable(build):
            raise ValidationError("ValuationFamily(tree, build) takes a callable that returns level "
                                  "blocks; build a family from one-step operators with assemble")
        self.tree = tree
        self._build = build
        self.descriptor = descriptor
        # Optional closed-form dual: callable (node_id, density mapping) -> float.
        self.dual_closed = dual_closed

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._build())

    @cached_property
    def one_steps(self) -> tuple[OneStepValuation | None, ...]:
        """The one-step operator of every node (None at leaves), built from
        the blocks on first read; a family that is only swept never
        builds them."""
        steps: list[OneStepValuation | None] = [None] * self.tree.n_nodes
        for block in self.blocks:
            for j, u in enumerate(block.nodes.tolist()):
                steps[u] = block.kernel.one_step(_take(block.data, slice(j, j + 1)))
        return tuple(steps)

    def _parts(self, block: Block, rows: int):
        """The block cut so that no temporary holds more than about
        ``CHUNK_FLOATS`` floats at ``rows`` rows."""
        return block.parts(max(1, CHUNK_FLOATS // (rows * block.width)))

    def node_values(self, values: np.ndarray) -> np.ndarray:
        """Valuation of every node for cash values of shape (..., n_nodes):
        the balance copied (the leaves' values), then one kernel call per
        block and chunk of at most about ``CHUNK_FLOATS`` temporaries."""
        out = np.array(values, dtype=float)
        rows = max(1, out.size // self.tree.n_nodes)
        for block in self.blocks:
            for data, nodes, kids in self._parts(block, rows):
                out[..., nodes] = block.kernel.evaluate(data, out[..., nodes], out[..., kids])
        return out

    def values_and_gradient(self, values: np.ndarray, xi: int) -> tuple[np.ndarray, np.ndarray]:
        """Node values and the gradient of node xi's value with respect to
        the cash, for cash values of shape (..., n_nodes).

        One forward sweep, in the chunks of ``node_values``, keeps the local
        partials of every chunk that holds a node of xi's subtree, from the
        same kernel call as its values (``Kernel.evaluate_with_partials``);
        the chunks above xi are only evaluated.  Then the reverse sweep,
        which calls no kernel: an adjoint seeded with 1 at xi visits the
        kept chunks from the top level down, and each node hands its adjoint
        times its local partials to its children (the children inside a
        chunk are distinct, so one scatter-add per chunk is exact).  A
        node's gradient is its adjoint times its own-cash partial, a leaf's
        is its adjoint."""
        out = np.array(values, dtype=float)
        rows = max(1, out.size // self.tree.n_nodes)
        inside = np.zeros(self.tree.n_nodes, dtype=bool)
        inside[self.tree.descendant_indices(xi)] = True
        kept = []
        for block in self.blocks:
            for data, nodes, kids in self._parts(block, rows):
                if np.count_nonzero(inside[nodes]):
                    out[..., nodes], p = block.kernel.evaluate_with_partials(data, out[..., nodes], out[..., kids])
                    kept.append((nodes, kids, p))
                else:
                    out[..., nodes] = block.kernel.evaluate(data, out[..., nodes], out[..., kids])
        adjoint, grad = np.zeros(out.shape), np.zeros(out.shape)
        adjoint[..., xi] = 1.0
        for nodes, kids, p in reversed(kept):
            flow = adjoint[..., nodes, None] * p
            grad[..., nodes] = flow[..., 0]
            adjoint[..., kids] += flow[..., 1:]
        leaves = self.tree.is_leaf
        grad[..., leaves] = adjoint[..., leaves]
        return out, grad

    def value(self, x: str, balance: CashBalance) -> float:
        if balance.tree is not self.tree:
            raise ValidationError("cash balance built on a different tree")
        return float(self.node_values(balance.values)[self.tree.node_index(x)])

    def __repr__(self) -> str:
        return f"ValuationFamily({self.descriptor or 'custom'}, n_nodes={self.tree.n_nodes})"


def kernel_family(tree: Tree, kernel: Kernel, data: Callable, **kwargs) -> ValuationFamily:
    """Family with one kernel at every internal node: ``data(nodes, kids)``
    gives the stacked parameters of the nodes of one level group."""
    return ValuationFamily(tree, lambda: [Block(kernel, data(nodes, kids), nodes, kids)
                                          for nodes, kids in tree.level_groups], **kwargs)


def kernel_step(tree: Tree, kernel: Kernel, data: Callable, x: str) -> OneStepValuation:
    """The one-step operator of ``kernel_family(tree, kernel, data)`` at x."""
    xi = tree.node_index(x)
    if tree.is_leaf[xi]:
        raise ValidationError(f"{x!r} is a leaf; one-step operators live on internal nodes")
    return kernel.one_step(data(np.array([xi]), np.array([tree.children_index[xi]])))


def _step_kernel(step: OneStepValuation) -> Kernel:
    """A custom one-step operator as the kernel of a one-node block."""

    def evaluate(data, k_x, k_children):
        return np.asarray(step.evaluate(k_x[..., 0], k_children[..., 0, :]), dtype=float)[..., None]

    dual = None if step.dual is None else (lambda data, theta, psi: step.dual(theta, psi))
    return Kernel(evaluate, step.descriptor, step.smooth, dual)


def assemble(tree: Tree, one_steps: Mapping[str, OneStepValuation], **kwargs) -> ValuationFamily:
    """Build the family of per-node operators from one-step operators
    (total on internal nodes); each is a block of one node."""
    steps: dict[int, OneStepValuation] = {}
    for node_id, op in one_steps.items():
        i = tree.node_index(node_id)
        if tree.is_leaf[i]:
            raise ValidationError(f"one-step operator given for leaf {node_id!r}")
        steps[i] = op
    for i in tree.internal_indices():
        if i not in steps:
            raise ValidationError(f"missing one-step operator for node {tree.ids[i]!r}")
    order = sorted(steps, key=lambda u: (-tree.time[u], u))
    blocks = [Block(_step_kernel(steps[u]), (), np.array([u]), np.array([tree.children_index[u]]))
              for u in order]
    return ValuationFamily(tree, lambda: blocks, **kwargs)


def _one_step_sups(lift, descriptor: str, smooth: bool, tree: Tree, opts, data, k_x, k_children):
    """Values, maximizers and convergence flags of the one-step sups of a
    block, all rows and nodes at once through ``optim.sup_rows`` with the
    tolerances of ``opts``; data: (lift data, nodes).  ``lift(lift data,
    k_x (r, b), k_children (r, b, m))`` gives the objective in the search
    variable (..., r, b, d), its value and gradient from one call, the
    partials in (own cash, children) at a fixed search point, and the
    start, all broadcasting over leading axes.  A sup that runs away raises
    a divergence error naming its node, with the direction."""
    lift_data, nodes = data
    lead, (b, m) = np.shape(k_children)[:-2], np.shape(k_children)[-2:]
    k_x, k_children = np.reshape(k_x, (-1, b)), np.reshape(k_children, (-1, b, m))
    value, value_and_gradient, _, z0 = lift(lift_data, k_x, k_children)

    def row(i: int):
        r, j = divmod(i, b)
        f, fg, _, _ = lift(_take(lift_data, slice(j, j + 1)), k_x[r, j:j + 1], k_children[r, j:j + 1])

        def at(z):
            fz, gz = fg(z[None, None, :])
            return float(fz[0, 0]), gz[0, 0]

        return lambda batch: f(batch[:, None, :])[:, 0], at

    z, values, fallback = sup_rows(value, value_and_gradient, z0, smooth=smooth,
                                   gradient_tolerance=opts.gradient_tolerance, max_iterations=opts.max_iterations,
                                   row=row)
    converged = np.ones(values.shape, dtype=bool)
    for i, res in fallback.items():
        if res.diverged:
            raise DivergenceError(f"the one-step sup of {descriptor} at {tree.ids[nodes[i % b]]!r} is unbounded",
                                  direction=res.direction)
        converged.flat[i] = res.converged
    return values.reshape(lead + (b,)), z.reshape(lead + z0.shape[1:]), converged.reshape(lead + (b,))


def _sup_kernel(lift, descriptor: str, smooth: bool, tree: Tree, opts) -> Kernel:
    """The kernel of ``_one_step_sups``: its partials are the lift's at the
    maximizer (the envelope theorem), from the solve that gave the values,
    where the objective is smooth; central differences where it is kinked,
    as a kink's partials need not be the sup's."""
    solve = partial(_one_step_sups, lift, descriptor, smooth, tree, opts)

    def evaluate(data, k_x, k_children):
        return solve(data, k_x, k_children)[0]

    def grad(data, k_x, k_children):
        values, z, _ = solve(data, k_x, k_children)
        return values, lift(data[0], k_x, k_children)[2](z)

    return Kernel(evaluate, descriptor, smooth, grad=grad if smooth else None)


def _committed(inner: Kernel) -> Kernel:
    """``inner`` re-based: data (inner data, C at the nodes, pi(C) at the
    children, pi(C) at the nodes)."""

    def evaluate(data, k_x, k_children):
        inner_data, cash, base_kids, base = data
        return inner.evaluate(inner_data, k_x + cash, k_children + base_kids) - base

    def grad(data, k_x, k_children):
        inner_data, cash, base_kids, base = data
        values, partials = inner.evaluate_with_partials(inner_data, k_x + cash, k_children + base_kids)
        return values - base, partials

    return Kernel(evaluate, f"committed({inner.descriptor})", inner.smooth, grad=grad)


def committed_family(family: ValuationFamily, commitment: CashBalance) -> ValuationFamily:
    """Valuations re-based at a prior commitment C: the value of (balance +
    C) minus the value of C, from the one-step operators
    ``step_u(a + C_u, v + pi_children(C)) - pi_u(C)``.  Satisfies the same
    axioms as the underlying family; committing to the zero balance
    normalizes a family to vanish at zero."""
    if commitment.tree is not family.tree:
        raise ValidationError("commitment built on a different tree")
    cash, base = commitment.values, family.node_values(commitment.values)
    return ValuationFamily(family.tree, lambda: [
        Block(_committed(b.kernel), (b.data, cash[b.nodes], base[b.kids], base[b.nodes]), b.nodes, b.kids)
        for b in family.blocks], descriptor=f"committed({family.descriptor or 'custom'})")


def value_at(family, stop: StoppingTime, balance: CashBalance) -> dict[str, float]:
    """Valuation along a stopping time: the node operator of each graph node."""
    tree = family.tree
    for node_id in stop.graph:
        tree.node_index(node_id)
    vals = family.node_values(balance.values)
    return {node_id: float(vals[tree.node_index(node_id)]) for node_id in sorted(stop.graph)}


def sample_stop_masks(tree: Tree, rng: np.random.Generator, trials: int, *,
                      start: str | None = None, stop_probability: float = 0.35) -> np.ndarray:
    """Graph masks (trials, n_nodes) of random stopping times of the subtree
    at start, drawn in one batch: every internal node of the subtree is
    flagged with the given probability, every leaf always, and each path
    stops at its first flagged node.  Paths that miss start stop at their
    leaf."""
    flagged = (rng.uniform(size=(trials, tree.n_nodes)) < stop_probability) | tree.is_leaf
    if start is not None:
        inside = np.zeros(tree.n_nodes, dtype=bool)
        inside[tree.descendant_indices(tree.node_index(start))] = True
        flagged &= inside | tree.is_leaf
    at = stop_index(tree, flagged)
    parent = tree.parent_index
    return flagged & ((parent < 0) | (at[:, parent] < 0))


def _graph_ids(tree: Tree, mask: np.ndarray) -> list[str]:
    return sorted(tree.ids[i] for i in np.flatnonzero(mask))


def sample_stopping_time(tree: Tree, rng: np.random.Generator, *, start: str | None = None,
                         stop_probability: float = 0.35) -> StoppingTime:
    """One draw of ``sample_stop_masks``: each internal node of the subtree
    at start stops with the given probability, leaves always stop.  Paths
    that miss start stop at their leaf."""
    mask = sample_stop_masks(tree, rng, 1, start=start, stop_probability=stop_probability)[0]
    return stopping_time(tree, _graph_ids(tree, mask))


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    worst_residual: float
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {"passed": self.passed, "worst_residual": self.worst_residual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class AxiomReport:
    checks: list[AxiomCheck]
    trials: int
    seed: int
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max(c.worst_residual for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "axioms": {c.name: c.as_dict() for c in self.checks},
        }


def _cash_witness(tree: Tree, row: np.ndarray) -> dict[str, float]:
    return {node_id: float(v) for node_id, v in zip(tree.ids, row)}


def _max_with_witness(residual: np.ndarray) -> tuple[float, tuple[int, ...]]:
    worst = float(residual.max())
    where = np.unravel_index(int(np.argmax(residual)), residual.shape)
    return worst, where


def check_axioms(family, trials: int, seed: int, *,
                 tolerance: float = DEFAULT_AXIOM_TOLERANCE,
                 cash_range: tuple[float, float] = (-5.0, 5.0)) -> AxiomReport:
    """Fuzz the valuation axioms on seeded random cash balances and stopping
    times.  Failures are reported with witnesses, never raised.

    Checked per node: concavity at midpoints, monotonicity, translation
    invariance, zero at zero, locality (off-subtree edits are invisible), and
    the pasting identity for sampled stopping times.  The stopping-time
    dispatch identity is structural (valuations along a stopping time call
    the node operators) and is asserted as such.  The balances of all trials
    and axioms go through three sweeps: one of the drawn balances and the
    zero balance, one of the pasted and perturbed balances built from the
    first's values, and the ``value_at`` dispatch; the sweep count does not
    grow with ``trials``.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    tree = family.tree
    n = tree.n_nodes
    rng = np.random.default_rng(seed)
    low, high = cash_range

    cash_a = rng.uniform(low, high, (trials, n))
    cash_b = rng.uniform(low, high, (trials, n))
    drop = rng.uniform(0.0, 2.0, (trials, n))
    shift = rng.uniform(-3.0, 3.0, (trials, 1))
    members = sample_stop_masks(tree, rng, trials)
    local_nodes = rng.integers(0, n, trials)
    local_noise = rng.uniform(-1.0, 1.0, (trials, n))

    swept = family.node_values(np.concatenate([cash_a, cash_b, 0.5 * (cash_a + cash_b), cash_a - drop,
                                               cash_a + shift, np.zeros((1, n))]))
    pi_a, pi_b, pi_mid, pi_drop, pi_shift = swept[:-1].reshape(5, trials, n)
    pi_zero = swept[-1]

    checks: list[AxiomCheck] = []

    def add(name, residual_matrix, witness_fn):
        worst, where = _max_with_witness(residual_matrix)
        passed = worst <= tolerance
        witness = witness_fn(where) if not passed else None
        checks.append(AxiomCheck(name, passed, worst, witness))

    # concavity at midpoints
    conc = np.maximum(0.5 * (pi_a + pi_b) - pi_mid, 0.0)
    add("C", conc, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
        "cash_other": _cash_witness(tree, cash_b[w[0]]),
    })

    # monotonicity: cash_a dominates cash_a - drop nodewise
    mono = np.maximum(pi_drop - pi_a, 0.0)
    add("M", mono, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
        "cash_lower": _cash_witness(tree, (cash_a - drop)[w[0]]),
    })

    # translation invariance for a constant added on the whole subtree
    trans = np.abs(pi_shift - pi_a - shift)
    add("TI", trans, lambda w: {
        "node": tree.ids[w[1]],
        "shift": float(shift[w[0], 0]),
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    add("Z", np.abs(pi_zero)[None, :], lambda w: {"node": tree.ids[w[1]]})

    # pasting: exchanging the continuation after sigma for its valuation is
    # invisible at every node with no strict ancestor in sigma; locality:
    # perturbing the balance off a node's subtree leaves the whole
    # subtree's valuations untouched.  Both balances need pi_a, and go
    # through the second sweep together.
    at = stop_index(tree, members)
    pasted = np.where(at >= 0, np.take_along_axis(pi_a, np.maximum(at, 0), axis=1), cash_a)
    inside = stop_index(tree, local_nodes[:, None] == np.arange(n)) >= 0
    perturbed = np.where(inside, cash_a, cash_a + local_noise)
    pi_pasted, pi_perturbed = family.node_values(np.concatenate([pasted, perturbed])).reshape(2, trials, n)

    parent = tree.parent_index
    before = (parent < 0) | (at[:, parent] < 0)
    dc_res = np.where(before, np.abs(pi_pasted - pi_a), 0.0)
    add("DC", dc_res, lambda w: {
        "node": tree.ids[w[1]],
        "sigma": _graph_ids(tree, members[w[0]]),
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    loc_res = np.where(inside, np.abs(pi_perturbed - pi_a), 0.0)
    add("L", loc_res, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    # consistent localisation is the construction identity: valuations along
    # a stopping time dispatch to the node operators
    sigma = StoppingTime(frozenset(_graph_ids(tree, members[0])))
    dispatch = value_at(family, sigma, CashBalance(tree, cash_a[0]))
    cl_worst = max(abs(dispatch[z] - pi_a[0, tree.node_index(z)]) for z in dispatch)
    checks.append(AxiomCheck("CL", cl_worst <= tolerance, cl_worst, None))

    return AxiomReport(checks=checks, trials=trials, seed=seed, tolerance=tolerance)

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
A kernel reads each node's own cash and child values as one stacked
outcome array (..., b, m + 1), which a sweep gathers with one ``take``
through the block's ``[nodes | kids]`` index; the one-step operators split
or stack at their boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DivergenceError, ValidationError, check_count, check_number, check_numbers, check_tolerance
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
    child values to one number (kernels take the two stacked as one
    outcome array; ``Kernel.one_step`` stacks them at this boundary).
    ``dual`` is the optional closed-form convex conjugate on probability
    vectors over (node, children), used to verify the dual recursion
    without an inner optimization.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = ""
    dual: Callable[[float, np.ndarray], float] | None = None
    smooth: bool = True


@dataclass(frozen=True, slots=True)
class Kernel:
    """A one-step operator written once for many nodes.

    ``evaluate(data, k)`` takes per-node parameters ``data`` (a tuple of
    arrays, node axis first) and broadcasts them against the trailing axes
    of the stacked outcomes ``k`` (..., b, m + 1), each node's own cash
    followed by its children's values, giving (..., b).  ``evaluate``,
    ``grad`` and ``solve`` may overwrite ``k``, which the sweeps gather
    afresh for every call: the exponential kernel computes in place on it.
    ``grad``, if given, takes the same arguments and gives the values
    (..., b), equal to ``evaluate``'s, together with the exact local
    partials (..., b, m + 1) with respect to (own cash, children), from the
    one solve or one set of exponentials both need; without it
    ``evaluate_with_partials`` takes central differences.
    ``dual(data, theta, psi)`` is the closed-form one-step dual at one node,
    given that node's parameters as a block of one (b = 1), if any.
    ``rule(data)``, for a kernel of the rule class that pooling and
    hedging preserve, gives its description (gamma, log w, vertices): the
    operator is the minimum over q in the hull of the vertices (b, v, m + 1)
    of ``q . k + sum q (log q - log w) / gamma``, vertices None meaning the
    whole simplex, where it is ``-log sum w exp(-gamma k) / gamma`` for
    log-weights log w (b, m + 1), unnormalized.  gamma = inf, with log w
    None, is a polyhedral one-step, the minimum of ``q . k`` over the
    vertices.
    ``solve``, where the values come from a solve, gives ``evaluate``'s
    values with the maximizer (..., b, ...), such as a hedge's positions,
    and whether each node's solve converged (..., b).
    """

    evaluate: Callable
    descriptor: str = ""
    smooth: bool = True
    dual: Callable | None = None
    grad: Callable | None = None
    rule: Callable | None = None
    solve: Callable | None = None

    def evaluate_with_partials(self, data, k) -> tuple[np.ndarray, np.ndarray]:
        """Values (..., b) and local partials (..., b, m + 1) of the
        operator with respect to (own cash, children): ``grad`` where the
        kernel has one, else ``evaluate`` (on a copy of k, which it may
        overwrite) and central differences with relative step
        ``PARTIALS_STEP``, all 2 (m + 1) probes in one more evaluation."""
        if self.grad is not None:
            return self.grad(data, k)
        values, width = self.evaluate(data, k.copy()), k.shape[-1]
        h = PARTIALS_STEP * np.maximum(1.0, np.abs(k))
        bump = np.eye(width) * h[..., None, :]                  # (..., b, m + 1, m + 1)
        probes = k[..., None, :] + np.concatenate([bump, -bump], axis=-2)
        vals = self.evaluate(data, np.moveaxis(probes, -2, 0))  # probes (2 (m + 1), ..., b, m + 1)
        return values, np.moveaxis(vals[:width] - vals[width:], 0, -1) / (2.0 * h)

    def one_step(self, data) -> OneStepValuation:
        """The operator at one node, from that node's parameters as a block
        of one: the kernel on a node axis of length 1, own cash and child
        values stacked (and broadcast) into its outcome array."""

        def evaluate(k_x, k_children):
            k_x, k_children = np.asarray(k_x, dtype=float), np.asarray(k_children, dtype=float)
            k = np.empty(np.broadcast_shapes(k_x.shape, k_children.shape[:-1]) + (1, k_children.shape[-1] + 1))
            k[..., 0, 0], k[..., 0, 1:] = k_x, k_children
            return self.evaluate(data, k)[..., 0]

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
    ``_take(data, slice(j, j + 1))`` its parameters.  ``take`` is
    ``[nodes | kids]`` (b, m + 1), the index that gathers the kernel's
    stacked outcomes from a row of node values: ``Tree.level_takes``' for
    a family's level blocks, passed on by the blocks derived from a whole
    block, of which ``kids`` is then a view; built here where not given."""

    kernel: Kernel
    data: tuple
    nodes: np.ndarray
    kids: np.ndarray
    take: np.ndarray | None = field(default=None, repr=False)
    width: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "width", max(self.kids.shape[1] + 1, _width(self.data)))
        if self.take is None:
            object.__setattr__(self, "take", np.concatenate([self.nodes[:, None], self.kids], axis=1))

    def parts(self, step: int):
        """(data, nodes, take) of consecutive runs of at most ``step`` nodes."""
        if step >= self.nodes.size:
            return ((self.data, self.nodes, self.take),)
        return [(_take(self.data, slice(s, s + step)), self.nodes[s:s + step], self.take[s:s + step])
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
    w = check_numbers("child weights", child_weights)
    if w.ndim != 1 or not is_probability(w):
        raise ValidationError("child weights must be a probability vector")

    def evaluate(k_x, k_children):
        return np.asarray(k_children, dtype=float) @ w

    return OneStepValuation(evaluate, descriptor=f"linear({w.tolist()})")


def derived(owner, kind: str, key, build: Callable):
    """The object that ``build()`` makes from ``owner`` and ``key``, made
    once per key: the one kept from the last call of this kind is returned
    while its key equals ``key``, else ``build()`` runs and its result
    takes that place.  One entry per owner and kind, kept in the owner's
    ``__dict__`` (a frozen dataclass's too), so nothing grows and an entry
    is freed with its owner; a build that raises keeps nothing.
    Keys compare with ``==``: markets, parameters and families by
    identity, solver options by value.  Only for objects built from
    read-only inputs, such as the hedged and pooled families."""
    memo = vars(owner).setdefault("_derived", {})
    kept = memo.get(kind)
    if kept is not None and kept[0] == key:
        return kept[1]
    made = build()
    memo[kind] = (key, made)
    return made


class ValuationFamily:
    """Per-node valuation operators assembled by backward induction, stored
    as level blocks ordered from the deepest internal level up.

    ``build()`` returns the blocks; it runs on the first sweep, so a family
    that is never swept holds only its parameters.  A family derived from
    this one and read-only inputs (its hedge against a market, its pool
    with other subsidiaries) is built once per inputs and kept on it by
    ``derived``, blocks included, so later calls at other balances reuse
    it."""

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

    def _cash(self, values) -> tuple[np.ndarray, int]:
        """A copy of the cash values (..., n_nodes), which a sweep overwrites
        with the node values, and its number of rows; a last axis of
        another length is a validation error."""
        out = np.array(values, dtype=float)
        if out.shape[-1:] != (self.tree.n_nodes,):
            raise ValidationError(f"cash values must end in an axis of {self.tree.n_nodes} nodes "
                                  f"(got shape {out.shape})")
        return out, max(1, out.size // self.tree.n_nodes)

    def _parts(self, block: Block, rows: int):
        """The block cut so that no temporary holds more than about
        ``CHUNK_FLOATS`` floats at ``rows`` rows."""
        return block.parts(max(1, CHUNK_FLOATS // (rows * block.width)))

    def node_values(self, values: np.ndarray) -> np.ndarray:
        """Valuation of every node for cash values of shape (..., n_nodes):
        the balance copied (the leaves' values), then one kernel call per
        block and chunk of at most about ``CHUNK_FLOATS`` temporaries, on
        the chunk's outcomes gathered by one ``take`` through its
        ``Block.take`` (C-ordered, unlike ``out[..., take]``)."""
        out, rows = self._cash(values)
        for block in self.blocks:
            for data, nodes, take in self._parts(block, rows):
                out[..., nodes] = block.kernel.evaluate(data, out.take(take, axis=-1))
        return out

    def values_and_maximizers(self, values: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
        """Node values, equal to ``node_values``' and swept in its chunks,
        with (block, maximizer, converged) for every block whose kernel has
        a ``solve``, which then gives the block's values; a block's
        maximizers and flags are joined over its chunks on the node axis."""
        out, rows = self._cash(values)
        solved = []
        for block in self.blocks:
            kernel, found = block.kernel, []
            for data, nodes, take in self._parts(block, rows):
                if kernel.solve is None:
                    out[..., nodes] = kernel.evaluate(data, out.take(take, axis=-1))
                else:
                    out[..., nodes], *part = kernel.solve(data, out.take(take, axis=-1))
                    found.append(part)
            if found:
                solved.append((block, *(f[0] if len(f) == 1 else np.concatenate(f, axis=out.ndim - 1)
                                        for f in zip(*found))))
        return out, solved

    def values_and_gradient(self, values: np.ndarray, xi: int | Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Node values and the gradient of node xi's value with respect to
        the cash, for cash values of shape (..., n_nodes); for a sequence of
        nodes xi, their gradients (len(xi), ..., n_nodes) from one sweep.

        One forward sweep, in the chunks of ``node_values``, keeps the local
        partials of every chunk that holds a node of a subtree at xi, from
        the same kernel call as its values (``Kernel.evaluate_with_partials``);
        the other chunks, none when the root is among the xi, are only
        evaluated.  Then the reverse sweep, which
        calls no kernel: an adjoint seeded with 1 at xi (one adjoint per
        node of a sequence) visits the kept chunks from the top level down,
        and each node hands its adjoint times its local partials to itself
        and its children, scattered through the chunk's ``Block.take`` (no
        node of a chunk is also one of its kids, and both are distinct, so
        one scatter per chunk is exact).  A kid's adjoint comes only from
        its parent's chunk, which runs first, so with one seed the kids
        hold nothing yet; with a sequence, a seed may sit at a kid, and the
        kids' adjoints are added to what is handed on.  A single seed
        whose chunk holds it alone hands on its partials as they stand (its
        adjoint is 1), as at the root.  A node's gradient is its adjoint
        times its own-cash partial, which takes the adjoint's place once
        handed on; a leaf's is its adjoint."""
        out, rows = self._cash(values)
        seeds = (len(xi),) if hasattr(xi, "__len__") else ()
        tops = xi if seeds else (xi,)
        inside = None   # with the root among the xi, every chunk is kept
        if self.tree.root_index not in tops:
            inside = np.zeros(self.tree.n_nodes, dtype=bool)
            for i in tops:
                inside[self.tree.descendant_indices(i)] = True
        kept = []
        for block in self.blocks:
            for data, nodes, take in self._parts(block, rows):
                if inside is None or np.count_nonzero(inside[nodes]):
                    out[..., nodes], p = block.kernel.evaluate_with_partials(data, out.take(take, axis=-1))
                    kept.append((nodes, take, p))
                else:
                    out[..., nodes] = block.kernel.evaluate(data, out.take(take, axis=-1))
        grad = np.zeros(seeds + out.shape)
        if seeds:
            np.moveaxis(grad, -1, 1)[np.arange(len(xi)), xi] = 1.0
        elif kept and kept[-1][0].tolist() == [xi]:   # the top chunk is xi alone
            _, take, p = kept.pop()
            grad[..., take] = p
        else:
            grad[..., xi] = 1.0
        for nodes, take, p in reversed(kept):
            flow = grad.take(nodes, axis=-1)[..., None] * p
            if seeds:
                flow[..., 1:] += grad.take(take[:, 1:], axis=-1)
            grad[..., take] = flow
        return out, grad

    def value(self, x: str, balance: CashBalance) -> float:
        if balance.tree is not self.tree:
            raise ValidationError("cash balance built on a different tree")
        return float(self.node_values(balance.values)[self.tree.node_index(x)])

    def __repr__(self) -> str:
        return f"ValuationFamily({self.descriptor or 'custom'}, n_nodes={self.tree.n_nodes})"


def kernel_family(tree: Tree, kernel: Kernel, levels, **kwargs) -> ValuationFamily:
    """Family with one kernel at every internal node: ``levels`` yields each
    ``tree.level_groups`` entry's block data, read on the first sweep."""
    return ValuationFamily(tree, lambda: [Block(kernel, data, nodes, kids, take) for data, (nodes, kids), take
                                          in zip(levels, tree.level_groups, tree.level_takes)], **kwargs)


def kernel_step(tree: Tree, kernel: Kernel, levels, x: str) -> OneStepValuation:
    """The one-step operator of ``kernel_family(tree, kernel, levels)`` at x."""
    xi = tree.node_index(x)
    if tree.is_leaf[xi]:
        raise ValidationError(f"{x!r} is a leaf; one-step operators live on internal nodes")
    for data, (nodes, _) in zip(levels, tree.level_groups):
        row = np.flatnonzero(nodes == xi)
        if row.size:
            return kernel.one_step(_take(data, slice(row[0], row[0] + 1)))


def _step_kernel(step: OneStepValuation) -> Kernel:
    """A custom one-step operator as the kernel of a one-node block, given
    own cash and child values apart, as views of the stacked outcomes."""

    def evaluate(data, k):
        return np.asarray(step.evaluate(k[..., 0, 0], k[..., 0, 1:]), dtype=float)[..., None]

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


def _one_step_sups(lift, descriptor: str, smooth: bool, tree: Tree, opts, data, k):
    """Values, maximizers and convergence flags of the one-step sups of a
    block, all rows and nodes at once through ``optim.sup_rows`` with the
    tolerances of ``opts``; data: (lift data, nodes) or (lift data, nodes,
    attained), attained False at a node whose sup the search point only
    approaches as it runs away, which is then flagged unconverged.
    ``lift(lift data, k (r, b, m + 1))`` gives the objective in the search
    variable (..., r, b, d), its value and gradient from one call, the
    partials in (own cash, children) at a fixed search point, and the
    start, all broadcasting over leading axes.  A sup that
    runs away raises a divergence error naming its node, with the
    direction."""
    lift_data, nodes = data[:2]
    attained = data[2] if len(data) > 2 else True
    lead, b = k.shape[:-2], k.shape[-2]
    k = k.reshape((-1,) + k.shape[-2:])
    value, value_and_gradient, _, z0 = lift(lift_data, k)

    def row(i: int):
        r, j = divmod(i, b)
        f, fg, _, _ = lift(_take(lift_data, slice(j, j + 1)), k[r, j:j + 1])

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
    return values.reshape(lead + (b,)), z.reshape(lead + z0.shape[1:]), converged.reshape(lead + (b,)) & attained


def _sup_kernel(lift, descriptor: str, smooth: bool, tree: Tree, opts) -> Kernel:
    """The kernel of ``_one_step_sups``, its ``solve``: its partials are the
    lift's at the maximizer (the envelope theorem), from the solve that
    gave the values, where the objective is smooth; central differences
    where it is kinked, as a kink's partials need not be the sup's."""
    solve = partial(_one_step_sups, lift, descriptor, smooth, tree, opts)

    def evaluate(data, k):
        return solve(data, k)[0]

    def grad(data, k):
        values, z, _ = solve(data, k)
        return values, lift(data[0], k)[2](z)

    return Kernel(evaluate, descriptor, smooth, grad=grad if smooth else None, solve=solve)


def _committed(inner: Kernel) -> Kernel:
    """``inner`` re-based: data (inner data, (C at the nodes, pi(C) at the
    children) stacked as the outcomes are, pi(C) at the nodes)."""

    def evaluate(data, k):
        inner_data, shift, base = data
        return inner.evaluate(inner_data, np.add(k, shift, out=k)) - base

    def grad(data, k):
        inner_data, shift, base = data
        values, partials = inner.evaluate_with_partials(inner_data, np.add(k, shift, out=k))
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

    def shift(b: Block) -> np.ndarray:
        out = base[b.take]
        out[:, 0] = cash[b.nodes]
        return out

    return ValuationFamily(family.tree, lambda: [
        Block(_committed(b.kernel), (b.data, shift(b), base[b.nodes]), b.nodes, b.kids, b.take)
        for b in family.blocks], descriptor=f"committed({family.descriptor or 'custom'})")


def value_at(family, stop: StoppingTime, balance: CashBalance) -> dict[str, float]:
    """Valuation along a stopping time: the node operator of each graph node."""
    tree = family.tree
    if balance.tree is not tree:
        raise ValidationError("cash balance built on a different tree")
    vals = family.node_values(balance.values)
    return {node_id: float(vals[tree.node_index(node_id)]) for node_id in sorted(stop.graph)}


def sample_stop_masks(tree: Tree, rng: np.random.Generator, trials: int, *,
                      start: str | None = None, stop_probability: float = 0.35) -> np.ndarray:
    """Graph masks (trials, n_nodes) of random stopping times of the subtree
    at start, drawn in one batch: every internal node of the subtree is
    flagged with the given probability, every leaf always, and each path
    stops at its first flagged node.  Paths that miss start stop at their
    leaf.  The probability must be a number in [0, 1]."""
    p = check_number("stop_probability", stop_probability)
    if not 0.0 <= p <= 1.0:
        raise ValidationError("stop_probability must lie in [0, 1]")
    flagged = (rng.uniform(size=(trials, tree.n_nodes)) < p) | tree.is_leaf
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


def _subtree_masks(tree: Tree, nodes: np.ndarray) -> np.ndarray:
    """Whether each node lies in the subtree at ``nodes[t]``, (len(nodes),
    n_nodes): the subtree at u is the preorder interval that starts at
    ``pre_position[u]`` and holds ``subtree_size[u]`` nodes."""
    offset = tree.pre_position - tree.pre_position[nodes][:, None]
    return (offset >= 0) & (offset < tree.subtree_size[nodes][:, None])


def _cash_witness(tree: Tree, row: np.ndarray) -> dict[str, float]:
    return {node_id: float(v) for node_id, v in zip(tree.ids, row)}


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
    grow with ``trials``.  The stops come from one ``stop_index`` walk, the
    subtrees that locality perturbs around from the preorder intervals
    (``Tree.pre_position``, ``Tree.subtree_size``), and only a failing
    axiom looks up where its worst residual sits.
    """
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    check_tolerance("tolerance", tolerance)
    tree = family.tree
    n = tree.n_nodes
    rng = np.random.default_rng(seed)
    low, high = check_numbers("cash_range", cash_range, (2,))

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
        # the witness, at the worst residual, only for an axiom that fails
        worst = float(residual_matrix.max())
        passed = worst <= tolerance
        witness = None if passed else witness_fn(
            np.unravel_index(int(np.argmax(residual_matrix)), residual_matrix.shape))
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
    # (a node before the stop reads pi_a at index -1, which np.where drops)
    at = stop_index(tree, members)
    pasted = np.where(at >= 0, pi_a[np.arange(trials)[:, None], at], cash_a)
    inside = _subtree_masks(tree, local_nodes)
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

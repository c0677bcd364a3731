import numpy as np
import pytest

from helpers import three_node_tree
from treeval import optim
from treeval.dual import dual_value_and_argmax
from treeval.errors import DomainError
from treeval.families import entropic_family, entropic_params
from treeval.optim import eg_minimize, maximize, newton_ascent, sup, sup_rows


def concave_quadratic(seed: int, d: int = 10, condition: float = 1e4):
    """-(x - c) A (x - c) / 2 with A's eigenvalues spread log-uniformly over
    [1, condition] in a random basis; the batch objective and its
    value-and-gradient callable."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
    a = basis @ np.diag(np.logspace(0.0, np.log10(condition), d)) @ basis.T
    c = rng.normal(size=d)

    def f(batch):
        return -0.5 * np.einsum("bi,ij,bj->b", batch - c, a, batch - c)

    def gradient(x):
        return float(f(x[None, :])[0]), -a @ (x - c)

    return f, gradient, c


class TestMaximize:
    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_quadratic_within_2d_plus_5_iterations(self, seed):
        f, gradient, c = concave_quadratic(seed)
        res = maximize(f, gradient, np.zeros(c.size), gradient_tolerance=1e-8)
        assert res.converged and res.stop_reason == "gradient"
        assert res.iterations <= 2 * c.size + 5
        # the smallest curvature is 1, so the error is at most about the gradient
        assert np.max(np.abs(res.x - c)) <= 1e-7

    def test_records_its_evaluations(self):
        f, gradient, c = concave_quadratic(0)
        rows = [0]

        def counted(batch):
            rows[0] += batch.shape[0]
            return f(batch)

        res = maximize(counted, gradient, np.zeros(c.size), gradient_tolerance=1e-8)
        assert res.evaluations == rows[0]
        assert res.iterations <= res.gradient_evaluations

    def test_recession_direction_diverges_with_its_certificate(self):
        weights = np.array([1.0, -2.0, 0.5])
        res = maximize(lambda b: b @ weights, lambda x: (float(x @ weights), weights), np.zeros(3))
        assert res.diverged and not res.converged and res.stop_reason == "diverged"
        assert np.max(np.abs(res.x)) > 1e6
        assert res.iterations <= 3
        assert np.allclose(res.direction, weights / 2.0)

    def test_downhill_gradient_stops_at_the_line_search(self):
        f, gradient, c = concave_quadratic(1, d=3)

        def wrong(x):
            value, g = gradient(x)
            return value, -g

        res = maximize(f, wrong, np.zeros(3))
        assert res.stop_reason == "line_search" and not res.converged

    def test_iteration_cap(self):
        f, gradient, c = concave_quadratic(2)
        res = maximize(f, gradient, np.zeros(c.size), max_iterations=3)
        assert res.stop_reason == "max_iterations" and not res.converged
        assert res.iterations == 3

    def test_kinked_objective_stalls(self):
        # the subgradient of -|x| keeps its norm at the maximum, so only the
        # stall rule can end the ascent
        def f(batch):
            return -np.abs(batch[:, 0]) - 0.5 * batch[:, 1] ** 2

        def subgradient(x):
            return float(f(x[None, :])[0]), np.array([-np.sign(x[0]), -x[1]])

        res = maximize(f, subgradient, np.array([0.3, 1.0]), value_tolerance=1e-12, max_iterations=500)
        assert res.stop_reason in ("stalled", "gradient")
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_start_is_a_domain_error(self):
        with pytest.raises(DomainError):
            maximize(lambda b: np.full(b.shape[0], np.nan), lambda x: (np.nan, np.zeros(1)), np.zeros(1))


def polyhedral(batch):
    """-max(|x - 1|, 3 |y + 1/2| + x / 5): maximum -1/6 at (5/6, -1/2), on a kink."""
    return -np.maximum(np.abs(batch[:, 0] - 1.0), 3.0 * np.abs(batch[:, 1] + 0.5) + 0.2 * batch[:, 0])


def polyhedral_subgradient(x):
    """``polyhedral`` at x with a subgradient: that of the larger piece."""
    if abs(x[0] - 1.0) >= 3.0 * abs(x[1] + 0.5) + 0.2 * x[0]:
        g = np.array([-np.sign(x[0] - 1.0), 0.0])
    else:
        g = np.array([-0.2, -3.0 * np.sign(x[1] + 0.5)])
    return float(polyhedral(x[None, :])[0]), g


class TestSup:
    def test_smooth_objective_ends_by_bfgs(self):
        f, gradient, c = concave_quadratic(0, d=4, condition=10.0)
        res = sup(f, np.zeros(c.size), smooth=True, gradient_tolerance=1e-8, max_iterations=1000,
                  gradient=gradient)
        assert res.method == "bfgs" and res.stop_reason == "gradient"
        assert np.max(np.abs(res.x - c)) <= 1e-6

    def test_kinked_objective_goes_to_nelder_mead(self):
        res = sup(polyhedral, np.zeros(2), smooth=False, gradient_tolerance=1e-8, max_iterations=1000)
        assert res.method == "nelder-mead" and res.converged
        assert res.value == pytest.approx(-1.0 / 6.0, abs=1e-9)

    def test_a_stalled_ascent_is_finished_by_nelder_mead(self):
        # declared smooth, the kinked objective strands BFGS off the optimum
        res = sup(polyhedral, np.array([1.0, 2.0]), smooth=True, gradient_tolerance=1e-8,
                  max_iterations=1000, gradient=polyhedral_subgradient)
        assert res.method == "bfgs+nelder-mead"
        assert res.value == pytest.approx(-1.0 / 6.0, abs=1e-9)

    def test_recession_direction_diverges(self):
        res = sup(lambda b: b[:, 0] - 0.5 * b[:, 1] ** 2, np.zeros(2), smooth=True,
                  gradient_tolerance=1e-8, max_iterations=1000,
                  gradient=lambda x: (x[0] - 0.5 * x[1] ** 2, np.array([1.0, -x[1]])))
        assert res.diverged and res.method == "bfgs"
        assert res.direction == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("smooth", [True, False])
    def test_empty_batch_search_is_one_evaluation_with_no_fallback(self, smooth):
        def refuse(*args):
            raise AssertionError("an empty search needs no gradient and no row")

        calls = []
        value = lambda z: calls.append(z.shape) or np.arange(6.0).reshape(z.shape[:-1])
        x, fx, fallback = sup_rows(value, refuse, np.zeros((2, 3, 0)), smooth=smooth, gradient_tolerance=1e-8,
                                   max_iterations=1000, row=refuse)
        assert calls == [(2, 3, 0)] and x.shape == (2, 3, 0) and fallback == {}
        assert np.array_equal(fx, np.arange(6.0).reshape(2, 3))

    def test_fallback_maximizers_reach_a_start_that_is_not_c_ordered(self):
        # a start gathered by fancy indexing, as swept[:, kids] gives, or
        # transposed: every kinked row is solved by the fallback, and the
        # rows must return its maximizers, not their start
        c = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 3, 2))

        def row(i):
            return (lambda batch: -np.abs(batch - c.reshape(-1, 2)[i]).sum(axis=-1)), None

        for start in (np.zeros((2, 2, 3)).transpose(0, 2, 1), np.zeros((2, 7))[:, np.array([[0, 1], [2, 3], [4, 5]])]):
            assert not start.flags.c_contiguous
            x, fx, fallback = sup_rows(None, None, start, smooth=False, gradient_tolerance=1e-8,
                                       max_iterations=1000, row=row)
            assert sorted(fallback) == list(range(6))
            assert np.max(np.abs(fx)) <= 1e-9 and np.max(np.abs(x - c)) <= 1e-9


def shifted_quadratic(slope: float):
    """A smooth concave objective of (x0, x1, x2) and its value-and-gradient
    callable for stacks of points: -((x1 - x0 - 1)^2 + (x2 - x0 + 2)^2) / 2
    - slope x0.  With slope 0 it is flat along (1, 1, 1), so its maxima form
    a line; otherwise it has none."""
    calls = []

    def value_and_gradient(points):
        calls.append(points.shape)
        a, b = points[..., 1] - points[..., 0] - 1.0, points[..., 2] - points[..., 0] + 2.0
        grad = np.stack([a + b - slope, -a, -b], axis=-1)
        return -0.5 * (a * a + b * b) - slope * points[..., 0], grad

    return value_and_gradient, calls


class TestNewtonAscent:
    def test_a_held_coordinate_stays_and_the_rest_finish(self):
        value_and_gradient, calls = shifted_quadratic(0.0)
        res = newton_ascent(value_and_gradient, np.array([[0.5, 0.0, 0.0], [-1.0, 3.0, 2.0]]),
                            gradient_tolerance=1e-10, held=1)
        assert res.converged.all() and res.method == "newton"
        assert np.array_equal(res.x[:, 0], [0.5, -1.0])
        assert np.allclose(res.x[:, 1:], [[1.5, -1.5], [0.0, -3.0]], atol=1e-8)
        assert np.all(res.gradient_norm <= 1e-10) and np.all(res.value >= -1e-18)

    def test_one_call_per_trial_point_with_its_stencil(self):
        # a quadratic takes one step: the start and the step, each with its
        # two stencil points for the two searched coordinates
        value_and_gradient, calls = shifted_quadratic(0.0)
        res = newton_ascent(value_and_gradient, np.zeros(3), gradient_tolerance=1e-8, held=1)
        assert res.converged and res.iterations == 1
        assert calls == [(3, 3), (3, 3)] and res.gradient_evaluations == 2

    def test_the_held_coordinate_is_part_of_the_gradient_test(self):
        # the search coordinates settle, but the held one keeps a slope of -1:
        # no maximum, so the row does not finish
        value_and_gradient, _ = shifted_quadratic(1.0)
        res = newton_ascent(value_and_gradient, np.zeros(3), gradient_tolerance=1e-8, held=1)
        assert not res.converged and res.gradient_norm == pytest.approx(1.0)
        assert res.x[0] == 0.0 and np.allclose(res.x[1:], [1.0, -2.0])


def reason_rows(d: int):
    """One objective of d coordinates per way a Newton row stops, each a
    callable from points (k, d) to values (k,) and gradients (k, d), with
    its start and the reason it stops for:
    - gradient: -sum(exp(x - c) - x), less (x0 - x1 - c0 + c1)^2 / 2 for
      two coordinates, whose maximum is c;
    - indefinite: a linear objective, whose Hessian is 0;
    - indefinite: 2 sqrt(1 - x) summed, started within the Hessian's step
      of its wall at 1, where the stencil's gradient is not finite;
    - bound: a quadratic whose maximum is 1e7;
    - halvings: -(x - 1)^2 / 2 with the gradient of -(x + 1)^2 / 2, so
      every step and every halving of it falls;
    - steps: -x^4 / 4, where Newton's step is -x / 3."""
    c = np.array([0.7, -0.4])[:d]

    def smooth(p):
        e = np.exp(p - c)
        value, grad = -(e - p).sum(axis=-1), 1.0 - e
        if d == 2:
            gap = p[..., 0] - p[..., 1] - (c[0] - c[1])
            value, grad = value - 0.5 * gap ** 2, grad + np.stack([-gap, gap], axis=-1)
        return value, grad

    def linear(p):
        slope = np.array([1.0, -2.0])[:d]
        return p @ slope, np.broadcast_to(slope, p.shape)

    def walled(p):
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.sqrt(1.0 - p)
            return 2.0 * root.sum(axis=-1), -1.0 / root

    def far(p):
        return -0.5 * ((p - 1e7) ** 2).sum(axis=-1), 1e7 - p

    def misled(p):
        return -0.5 * ((p - 1.0) ** 2).sum(axis=-1), -(p + 1.0)

    def slow(p):
        return -0.25 * (p ** 4).sum(axis=-1), -p ** 3

    return [(smooth, np.zeros(d), "gradient"), (linear, np.zeros(d), "indefinite"),
            (walled, np.full(d, 1.0 - 0.5 * optim.HESSIAN_STEP), "indefinite"),
            (far, np.zeros(d), "bound"), (misled, np.zeros(d), "halvings"), (slow, np.ones(d), "steps")]


def batch_of(rows):
    """The rows as one batch: each row's objective on its own points."""
    def value_and_gradient(points):   # (k, rows, d)
        parts = [f(points[:, r]) for r, (f, _, _) in enumerate(rows)]
        return np.stack([v for v, _ in parts], axis=1), np.stack([g for _, g in parts], axis=1)

    return value_and_gradient, np.stack([x0 for _, x0, _ in rows])


class TestNewtonStops:
    @pytest.mark.parametrize("d", [1, 2])
    def test_each_row_states_why_it_stopped(self, d):
        rows = reason_rows(d)
        value_and_gradient, x0 = batch_of(rows)
        res = newton_ascent(value_and_gradient, x0, gradient_tolerance=1e-13)
        assert res.stop_reason.tolist() == [why for _, _, why in rows]
        assert res.converged.tolist() == [why == "gradient" for _, _, why in rows]
        assert np.max(np.abs(res.x[0] - np.array([0.7, -0.4])[:d])) <= 1e-12
        # the rows that stop before a step stand at their start
        assert np.array_equal(res.x[1:5], x0[1:5]) and np.array_equal(res.iterations[1:5], [0, 0, 0, 0])
        assert res.iterations[5] == optim.NEWTON_STEPS

    def test_a_row_that_stops_on_the_bound_is_not_evaluated_past_it(self):
        # x - 1e-9 x^2 peaks at 5e8, past the bound: the first step stops
        # the row where it stands, and no further call is made
        calls = []

        def f(p):
            calls.append(p.copy())
            return p[..., 0] - 1e-9 * p[..., 0] ** 2, 1.0 - 2e-9 * p

        res = newton_ascent(f, np.zeros(1), gradient_tolerance=1e-6)
        assert res.stop_reason == "bound" and res.iterations == 0 and res.x[0] == 0.0
        assert res.gradient_evaluations == 1 and len(calls) == 1

    def test_a_row_stopped_on_the_bound_stands_at_its_iterate_beside_running_rows(self):
        def f(p):   # row 0 runs past the bound, row 1 peaks at 0.7
            far, near = p[..., 0, 0], p[..., 1, 0]
            values = np.stack([far - 1e-9 * far ** 2, -(near - 0.7) ** 2], axis=-1)
            return values, np.stack([1.0 - 2e-9 * p[..., 0, :], -2.0 * (p[..., 1, :] - 0.7)], axis=-2)

        seen = []
        res = newton_ascent(lambda p: (seen.append(np.abs(p[:, 0]).max()), f(p))[1], np.zeros((2, 1)),
                            gradient_tolerance=1e-10)
        assert res.stop_reason.tolist() == ["bound", "gradient"] and res.x[0, 0] == 0.0
        assert abs(res.x[1, 0] - 0.7) <= 1e-12
        assert max(seen) <= 1e-6   # row 0 is only ever evaluated at its start

    def test_a_start_whose_value_is_not_finite_is_indefinite(self):
        def walled(p):
            return np.where(p[..., 0] < 1.0, -0.5 * p[..., 0] ** 2, -np.inf), -p

        res = newton_ascent(walled, np.array([2.0]), gradient_tolerance=1e-8)
        assert res.stop_reason == "indefinite" and res.iterations == 0 and res.x[0] == 2.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_row_solves_as_it_would_alone(self, d):
        # definiteness is decided row by row: a row's results are bit for
        # bit those of its own solve, whatever rows stop beside it
        rows = reason_rows(d)
        value_and_gradient, x0 = batch_of(rows)
        batch = newton_ascent(value_and_gradient, x0, gradient_tolerance=1e-13)
        for r, (f, start, _) in enumerate(rows):
            alone = newton_ascent(f, start, gradient_tolerance=1e-13)
            assert batch.x[r].tobytes() == alone.x.tobytes()
            assert batch.value[r].tobytes() == alone.value.tobytes()
            assert batch.converged[r] == alone.converged and batch.stop_reason[r] == alone.stop_reason
            assert batch.iterations[r] == alone.iterations

    def test_a_hessian_that_factors_by_rounding_but_is_singular_stops_its_row(self):
        # -S of a pool of two hedged exponential one-steps (gamma 1 and 0.5
        # on the one-asset x2/x0.5 lattice of depth 1, row 5 of 8), flat
        # along the hedge: Cholesky accepts it by rounding, and the LU
        # solve meets an exact zero pivot.  That row stops as indefinite,
        # the rows beside it finish, and no numpy error escapes
        singular = [[0.041347387735868324, 0.08269477505540301], [0.08269477505540301, 0.16538954927813876]]
        a = np.array([singular, [[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]])
        b = np.array([[-0.027685571784624025, -0.05537114356924805], [1.0, -1.0], [0.5, 2.0]])

        def quadratics(points):   # b.p - p A p / 2: from 0, the stencil gives -S = A to the last bit
            ap = np.einsum("krd,rde->kre", points, a)
            return (points * (b - 0.5 * ap)).sum(axis=-1), b - ap

        res = newton_ascent(quadratics, np.zeros((3, 2)), gradient_tolerance=1e-10)
        assert res.stop_reason.tolist() == ["indefinite", "gradient", "gradient"]
        assert np.array_equal(res.x[0], [0.0, 0.0]) and res.iterations[0] == 0
        assert np.allclose(res.x[1:], np.linalg.solve(a[1:], b[1:, :, None])[..., 0], atol=1e-12)

    def test_one_coordinate_steps_by_minus_g_over_h(self):
        # the first step from x0 is -g / H for the forward-difference H,
        # to the last bit
        calls = []

        def f(p):
            calls.append(p.copy())
            return np.log(p[..., 0]) - p[..., 0], 1.0 / p - 1.0

        x0 = np.array([0.3])
        newton_ascent(f, x0, gradient_tolerance=1e-10)
        h = optim.HESSIAN_STEP * max(1.0, abs(x0[0]))
        g, g_h = 1.0 / x0[0] - 1.0, 1.0 / (x0[0] + h) - 1.0
        assert calls[1][0, 0] == x0[0] - g / ((g_h - g) / h)

    def test_newton_calls_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Newton steps by a Cholesky factorization and a solve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        t = three_node_tree((0.2, 0.4, 0.4))
        _, _, res = dual_value_and_argmax(entropic_family(entropic_params(t, 1.0)), "root",
                                          {"root": 0.3, "up": 0.3, "down": 0.4})
        assert res.method == "newton" and res.converged
        c = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])   # two rows, smooth

        def rows_value_and_gradient(points):   # (k, 2, 3)
            return -np.log(np.cosh(points - c)).sum(axis=-1), -np.tanh(points - c)

        x, fx, fallback = sup_rows(None, rows_value_and_gradient, np.zeros((2, 3)), smooth=True,
                                   gradient_tolerance=1e-10, max_iterations=1000, row=None)
        assert fallback == {} and np.max(np.abs(x - c)) <= 1e-9


class TestSimplexDescent:
    def test_records_its_stop_reason(self):
        target = np.array([0.2, 0.3, 0.5])
        res = eg_minimize(lambda lam: lam - target, 3, tolerance=1e-9)
        assert res.converged and res.stop_reason == "gap"
        res = eg_minimize(lambda lam: lam - target, 3, tolerance=1e-9, max_iterations=2)
        assert not res.converged and res.stop_reason == "max_iterations" and res.iterations == 2

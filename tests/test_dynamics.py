import numpy as np
import pytest

import twoscale.dynamics as dynamics
from twoscale.convex import ConvexSet, support, direction_net
from twoscale.dynamics import (
    DIPath,
    ImpureFieldError,
    apt_metric,
    attractor_check,
    chain_search,
    di_solve,
    limit_set,
)
from twoscale.meanfield import MeanField


def sign_field():
    def evaluate(z):
        if z[0] > 0:
            return ConvexSet.singleton([-1.0])
        if z[0] < 0:
            return ConvexSet.singleton([1.0])
        return ConvexSet.interval(-1.0, 1.0)

    return MeanField(evaluate=evaluate, dim=1, growth_K=1.0)


def decay_field():
    return MeanField(
        evaluate=lambda z: ConvexSet.singleton(-z), dim=1, growth_K=1.0
    )


class TestDiSolve:
    def test_sign_di_sliding(self):
        # Closed form |x(t)| = max(0, 1 - t).
        dt = 1e-3
        path = di_solve(sign_field(), [1.0], T=2.0, dt=dt)
        for t in (0.25, 0.5, 0.9):
            assert path.at(t)[0] == pytest.approx(1 - t, abs=2 * dt)
        tail = path.states[path.times >= 1.0 + 2 * dt]
        assert np.abs(tail).max() <= 2 * dt

    def test_linear_decay_euler_bound(self):
        dt = 1e-3
        T = 2.0
        path = di_solve(decay_field(), [1.0], T=T, dt=dt)
        for t in np.linspace(0, T, 9):
            assert abs(path.at(t)[0] - np.exp(-t)) <= dt * T * np.e

    def test_equilibrium_fixed(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.interval(-1, 1), dim=1, growth_K=2.0
        )
        path = di_solve(field, [0.0], T=1.0, dt=0.04)
        assert np.all(path.states == 0.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            di_solve(decay_field(), [1.0], T=1.0, dt=0.0)

    def test_path_invariants(self):
        path = di_solve(decay_field(), [1.0], T=1.0, dt=0.01)
        assert path.euler_residual() <= 1e-15
        assert path.membership_residual(decay_field()) <= 1e-8

    def test_membership_by_support(self):
        # Independent membership check: <v, d> <= support(H(z), d) on the net.
        field = sign_field()
        path = di_solve(field, [0.5], T=1.0, dt=0.01)
        net = direction_net(1)
        for z, v in zip(path.states[:-1], path.selections):
            K = field(z)
            for d in net:
                assert float(v @ d) <= support(K, d) + 1e-9

    def test_coarse_dt_warns(self):
        with pytest.warns(RuntimeWarning):
            di_solve(decay_field(), [10.0], T=1.0, dt=0.5)

    def test_param_selection(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.interval(-2, 2), dim=1, growth_K=3.0
        )
        path = di_solve(
            dynamics._param_field(field, np.array([1.0])), [0.0], T=0.5, dt=0.01
        )
        assert np.all(path.selections == 2.0)


class TestLimitSet:
    def test_constant_path(self):
        path = DIPath(
            times=np.arange(5.0),
            states=np.ones((5, 1)),
            selections=np.zeros((4, 1)),
        )
        reps = limit_set(path, burn_in=1.0)
        np.testing.assert_allclose(reps, [[1.0]])

    def test_decay_clusters_at_zero(self):
        path = di_solve(decay_field(), [1.0], T=20.0, dt=0.01)
        reps = limit_set(path, burn_in=15.0, tol=1e-3)
        assert len(reps) == 1
        assert abs(reps[0][0]) <= 1e-3

    def test_periodic_two_points(self):
        states = np.array([[0.0], [1.0]] * 4)
        times = np.arange(len(states), dtype=float)
        sels = np.diff(states, axis=0)
        path = DIPath(times=times, states=states, selections=sels)
        reps = limit_set(path, burn_in=2.0, tol=1e-6)
        assert sorted(r[0] for r in reps) == [0.0, 1.0]

    def test_empty_tail_rejected(self):
        path = di_solve(decay_field(), [1.0], T=1.0, dt=0.01)
        with pytest.raises(ValueError):
            limit_set(path, burn_in=2.0)


class TestAttractorCheck:
    def test_contraction_attracting(self):
        status, _ = attractor_check(
            decay_field(), [[0.0]], neighborhood_radius=2.0, eps=0.1,
            T_max=10.0, n_starts=5,
        )
        assert status == "attracting"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_expansion_not_attracting(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.singleton(z), dim=1, growth_K=1.0
        )
        status, witness = attractor_check(
            field, [[0.0]], neighborhood_radius=1.0, eps=0.1,
            T_max=5.0, n_starts=5,
        )
        assert status == "not_attracting"
        assert witness is not None
        assert abs(witness.states[-1][0]) > 0.1

    def test_sign_di_finite_time(self):
        status, _ = attractor_check(
            sign_field(), [[0.0]], neighborhood_radius=1.0, eps=0.05,
            T_max=3.0, n_starts=4,
        )
        assert status == "attracting"

    def test_inconclusive_when_horizon_short(self):
        slow = MeanField(
            evaluate=lambda z: ConvexSet.singleton(-0.01 * z), dim=1, growth_K=1.0
        )
        status, _ = attractor_check(
            slow, [[0.0]], neighborhood_radius=5.0, eps=1e-3,
            T_max=1.0, n_starts=3,
        )
        assert status == "inconclusive"


class TestChainSearch:
    def test_target_selection_steers(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.interval(-1.0, 1.0), dim=1, growth_K=2.0
        )
        path = di_solve(
            dynamics._target_field(field, np.array([1.5]), 0.01), [0.0], T=2.0, dt=0.01
        )
        assert path.states[-1][0] == pytest.approx(1.5, abs=0.02)

    def test_chain_found_toward_attractor(self):
        status = chain_search(decay_field(), [1.0], [0.0], eps=0.05, T=2.0)
        assert status == "found"

    def test_chain_not_found_against_flow(self):
        # The contraction flow cannot leave the origin; the search reports
        # only that nothing was found within budget.
        status = chain_search(
            decay_field(), [0.0], [1.0], eps=0.05, T=1.0,
            max_fragments=8, n_attempts=3,
        )
        assert status == "not_found"

    def test_free_interval_field_chains_anywhere(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.interval(-1.0, 1.0), dim=1, growth_K=2.0
        )
        assert chain_search(field, [-0.5], [0.8], eps=0.05, T=0.5) == "found"


class TestAptMetric:
    def grid(self, T, n=501):
        return np.linspace(0, T, n)

    def test_identical_paths(self):
        t = self.grid(5)
        f = np.sin(t).reshape(-1, 1)
        assert apt_metric(t, f, f, K_terms=10) == 0.0

    def test_unit_gap_geometric(self):
        t = self.grid(30)
        f = np.zeros((len(t), 1))
        g = np.ones((len(t), 1))
        val = apt_metric(t, f, g, K_terms=40)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_half_gap_partial_sum(self):
        t = self.grid(30)
        f = np.zeros((len(t), 1))
        g = 0.5 * np.ones((len(t), 1))
        assert apt_metric(t, f, g, K_terms=10) == pytest.approx(
            0.5 * (1 - 2**-10), abs=1e-12
        )

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        t = self.grid(4, 101)
        for _ in range(20):
            f, g, h = (rng.standard_normal((len(t), 2)) for _ in range(3))
            dfg = apt_metric(t, f, g, 8)
            dgf = apt_metric(t, g, f, 8)
            assert dfg == dgf
            assert dfg <= apt_metric(t, f, h, 8) + apt_metric(t, h, g, 8) + 1e-12
            assert apt_metric(t, f, f, 8) == 0.0

    def test_window_mismatch(self):
        t = self.grid(2)
        with pytest.raises(ValueError):
            apt_metric(t, np.zeros((len(t), 1)), np.zeros((len(t) - 1, 1)), 4)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = di_solve(decay_field(), [1.0], T=0.5, dt=0.05)
        out = tmp_path / "path.csv"
        path.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# columns:")
        assert lines[1] == "t,z0,v0"
        data = np.array(
            [[float(c) for c in row.split(",")] for row in lines[2:]]
        )
        np.testing.assert_allclose(data[:, 0], path.times)
        np.testing.assert_allclose(data[:, 1], path.states[:, 0])


class TestBatchedPath:
    def test_block_start_needs_evaluate_rows(self):
        with pytest.raises(ValueError, match="evaluate_rows"):
            di_solve(decay_field(), [[1.0], [2.0]], T=1.0, dt=0.01)

    def test_rows_solve_as_single_paths(self):
        field = MeanField(
            evaluate=lambda z: ConvexSet.singleton(-z), dim=1, growth_K=1.0,
            evaluate_rows=lambda Z: -Z,
        )
        Z0 = np.array([[1.0], [-0.5], [3.0]])
        batched = di_solve(field, Z0, T=1.0, dt=0.01)
        residuals = []
        for r, z0 in enumerate(Z0):
            single = di_solve(decay_field(), z0, T=1.0, dt=0.01)
            assert np.array_equal(batched.states[:, r], single.states)
            residuals.append(single.euler_residual())
        assert batched.euler_residual() == max(residuals)

    def test_at_matches_row_paths(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.1, 0.5, 9))
        states = rng.standard_normal((9, 3, 2))
        batched = DIPath(times=times, states=states, selections=np.zeros((8, 3, 2)))
        # As many query times as rows, so a misaligned weight would broadcast.
        t_array = np.array([times[0], 0.5 * (times[3] + times[4]), times[-1]])
        for r in range(3):
            row = DIPath(times=times, states=states[:, r], selections=np.zeros((8, 2)))
            for t in (times[2], 0.3 * times[5] + 0.7 * times[6]):
                assert np.array_equal(batched.at(t)[r], row.at(t))
            assert np.array_equal(batched.at(t_array)[:, r], row.at(t_array))

    def test_single_path_methods_refuse_batches(self, tmp_path):
        path = DIPath(
            times=[0.0, 1.0], states=np.zeros((2, 2, 1)), selections=np.zeros((1, 2, 1))
        )
        with pytest.raises(ValueError, match="single path"):
            path.to_csv(tmp_path / "p.csv")
        with pytest.raises(ValueError, match="single path"):
            path.membership_residual(decay_field())


def row_field(f, dim=1, growth_K=1.0):
    """The row field ``f`` and its set form, the singleton of ``f`` on one
    row, which ``di_solve`` steps knot by knot."""
    rows = MeanField(evaluate=None, dim=dim, growth_K=growth_K, evaluate_rows=f)
    sets = MeanField(
        evaluate=lambda z: ConvexSet.singleton(f(z[None])[0]), dim=dim, growth_K=growth_K
    )
    return rows, sets


def counted(f):
    """``f`` with a count of the rows it has evaluated."""
    seen = [0]

    def g(Z):
        seen[0] += len(Z)
        return f(Z)

    return g, seen


def same_path(a, b):
    """Equal knots and velocities, NaN counted as equal."""
    return np.array_equal(a.states, b.states, equal_nan=True) and np.array_equal(
        a.selections, b.selections, equal_nan=True
    )


def van_der_pol(Z):
    return np.column_stack([Z[:, 1], -Z[:, 0] + 2.0 * (1.0 - Z[:, 0] * Z[:, 0]) * Z[:, 1]])


def sign_rows(Z):
    return -np.sign(Z)


def square_rows(Z):
    # Overflows to inf in its first coordinate, then to NaN in its second.
    q = Z[:, :1] * Z[:, :1]
    return np.column_stack([q, q - 2.0 * q + Z[:, 1:]])


BLOCKS = pytest.mark.parametrize("rows", [1, 7, dynamics.ROWS])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlockSweep:
    """``di_solve`` on a field with ``evaluate_rows`` sweeps blocks of knots;
    its path equals the knot-by-knot loop over the set form bit for bit."""

    @BLOCKS
    @pytest.mark.parametrize(
        "f, Z0, T, dt",
        [
            (van_der_pol, [[2.0, 0.0], [0.5, -1.0], [-3.0, 1.0]], 3.0, 0.01),
            (sign_rows, [[1.0], [-0.37], [0.0]], 1.5, 0.01),
            (square_rows, [[1.0, 0.0], [0.5, 1.0], [2.0, 3.0]], 8.0, 0.25),
        ],
        ids=["van_der_pol", "sign", "overflow"],
    )
    def test_equals_sequential_set_form(self, f, Z0, T, dt, rows, monkeypatch):
        # With 1 and 3 starts: blocks of one knot, of a few knots with a short
        # last block, and one block longer than the path.
        Z0 = np.array(Z0)
        field, sets = row_field(f, dim=Z0.shape[1])
        monkeypatch.setattr(dynamics, "ROWS", rows)
        batched = di_solve(field, Z0, T=T, dt=dt)
        for r, z0 in enumerate(Z0):
            seq = di_solve(sets, z0, T=T, dt=dt)
            col = DIPath(batched.times, batched.states[:, r], batched.selections[:, r])
            assert same_path(col, seq)
            if r == 0:
                assert same_path(di_solve(field, z0, T=T, dt=dt), seq)
        if f is square_rows:
            assert np.isinf(batched.states[-1, :, 0]).all()
            assert np.isnan(batched.states[-1, :, 1]).all()

    @pytest.mark.parametrize("rows", [7, dynamics.ROWS])
    @pytest.mark.parametrize(
        "f",
        [lambda Z: -Z + 1e-3 * len(Z), lambda Z: -Z + 1e-3 * Z.mean(axis=0)],
        ids=["row_count", "row_mean"],
    )
    def test_impure_field_raises(self, f, rows, monkeypatch):
        # A row's value depends on how many rows the call has, or on them.
        field, _ = row_field(f)
        monkeypatch.setattr(dynamics, "ROWS", rows)
        with pytest.raises(ImpureFieldError):
            di_solve(field, [1.0], T=1.0, dt=0.01)

    def test_stiff_field_rows_bounded(self):
        # dt * L = 1.9, near the Euler limit 2: each sweep fixes about one
        # knot, so the blocks finish one knot at a time within the budget.
        f, seen = counted(lambda Z: -190.0 * Z)
        field, sets = row_field(f, growth_K=190.0)
        n = 3000
        Z0 = np.array([[1.0], [-0.5]])
        path = di_solve(field, Z0, T=n * 0.01, dt=0.01)
        assert seen[0] <= (dynamics.SWEEP_BUDGET + 1) * n * len(Z0)
        for r, z0 in enumerate(Z0):
            col = DIPath(path.times, path.states[:, r], path.selections[:, r])
            assert same_path(col, di_solve(sets, z0, T=n * 0.01, dt=0.01))

    def test_guess_outside_domain_is_not_an_error(self):
        # Guessed states of a stiff block leave the field's domain; the path's
        # own states stay in it, so the path comes back as the loop's.
        def f(Z):
            if np.abs(Z).max() > 10.0:
                raise ValueError("outside the domain")
            return -190.0 * Z

        field, sets = row_field(f, growth_K=190.0)
        path = di_solve(field, [1.0], T=5.0, dt=0.01)
        assert same_path(path, di_solve(sets, [1.0], T=5.0, dt=0.01))
        with pytest.raises(ValueError, match="outside the domain"):
            di_solve(field, [11.0], T=5.0, dt=0.01)

import numpy as np
import pytest

from twoscale.markov import (
    FiniteKernel,
    SlowMeasure,
    sample_next,
    slow_measure_family,
    stationary_set,
)

Y = np.zeros(1)


class TestStationarySet:
    def test_identity_two_states(self):
        stat = stationary_set(np.eye(2))
        assert stat.n_vertices == 2
        rows = sorted(map(tuple, stat.vertices))
        assert rows == [(0.0, 1.0), (1.0, 0.0)]

    def test_irreducible_two_state(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        stat = stationary_set(P)
        assert stat.n_vertices == 1
        np.testing.assert_allclose(stat.vertices[0], [1 / 3, 2 / 3], atol=1e-12)
        assert stat.residuals(P)[0] <= 1e-10

    def test_block_diagonal(self):
        P = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 0.3, 0.7],
                [0.0, 0.6, 0.4],
            ]
        )
        stat = stationary_set(P)
        assert stat.n_vertices == 2

    def test_transient_state(self):
        # State 0 leaks into the absorbing state 1.
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        stat = stationary_set(P)
        assert stat.n_vertices == 1
        np.testing.assert_allclose(stat.vertices[0], [0.0, 1.0], atol=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            stationary_set(np.array([[0.5, 0.5], [0.2, 0.2]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(0.01, 1.0, (4, 4))
        P /= P.sum(axis=1, keepdims=True)
        perm = np.array([2, 0, 3, 1])
        P_perm = P[np.ix_(perm, perm)]
        v = stationary_set(P).vertices[0]
        v_perm = stationary_set(P_perm).vertices[0]
        np.testing.assert_allclose(v[perm], v_perm, atol=1e-10)

    def test_eigen_cross_check(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            P = rng.uniform(0.01, 1.0, (5, 5))
            P /= P.sum(axis=1, keepdims=True)
            v = stationary_set(P).vertices[0]
            w, vecs = np.linalg.eig(P.T)
            i = np.argmin(np.abs(w - 1.0))
            mu = np.real(vecs[:, i])
            mu /= mu.sum()
            np.testing.assert_allclose(v, mu, atol=1e-9)


class TestSampleNext:
    def test_deterministic_rows(self):
        K = FiniteKernel.constant([[1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(0)
        assert sample_next(K, Y, Y, 0, rng) == 0
        assert sample_next(K, Y, Y, 1, rng) == 1

    def test_reverse_row(self):
        K = FiniteKernel(2, lambda x, y, s: np.array([0.0, 1.0]))
        rng = np.random.default_rng(0)
        assert sample_next(K, Y, Y, 0, rng) == 1

    def test_frequency(self):
        K = FiniteKernel.constant([[0.5, 0.5], [0.5, 0.5]])
        rng = np.random.default_rng(42)
        n = 100_000
        hits = sum(sample_next(K, Y, Y, 0, rng) == 0 for _ in range(n))
        assert 0.494 <= hits / n <= 0.506

    def test_seed_reproducible(self):
        K = FiniteKernel.constant([[0.3, 0.7], [0.6, 0.4]])
        draws1 = [sample_next(K, Y, Y, 0, np.random.default_rng(7)) for _ in range(5)]
        draws2 = [sample_next(K, Y, Y, 0, np.random.default_rng(7)) for _ in range(5)]
        assert draws1 == draws2

    def test_invalid_state(self):
        K = FiniteKernel.constant([[1.0]])
        with pytest.raises(ValueError):
            sample_next(K, Y, Y, 3, np.random.default_rng(0))


class TestSlowMeasureFamily:
    def test_singleton_irreducible(self):
        K = FiniteKernel.constant([[0.5, 0.5], [0.25, 0.75]])
        fam = slow_measure_family(Y, np.array([[1.0]]), K)
        assert len(fam) == 1
        mu = fam[0]
        np.testing.assert_allclose(mu.s_marginal(2), [1 / 3, 2 / 3], atol=1e-12)
        assert mu.validate(K, Y, np.array([[1.0]]))

    def test_identity_kernel_two_measures(self):
        K = FiniteKernel.constant(np.eye(2))
        fam = slow_measure_family(Y, np.array([[1.0]]), K)
        assert len(fam) == 2
        marginals = sorted(tuple(m.s_marginal(2)) for m in fam)
        assert marginals == [(0.0, 1.0), (1.0, 0.0)]

    def test_two_points_shared_marginal(self):
        K = FiniteKernel.constant([[0.5, 0.5], [0.25, 0.75]])
        lam = np.array([[1.0], [2.0]])
        fam = slow_measure_family(Y, lam, K)
        assert len(fam) == 2
        for m in fam:
            np.testing.assert_allclose(m.s_marginal(2), [1 / 3, 2 / 3], atol=1e-12)
            assert m.validate(K, Y, lam)

    def test_empty_lambda(self):
        K = FiniteKernel.constant([[1.0]])
        with pytest.raises(ValueError):
            slow_measure_family(Y, np.empty((0, 1)), K)

    def test_convex_combination_stays_valid(self):
        K = FiniteKernel.constant(np.eye(2))
        lam = np.array([[1.0]])
        fam = slow_measure_family(Y, lam, K)
        mixed = fam[0].mix(fam[1], 0.3)
        assert mixed.validate(K, Y, lam)

    def test_validate_catches_support_violation(self):
        K = FiniteKernel.constant([[1.0]])
        m = SlowMeasure(xs=np.array([[5.0]]), states=[0], weights=[1.0])
        assert not m.validate(K, Y, np.array([[0.0]]))

    def test_validate_catches_nonstationary_marginal(self):
        K = FiniteKernel.constant([[0.5, 0.5], [0.25, 0.75]])
        m = SlowMeasure(xs=np.array([[0.0], [0.0]]), states=[0, 1], weights=[0.9, 0.1])
        assert not m.validate(K, Y, np.array([[0.0]]))


class TestKernelStationary:
    def test_constant_kernel_solves_once(self, monkeypatch):
        import twoscale.markov as markov

        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        K = FiniteKernel.constant(P)
        solves = []
        real = markov.stationary_set
        monkeypatch.setattr(
            markov, "stationary_set", lambda M: solves.append(1) or real(M)
        )
        first = K.stationary(Y, Y)
        assert K.stationary(np.ones(1), -Y) is first
        for _ in slow_measure_family(Y, np.array([[1.0], [2.0]]), K):
            pass
        assert solves == [1]
        assert np.array_equal(first.vertices, real(P).vertices)
        assert not first.vertices.flags.writeable

    def test_iterate_dependent_kernel_is_solved_at_each_point(self):
        def row(x, y, s):
            return np.array([0.9, 0.1]) if x[0] >= 0 else np.array([0.1, 0.9])

        K = FiniteKernel(2, row)
        up = K.stationary(np.ones(1), Y).vertices[0]
        down = K.stationary(-np.ones(1), Y).vertices[0]
        assert np.array_equal(up, stationary_set(K.frozen(np.ones(1), Y)).vertices[0])
        assert np.array_equal(down, stationary_set(K.frozen(-np.ones(1), Y)).vertices[0])
        assert not np.array_equal(up, down)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twoscale.markov import (
    ROW_TOL,
    FiniteKernel,
    SlowMeasure,
    next_state,
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

    def test_classes_in_order_of_lowest_state(self):
        # Closed classes {0, 3} and {2}; state 1 is transient into both.
        P = np.array(
            [
                [0.5, 0.0, 0.0, 0.5],
                [0.25, 0.25, 0.5, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.4, 0.0, 0.0, 0.6],
            ]
        )
        stat = stationary_set(P)
        np.testing.assert_allclose(
            stat.vertices, [[4 / 9, 0.0, 0.0, 5 / 9], [0.0, 0.0, 1.0, 0.0]], atol=1e-12
        )

    def test_long_path_into_absorbing_state(self):
        # The longest reach: state 0 reaches state 299 only after 299 steps.
        n = 300
        P = np.zeros((n, n))
        P[np.arange(n - 1), np.arange(1, n)] = 1.0
        P[-1, -1] = 1.0
        np.testing.assert_array_equal(stationary_set(P).vertices, np.eye(n)[[-1]])

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            stationary_set(np.array([[0.5, 0.5], [0.2, 0.2]]))

    def test_nan_rejected(self):
        # NaN passes both the sign and the row-sum comparison.
        P = np.array([[np.nan, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 0 has a non-finite entry"):
            stationary_set(P)
        with pytest.raises(ValueError, match="row 0 has a non-finite entry"):
            FiniteKernel.constant(P)

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


def draw_rows(rng, count):
    """``(kind, row)`` pairs, rows of 1-6 entries: stochastic (kind 0), with
    zeros (1), summing short of 1 (2), and with negative entries, whose
    partial sums are not monotone (3)."""
    for i in range(count):
        n = int(rng.integers(1, 7))
        kind = i % 4
        if kind == 0:
            row = rng.dirichlet(np.ones(n))
        elif kind == 1:
            row = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
        elif kind == 2:
            row = rng.dirichlet(np.ones(n)) * (1.0 - 1e-3 * rng.random())
        else:
            row = rng.normal(0.3, 0.5, n)
        yield kind, row


def is_probability_row(row):
    return bool(
        np.isfinite(row).all() and row.min() >= -ROW_TOL
        and abs(row.sum() - 1.0) <= ROW_TOL
    )


class TestNextState:
    def test_matches_searchsorted_on_cumsum(self):
        # The helper sums and bisects on Python floats; the formula is the
        # numpy one it replaces.  u runs over random draws, the ends of
        # [0, 1) and every partial sum with its neighbouring doubles.  Only
        # the stochastic rows draw a state; the others are refused (below).
        rng = np.random.default_rng(2026)
        for kind, row in draw_rows(rng, 4000):
            if kind != 0:
                continue
            n = len(row)
            K = FiniteKernel(n, lambda x, y, s, r=row: r)
            cum = np.cumsum(row)
            us = [rng.random(), 0.0, np.nextafter(1.0, 0.0)]
            for c in cum:
                us += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
            for u in us:
                want = int(min(np.searchsorted(cum, u), n - 1))
                assert next_state(K, Y, Y, 0, float(u)) == want

    def test_refuses_non_probability_rows(self):
        rng = np.random.default_rng(2026)
        rows = [row for kind, row in draw_rows(rng, 4000) if kind != 0]
        rows += [
            np.array([np.nan, -3.0]), np.array([np.nan]), np.array([0.5, np.nan, 0.5]),
            np.array([np.inf, 0.0]), np.array([np.inf, -np.inf]), np.array([-np.inf]),
            np.array([1.5, -0.5]), np.array([-1e-9, 1.0 + 1e-9]),
            np.array([0.5, 0.5 + 1e-9]),
            # Within ROW_TOL: accepted.
            np.array([0.5, 0.5 - 1e-13]), np.array([-1e-13, 1.0 + 1e-13]),
        ]
        refused = 0
        for row in rows:
            K = FiniteKernel(len(row), lambda x, y, s, r=row: r)
            if is_probability_row(row):
                want = int(min(np.searchsorted(np.cumsum(row), 0.75), len(row) - 1))
                assert next_state(K, Y, Y, 0, 0.75) == want
                continue
            with pytest.raises(ValueError) as err:
                next_state(K, Y, Y, 0, 0.5)
            assert str(err.value) == (
                f"kernel row for state 0 is not a probability row: {row.tolist()}"
            )
            refused += 1
        # Of the 3,000 drawn rows, only kind-1 rows that kept every entry
        # are probability rows.
        assert refused > 2700

    def test_refusal_names_state_and_row(self):
        K = FiniteKernel(2, lambda x, y, s: np.array([np.nan, -3.0]))
        with pytest.raises(ValueError) as err:
            next_state(K, Y, Y, 1, 0.3)
        assert str(err.value) == (
            "kernel row for state 1 is not a probability row: [nan, -3.0]"
        )

    def test_goes_through_the_row_oracle(self):
        K = FiniteKernel(2, lambda x, y, s: np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="shape"):
            next_state(K, Y, Y, 0, 0.3)
        with pytest.raises(ValueError, match="outside alphabet"):
            next_state(K, Y, Y, 2, 0.3)


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


@st.composite
def reducible_chains(draw):
    """A row-stochastic matrix on 2 to 4 blocks of states in block upper
    triangular order, so that no state of a later block reaches an earlier
    one; about half the entries allowed by that order are zero, and the
    states are shuffled."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = len(block)
    raw = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    P = np.where((raw >= 0.5) & (block[None, :] >= block[:, None]), raw, 0.0)
    P[np.diag_indices(n)] += P.sum(axis=1) == 0.0
    P /= P.sum(axis=1, keepdims=True)
    perm = np.array(draw(st.permutations(range(n))))
    return P[np.ix_(perm, perm)]


def closed_classes(P):
    """Closed communicating classes, from the transitive closure of the
    support graph (Warshall): a state is recurrent when every state it
    reaches reaches it back."""
    n = len(P)
    reach = (P > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    return {
        frozenset(np.flatnonzero(reach[i] & reach[:, i]).tolist())
        for i in range(n)
        if reach[np.flatnonzero(reach[i]), i].all()
    }


class TestStationarySetProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(reducible_chains())
    def test_vertices_are_the_closed_class_laws(self, P):
        stat = stationary_set(P)
        for v in stat.vertices:
            assert (v >= 0.0).all()
            assert abs(v.sum() - 1.0) <= 1e-12
            assert np.abs(v @ P - v).max() <= 1e-10
        # One vertex per closed class, supported on exactly that class.
        supports = [frozenset(np.flatnonzero(v > 0.0).tolist()) for v in stat.vertices]
        assert len(supports) == len(set(supports))
        assert set(supports) == closed_classes(P)

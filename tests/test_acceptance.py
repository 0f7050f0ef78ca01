"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import concurrent.futures
import time
from fractions import Fraction

import numpy as np
import pytest

from twoscale.convex import ConvexSet, direction_net, hausdorff, minkowski_combine, support
from twoscale.dynamics import apt_metric, di_solve
from twoscale.markov import FiniteKernel, stationary_set
from twoscale.recursion import (
    NoiseModel,
    StepSchedule,
    interpolate,
    interpolation_gap,
    noise_partial_sup,
    occupation,
    run,
)
from twoscale.saddle import (
    averaged_slow_field,
    dual_ode_field,
    lambda_min,
    lagrangian,
    quadratic_problem,
    run_primal_dual,
    verify_envelope,
)
from twoscale.svmaps import ApproxLevel, SetValuedMap, parametrize, upper_approx

N_CANONICAL = 200_000
N_REPLICAS = 5
X_STAR = np.array([1.0, 1.0])
Y_STAR = -1.00125
SCHED = StepSchedule(alpha=0.6, beta=0.9)
# Scale factor below 1 damps the late-run Markov switching kicks without
# touching the mandated exponents; both scale factors are free schedule
# parameters.
CANON_SCHED = StepSchedule(alpha=0.6, beta=0.9, a0=0.5, b0=1.0)


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def make_canonical():
    return quadratic_problem(
        theta=[[1.0, 0.0], [0.0, 1.0]],
        C=[[[1.0, 0.0]], [[0.0, 1.0]]],
        w=[[2.0], [0.0]],
        kernel=FiniteKernel.constant([[0.5, 0.5], [0.5, 0.5]]),
        epsilon=0.01,
        radius=4.0,
        growth_K=2.0,
    )


def _replica(seed):
    P = make_canonical()
    return run_primal_dual(
        P,
        CANON_SCHED,
        N=N_CANONICAL,
        seed=seed,
        noise=NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.0),
    )


@pytest.fixture(scope="module")
def canonical_problem():
    return make_canonical()


@pytest.fixture(scope="module")
def replicas():
    t0 = time.perf_counter()
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        trajs = list(pool.map(_replica, range(101, 101 + N_REPLICAS)))
    wall = time.perf_counter() - t0
    return trajs, wall


def test_c01_stationary_polytope():
    P_irr = np.array([[0.5, 0.5], [0.25, 0.75]])
    stationary_set(P_irr)  # warmup
    t0 = time.perf_counter()
    stat = stationary_set(P_irr)
    stat_id = stationary_set(np.eye(2))
    elapsed = time.perf_counter() - t0
    ok_vertex = stat.n_vertices == 1 and np.allclose(
        stat.vertices[0], [1 / 3, 2 / 3], atol=1e-12
    )
    ok_resid = stat.residuals(P_irr)[0] <= 1e-10
    rows = sorted(map(tuple, stat_id.vertices))
    ok_id = rows == [(0.0, 1.0), (1.0, 0.0)]
    check(
        "C1 stationary polytope",
        ok_vertex and ok_resid and ok_id and elapsed < 1e-3,
        f"residual={stat.residuals(P_irr)[0]:.2e}, runtime={elapsed*1e3:.3f}ms",
    )


def test_c02_aumann_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n_states = int(rng.integers(1, 5))
        intervals = []
        for _ in range(n_states):
            a = Fraction(int(rng.integers(-8, 8)), int(rng.integers(1, 5)))
            width = Fraction(int(rng.integers(0, 8)), int(rng.integers(1, 5)))
            intervals.append((a, a + width))
        weights = rng.uniform(0.1, 1.0, n_states)
        weights /= weights.sum()
        K = minkowski_combine(
            weights,
            [ConvexSet.interval(float(a), float(b)) for a, b in intervals],
        )
        # Independent oracle: enumerate all endpoint selections.
        points = [0.0]
        for w, (a, b) in zip(weights, intervals):
            points = [p + w * float(e) for p in points for e in (a, b)]
        expect = ConvexSet.interval(min(points), max(points))
        worst = max(worst, hausdorff(K, expect))
    elapsed = time.perf_counter() - t0
    check(
        "C2 Aumann oracle equivalence",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst Hausdorff={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_c03_approximation_chain():
    F = SetValuedMap(
        dims=(1, 0, 1),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(x),
        growth_K=1.0,
    )
    net = direction_net(1)
    y0 = np.zeros(0)
    t0 = time.perf_counter()
    worst_slack = np.inf
    worst_h8 = 0.0
    for xv in np.linspace(-2.0, 2.0, 50):
        x = np.array([xv])
        base = F(x, y0, 0)
        prev = None
        for l in range(1, 9):
            K = upper_approx(F, ApproxLevel.for_map(F, l), x, y0, 0)
            sK = np.array([support(K, d) for d in net])
            sF = np.array([support(base, d) for d in net])
            worst_slack = min(worst_slack, float(np.min(sK - sF)))
            if prev is not None:
                worst_slack = min(worst_slack, float(np.min(prev - sK)))
            prev = sK
            if l == 8:
                worst_h8 = max(worst_h8, hausdorff(K, base))
    elapsed = time.perf_counter() - t0
    bound = 4 * 2.0**-8 + 1e-12
    check(
        "C3 approximation chain",
        worst_slack >= -1e-9 and worst_h8 <= bound and elapsed < 5.0,
        f"slack={worst_slack:.2e}, h(F8,F)={worst_h8:.6f} vs {bound:.6f}, "
        f"runtime={elapsed:.2f}s",
    )


def test_c04_parametrization_surjectivity():
    t0 = time.perf_counter()
    # 1-d interval field: exact surjectivity with a u-grid containing +-1.
    K1 = ConvexSet.interval(-0.75, 1.25)
    us = np.linspace(-1.0, 1.0, 41).reshape(-1, 1)
    image = np.array([parametrize(K1, u, 4.0) for u in us])
    exact = image.max() == 1.25 and image.min() == -0.75
    # 2-d: sampled unit-ball grid against an affine-image set.
    A = np.array([[1.0, 0.4], [-0.2, 0.8]])
    F2 = SetValuedMap(
        dims=(2, 0, 2),
        alphabet=1,
        evaluate=lambda x, y, s: ConvexSet(
            (A @ x) + np.array([[0.3, 0.0], [-0.3, 0.2], [0.0, -0.25]])
        ),
        growth_K=3.0,
    )
    K2 = upper_approx(F2, ApproxLevel.for_map(F2, 3), np.array([0.5, -0.5]), np.zeros(0), 0)
    c = K2.centroid()
    R = float(np.linalg.norm(K2.points - c, axis=1).max()) + 0.25
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((10_000, 2))
    us2 = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    us2[::2] *= rng.uniform(0.0, 1.0, (5_000, 1))
    image2 = ConvexSet(np.array([parametrize(K2, u, R) for u in us2]))
    gap2 = max(
        abs(support(image2, d) - support(K2, d)) for d in direction_net(2)
    )
    elapsed = time.perf_counter() - t0
    check(
        "C4 parametrization surjectivity",
        exact and gap2 <= 1e-2 and elapsed < 5.0,
        f"1d exact={exact}, 2d support gap={gap2:.2e}, runtime={elapsed:.2f}s",
    )


def test_c05_two_timescale_toy():
    H1 = SetValuedMap(
        dims=(1, 1, 1), alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(-x), growth_K=1.0,
    )
    H2 = SetValuedMap(
        dims=(1, 1, 1), alphabet=1,
        evaluate=lambda x, y, s: ConvexSet.singleton(-y), growth_K=1.0,
    )
    K = FiniteKernel.constant([[1.0]])
    t0 = time.perf_counter()
    traj = run(H1, H2, K, K, SCHED, [1.0], [1.0], 0, 0, N=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    nx = float(np.linalg.norm(traj.X[-1]))
    ny = float(np.linalg.norm(traj.Y[-1]))
    check(
        "C5 two-timescale toy convergence",
        nx <= 1e-3 and ny <= 1e-2 and elapsed < 10.0,
        f"|X_N|={nx:.2e}, |Y_N|={ny:.2e}, runtime={elapsed:.2f}s",
    )


def test_c06_canonical_instance(canonical_problem, replicas):
    P = canonical_problem
    trajs, wall = replicas
    t0 = time.perf_counter()
    tail_x = np.mean([t.X[-N_CANONICAL // 10 :].mean(axis=0) for t in trajs], axis=0)
    tail_y = np.mean([t.Y[-N_CANONICAL // 10 :].mean(axis=0) for t in trajs], axis=0)
    feas = float(np.linalg.norm(P.C_mu @ tail_x - P.w_mu))
    ex = float(np.linalg.norm(tail_x - X_STAR))
    ey = abs(tail_y[0] - Y_STAR)
    lam = lambda_min(P, tail_y)
    q = lagrangian(P, lam, tail_y)
    pd_gap = abs(P.Jhat_mu(tail_x) - q)
    surplus = P.J_mu(tail_x) - P.J_mu(X_STAR)
    elapsed = wall + time.perf_counter() - t0
    check(
        "C6 canonical saddle instance",
        feas <= 1e-2 and ex <= 1e-2 and ey <= 1e-2 and pd_gap <= 2e-2
        and surplus <= 1e-3 and elapsed < 60.0,
        f"feas={feas:.2e}, |X-x*|={ex:.2e}, |Y-y*|={ey:.2e}, "
        f"pd_gap={pd_gap:.2e}, surplus={surplus:.2e}, runtime={elapsed:.1f}s",
    )


def test_c07_faster_timescale_tracking(canonical_problem, replicas):
    P = canonical_problem
    trajs, _ = replicas
    fractions = []
    for traj in trajs:
        start = N_CANONICAL - N_CANONICAL // 10
        hits = 0
        total = 0
        warm = None
        for n in range(start, N_CANONICAL + 1, 10):
            lam = lambda_min(P, traj.Y[n], x0=warm)
            warm = lam
            total += 1
            if np.linalg.norm(traj.X[n] - lam) <= 5e-2:
                hits += 1
        fractions.append(hits / total)
    worst = min(fractions)
    check(
        "C7 faster-timescale tracking",
        worst >= 0.95,
        f"min fraction within 5e-2 over final tenth = {worst:.3f}",
    )


def test_c08_occupation_measure(canonical_problem, replicas):
    P = canonical_problem
    traj = replicas[0][0]
    window = slice(N_CANONICAL - N_CANONICAL // 10, N_CANONICAL + 1)
    m = occupation(traj, window)
    tv = 0.5 * float(np.abs(m.s_marginal(2) - P.mu).sum())
    y_bar = traj.Y[window].mean(axis=0)
    lam = lambda_min(P, y_bar)
    mass = m.x_mass_within(lam[None, :], 0.05)
    check(
        "C8 occupation measure",
        tv <= 0.05 and mass >= 0.95,
        f"s-marginal TV={tv:.3f}, x-mass near lambda={mass:.3f}",
    )


def test_c09_apt_trend(canonical_problem, replicas):
    P = canonical_problem
    traj = replicas[0][0]
    field = averaged_slow_field(P)
    ts = traj.t_slow
    T_w = 4.0
    dt = 0.005
    t_grid = np.linspace(ts[-1] / 2, ts[-1] - T_w, 10)
    values = []
    for t0 in t_grid:
        y0 = interpolate(traj, "slow", t0)
        path = di_solve(field, y0, T=T_w, dt=dt)
        sampled = np.array(
            [interpolate(traj, "slow", t0 + q) for q in path.times]
        )
        values.append(apt_metric(path.times, sampled, path.states, K_terms=4))
    values = np.array(values)
    med_first = float(np.median(values[:5]))
    med_last = float(np.median(values[5:]))
    check(
        "C9 APT trend",
        med_last <= med_first + 1e-9 and values[-1] <= 0.05,
        f"median {med_first:.4f} -> {med_last:.4f}, final={values[-1]:.4f}",
    )


def test_c10_envelope_theorem(canonical_problem):
    P = canonical_problem
    t0 = time.perf_counter()
    field = dual_ode_field(P)
    path = di_solve(field, [0.0], T=20.0, dt=1e-3)
    rep = verify_envelope(P, path)
    elapsed = time.perf_counter() - t0
    check(
        "C10 envelope theorem",
        rep.max_discrepancy <= 1e-3 and rep.monotone_ok and elapsed < 10.0,
        f"max discrepancy={rep.max_discrepancy:.2e}, monotone={rep.monotone_ok}, "
        f"runtime={elapsed:.2f}s",
    )


def test_c11_interpolation_gap(canonical_problem):
    # The dual update of the application is noise-free as written, which
    # makes the slow interpolation gap identically zero; this criterion
    # exercises the dual noise hook so the gap and its noise bound are
    # nondegenerate.
    P = canonical_problem
    traj = run_primal_dual(
        P,
        CANON_SCHED,
        N=N_CANONICAL // 2,
        seed=301,
        noise=NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.1),
    )
    gaps = interpolation_gap(traj, T=1.0, n_windows=48)
    bounds = noise_partial_sup(traj, T=1.0, n_windows=48)
    # Restrict to window starts in the last three quarters of the run.
    tail = gaps[len(gaps) // 4 :]
    half = len(tail) // 2
    med_first = float(np.median(tail[:half]))
    med_last = float(np.median(tail[half:]))
    final_ok = gaps[-1] <= 2.0 * float(bounds.max())
    check(
        "C11 interpolation gap",
        med_last < med_first and final_ok,
        f"median {med_first:.2e} -> {med_last:.2e}, final={gaps[-1]:.2e} "
        f"vs 2*bound={2 * bounds.max():.2e}",
    )

"""Checks of each workload's outputs, computed apart from the program.

Every check reads the files one CLI command wrote and the config it was
given, and recomputes what it can from closed forms with numpy alone;
nothing here imports ``twoscale``.  Each ``check_*`` function returns a list
of failure messages, each starting with the name of the check that failed,
and the list is empty when the outputs hold.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

# Frequency bounds are this many binomial standard deviations wide; a false
# alarm has probability below 2e-9 per check.
BINOMIAL_Z = 6.0
# Tail means of the saddle workloads must lie this close (max-norm) to the
# closed-form optimum.  Over 24 seeds at 10k steps the worst seen was 0.082
# for x and 0.043 for y.
TAIL_BOUND = 0.25
# lambda_min stops on a 1e-9 residual, so values built on it agree with the
# closed form to about that.
SOLVER_TOL = 1e-8
ENVELOPE_TOL = 1e-3
CLOCK_RTOL = 1e-12


def read_table(path) -> dict[str, np.ndarray]:
    """Columns of a CSV the CLI wrote: comment lines, one header, numbers."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _stack(table: dict, prefix: str) -> np.ndarray:
    cols = sorted(
        (k for k in table if re.fullmatch(re.escape(prefix) + r"\d+", k)),
        key=lambda k: int(k[len(prefix):]),
    )
    return np.column_stack([table[k] for k in cols])


def _steps(schedule: dict, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form step sizes a(n) = a0 (n+1)^-alpha, b(n) = b0 (n+1)^-beta."""
    n1 = np.arange(N, dtype=float) + 1.0
    a = schedule.get("a0", 1.0) * n1 ** (-schedule["alpha"])
    b = schedule.get("b0", 1.0) * n1 ** (-schedule["beta"])
    return a, b


def _frequency(name: str, states: np.ndarray, state: int, p: float) -> list[str]:
    f = float(np.mean(states == state))
    bound = BINOMIAL_Z * np.sqrt(p * (1 - p) / len(states))
    if abs(f - p) > bound:
        return [f"{name}: frequency of state {state} is {f:.5f}, "
                f"outside {p} +- {bound:.5f}"]
    return []


def _mismatch(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Exact comparison of recomputed steps; names the first step that differs."""
    bad = np.flatnonzero(np.any(got != want, axis=1))
    if len(bad):
        n = int(bad[0])
        return [f"{name}: {len(bad)} steps differ, first at step {n + 1} "
                f"({got[n].tolist()} != {want[n].tolist()})"]
    return []


class QuadraticSaddle:
    """Closed forms of the built-in problem J(x, s) = 0.5 ||x - theta_s||^2.

    The chain is a constant kernel; inside the barrier ball the penalized
    Lagrangian is quadratic, so its minimizer map, dual value, optimum and
    dual flow all have closed forms.
    """

    def __init__(self, problem: dict):
        self.theta = np.atleast_2d(np.asarray(problem["theta"], dtype=float))
        self.C = np.asarray(problem["C"], dtype=float)
        self.w = np.asarray(problem["w"], dtype=float)
        self.eps = float(problem["epsilon"])
        self.r = float(problem["radius"])
        self.K = float(problem["growth"])
        P = np.asarray(problem["kernel"], dtype=float)
        m = len(P)
        # mu P = mu, sum mu = 1, by least squares on the stacked system.
        A = np.vstack([P.T - np.eye(m), np.ones((1, m))])
        self.mu = np.linalg.lstsq(A, np.r_[np.zeros(m), 1.0], rcond=None)[0]
        self.theta_bar = self.mu @ self.theta
        self.C_mu = np.tensordot(self.mu, self.C, axes=1)
        self.w_mu = self.mu @ self.w
        self.shrink = 1.0 + self.eps / self.r**2

    def lam(self, Y: np.ndarray) -> np.ndarray:
        """Minimizer map lambda(y) = (theta_bar - C_mu^T y) / (1 + eps/r^2)."""
        return (self.theta_bar - Y @ self.C_mu) / self.shrink

    def dual_value(self, Y: np.ndarray) -> np.ndarray:
        X = self.lam(Y)
        J = 0.5 * sum(
            m * ((X - t) ** 2).sum(axis=1) for m, t in zip(self.mu, self.theta)
        )
        pen = self.eps / (2 * self.r**2) * (X**2).sum(axis=1)
        return J + pen + ((X @ self.C_mu.T - self.w_mu) * Y).sum(axis=1)

    def optimum(self) -> tuple[np.ndarray, np.ndarray]:
        """KKT point: C_mu lambda(y*) = w_mu, x* = lambda(y*)."""
        y = np.linalg.solve(
            self.C_mu @ self.C_mu.T, self.C_mu @ self.theta_bar - self.shrink * self.w_mu
        )
        return self.lam(y[None, :])[0], y

    def flow(self):
        """The dual flow dy/dt = A y + c, linear because lambda is affine."""
        A = -(self.C_mu @ self.C_mu.T) / self.shrink
        c = self.C_mu @ self.theta_bar / self.shrink - self.w_mu
        return A, c

    def primal_velocity(self, X: np.ndarray, Y: np.ndarray, S: np.ndarray) -> np.ndarray:
        """-(x - theta_s + penalty gradient + C_s^T y), off the barrier sphere."""
        shift = (self.eps / self.r**2) * X
        outside = np.linalg.norm(X, axis=1) > self.r
        shift[outside] = shift[outside] + (self.K + 1) * X[outside]
        CtY = (self.C[S].transpose(0, 2, 1) @ Y[:, :, None])[..., 0]
        return -(((X - self.theta[S]) + shift) + CtY)


def check_saddle(out: Path, cfg: dict) -> list[str]:
    """One replica of ``twoscale saddle`` on a quadratic problem."""
    q = QuadraticSaddle(cfg["problem"])
    t = read_table(out / "trajectory.csv")
    X, Y, M1, M2 = _stack(t, "X"), _stack(t, "Y"), _stack(t, "M1_"), _stack(t, "M2_")
    S1, S2 = t["S1"].astype(int), t["S2"].astype(int)
    N = len(X) - 1
    a, b = _steps(cfg["schedule"], N)
    fails = []
    band = 1e-9 * max(1.0, q.r)
    if np.any(np.abs(np.linalg.norm(X, axis=1) - q.r) <= band):
        fails.append("recompute: an iterate sits on the barrier sphere")
    S = S1[:-1]
    V1 = q.primal_velocity(X[:-1], Y[:-1], S)
    V2 = (q.C[S] @ X[:-1, :, None])[..., 0] - q.w[S]
    fails += _mismatch("recompute X", X[:-1] + a[:, None] * (V1 + M1[:-1]), X[1:])
    fails += _mismatch("recompute Y", Y[:-1] + b[:, None] * (V2 + M2[:-1]), Y[1:])
    if not np.array_equal(S1, S2):
        fails.append("shared chain: S2 differs from S1")
    for s, p in enumerate(q.mu):
        fails += _frequency("state frequency", S1[1:], s, p)
    for col, steps in (("t_fast", a), ("t_slow", b)):
        want = np.concatenate([[0.0], np.cumsum(steps)])
        err = np.abs(t[col] - want).max() / want[-1]
        if err > CLOCK_RTOL:
            fails.append(f"clock {col}: relative error {err:.3e}")

    d = read_table(out / "diagnostics.csv")
    idx = np.minimum(np.searchsorted(t["t_slow"], d["t_slow_start"]), N)
    dist = np.linalg.norm(X[idx] - q.lam(Y[idx]), axis=1)
    err = np.abs(dist - d["dist_to_lambda"]).max()
    if err > SOLVER_TOL:
        fails.append(f"dist_to_lambda: off the closed form by {err:.3e}")

    start = min(N, int((N + 1) * (1 - cfg.get("tail_fraction", 0.1))))
    x_bar, y_bar = X[start:].mean(axis=0), Y[start:].mean(axis=0)
    x_star, y_star = q.optimum()
    for name, got, want in (("x", x_bar, x_star), ("y", y_bar, y_star)):
        err = np.abs(got - want).max()
        if err > TAIL_BOUND:
            fails.append(f"tail mean {name}: {got.tolist()} is {err:.3g} from {want.tolist()}")
    report = (out / "report.txt").read_text()
    m = re.search(r"^feasibility gap .*= (\S+)$", report, re.M)
    gap = float(np.linalg.norm(q.C_mu @ x_bar - q.w_mu))
    if m is None or not np.isclose(float(m.group(1)), gap, rtol=1e-5, atol=1e-12):
        fails.append(f"report feasibility gap: {m and m.group(1)} != {gap:.6g}")
    return fails


def check_saddle_replicas(out: Path, cfg: dict, replicas: int) -> list[str]:
    """``twoscale saddle --replicas``: the index, then each replica as above."""
    with open(out / "replicas.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    want = [(i, cfg["seed"] + i) for i in range(replicas)]
    got = [(int(r["replica"]), int(r["seed"])) for r in rows]
    if got != want:
        return [f"replica index: {got} != {want}"]
    fails = []
    for i, row in enumerate(rows):
        if int(row["exit_code"]) == 0:
            rcfg = dict(cfg, seed=cfg["seed"] + i)
            fails += [f"replica {i}: {f}" for f in check_saddle(out / f"replica_{i:03d}", rcfg)]
    return fails


def check_dual_envelope(out: Path, cfg: dict) -> list[str]:
    """``twoscale solve-di --envelope`` on the dual flow of a quadratic problem."""
    q = QuadraticSaddle(cfg["field"]["saddle_dual"])
    path = read_table(out / "di_path.csv")
    env = read_table(out / "envelope.csv")
    times, Z = path["t"], _stack(path, "z")
    fails = []
    if not np.array_equal(times, env["t"]):
        return ["knots: envelope.csv and di_path.csv have different times"]
    err = np.abs(env["V"] - q.dual_value(Z)).max()
    if err > SOLVER_TOL:
        fails.append(f"dual value: V off the closed-form Q(y) by {err:.3e}")
    # Euler on y' = A (y - y*): per eigen-rate h = |l| dt <= 1 the error
    # |(1-h)^n - e^{-nh}| is at most n h^2 / 2, so at most T dt l^2 / 2.
    A, c = q.flow()
    ls, Q = np.linalg.eigh(A)
    y_star = np.linalg.solve(A, -c)
    dt, T = float(cfg["dt"]), float(times[-1])
    z0 = Z[0] - y_star
    exact = y_star + ((Q.T @ z0)[None, :] * np.exp(np.outer(times, ls))) @ Q.T
    bound = 0.5 * T * dt * float((ls**2).max()) * float(np.linalg.norm(z0)) + SOLVER_TOL
    err = np.linalg.norm(Z - exact, axis=1).max()
    if err > bound:
        fails.append(f"exact flow: path is {err:.3e} from it, bound {bound:.3e}")
    if np.diff(env["V"]).min() < 0:
        fails.append("monotone: V decreases somewhere")
    worst = np.abs(env["discrepancy"]).max()
    if worst > ENVELOPE_TOL:
        fails.append(f"envelope discrepancy: {worst:.3e} > {ENVELOPE_TOL}")
    return fails


def check_setvalued(out: Path, cfg: dict) -> list[str]:
    """``twoscale run``: sign_fast from x0 = 0, negate_y with slow noise."""
    t = read_table(out / "trajectory.csv")
    X, Y, M2 = _stack(t, "X"), _stack(t, "Y"), _stack(t, "M2_")
    N = len(X) - 1
    _, b = _steps(cfg["schedule"], N)
    fails = []
    if np.any(X != 0.0):
        n = int(np.flatnonzero(np.any(X != 0.0, axis=1))[0])
        fails.append(f"fixed point: X[{n}] = {X[n].tolist()}, not 0")
    fails += _mismatch("recompute Y", Y[:-1] + b[:, None] * (-Y[:-1] + M2[:-1]), Y[1:])
    scale = cfg["noise"]["slow_scale"]
    if np.abs(M2).max() > scale:
        fails.append(f"noise scale: |M2| reaches {np.abs(M2).max():.6g} > {scale}")
    # At x = 0 the x_threshold kernel's row is (0.9, 0.1) from every state.
    S1 = t["S1"].astype(int)[1:]
    fails += _frequency("S1 frequency", S1, 0, 0.9)
    fails += _frequency("S1 frequency", S1, 1, 0.1)
    return fails

"""Finite-alphabet iterate-dependent Markov noise and its stationary sets.

The noise chains are driven by row oracles (x, y, s) -> probability row.
Freezing the iterates gives an ordinary stochastic matrix whose stationary
distributions form a polytope; its vertices are the unique stationary rows
of the recurrent communicating classes.  The slow-measure family couples a
point of the fast attractor with a stationary row of the kernel frozen
there, which is the product form that generates the slow averaging family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FiniteKernel",
    "StationarySet",
    "SlowMeasure",
    "stationary_set",
    "sample_next",
    "slow_measure_family",
]

ROW_TOL = 1e-12
STATIONARY_TOL = 1e-10
MARGINAL_TOL = 1e-8


class FiniteKernel:
    """Transition-row oracle (x, y, s) -> probability row over the alphabet."""

    def __init__(self, alphabet: int, row: Callable):
        if alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        self.alphabet = int(alphabet)
        self._row = row
        self.matrix = None  # set by ``constant``
        self._stationary = None

    @classmethod
    def constant(cls, matrix) -> "FiniteKernel":
        P = np.asarray(matrix, dtype=float)
        _check_stochastic(P)
        P.flags.writeable = False
        kern = cls(P.shape[0], lambda x, y, s, _P=P: _P[s])
        kern.matrix = P
        kern._cum = np.cumsum(P, axis=1)
        return kern

    def row(self, x, y, s: int) -> np.ndarray:
        if not 0 <= s < self.alphabet:
            raise ValueError(f"state {s} outside alphabet of size {self.alphabet}")
        r = np.asarray(self._row(x, y, s), dtype=float)
        if r.shape != (self.alphabet,):
            raise ValueError(f"row oracle returned shape {r.shape}")
        return r

    def frozen(self, x, y) -> np.ndarray:
        """Transition matrix with the iterates held fixed."""
        return np.array([self.row(x, y, s) for s in range(self.alphabet)])

    def stationary(self, x, y) -> "StationarySet":
        """Stationary set of the kernel frozen at ``(x, y)``.

        A constant kernel's set is solved once and kept; it is read-only.
        """
        if self._stationary is not None:
            return self._stationary
        stat = stationary_set(self.frozen(x, y))
        if self.matrix is not None:
            self._stationary = stat
        return stat


def _check_stochastic(P: np.ndarray, tol: float = ROW_TOL) -> None:
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"transition matrix must be square, got {P.shape}")
    for i, row in enumerate(P):
        if np.any(row < -tol):
            raise ValueError(f"row {i} has a negative entry: {row}")
        if abs(row.sum() - 1.0) > tol:
            raise ValueError(f"row {i} sums to {row.sum()!r}, not 1")


@dataclass(frozen=True)
class StationarySet:
    """Vertex rows of the stationary-distribution polytope {mu : mu P = mu}."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def residuals(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        return np.abs(self.vertices @ P - self.vertices).max(axis=1)


def _tarjan_scc(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly-connected components."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def stationary_set(P, support_tol: float = 0.0) -> StationarySet:
    """Vertices of the stationary polytope of a row-stochastic matrix.

    Recurrent communicating classes are found with Tarjan's algorithm on the
    support graph; each class contributes the unique stationary row of its
    restricted chain, solved by LU with partial pivoting.
    """
    P = np.asarray(P, dtype=float)
    _check_stochastic(P)
    n = P.shape[0]
    adj = [list(np.nonzero(P[i] > support_tol)[0]) for i in range(n)]
    comps = _tarjan_scc(adj)
    comp_of = np.empty(n, dtype=int)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    recurrent = []
    for ci, comp in enumerate(comps):
        if all(comp_of[w] == ci for v in comp for w in adj[v]):
            recurrent.append(sorted(comp))
    vertices = []
    for comp in sorted(recurrent):
        idx = np.array(comp)
        Q = P[np.ix_(idx, idx)]
        m = len(idx)
        # mu Q = mu with sum(mu) = 1: replace one equation by normalization.
        A = Q.T - np.eye(m)
        A[-1, :] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        mu_local = np.linalg.solve(A, rhs)
        mu = np.zeros(n)
        mu[idx] = mu_local
        resid = float(np.abs(mu @ P - mu).max())
        if resid > STATIONARY_TOL:
            raise RuntimeError(
                f"stationary solve residual {resid} exceeds {STATIONARY_TOL} "
                f"for class {comp}"
            )
        vertices.append(np.clip(mu, 0.0, None))
    return StationarySet(np.array(vertices))


def sample_next(K: FiniteKernel, x, y, s: int, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of the next noise state; advances ``rng`` in place."""
    cum = getattr(K, "_cum", None)
    if cum is None:
        cum = np.cumsum(K.row(x, y, s))
    else:
        if not 0 <= s < K.alphabet:
            raise ValueError(f"state {s} outside alphabet of size {K.alphabet}")
        cum = cum[s]
    u = rng.random()
    return int(min(np.searchsorted(cum, u), K.alphabet - 1))


@dataclass
class SlowMeasure:
    """Finite probability measure on (fast iterate, noise state) pairs.

    The slow averaging family is generated by the products delta_{x*} (x) nu
    of ``slow_measure_family``; the occupation measures of the recursion
    (``recursion.occupation``) are measures of the same kind.
    """

    xs: np.ndarray      # (n_atoms, d1)
    states: np.ndarray  # (n_atoms,)
    weights: np.ndarray  # (n_atoms,), nonnegative, sums to 1

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        self.states = np.asarray(self.states, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (len(self.xs) == len(self.states) == len(self.weights)):
            raise ValueError("atom arrays must share length")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > ROW_TOL:
            raise ValueError("weights must be a probability vector")

    def s_marginal(self, alphabet: int) -> np.ndarray:
        out = np.zeros(alphabet)
        np.add.at(out, self.states, self.weights)
        return out

    def x_mass_within(self, centers, radius: float) -> float:
        """Mass of the atoms whose iterate lies within ``radius`` of a center."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        mass = 0.0
        for xa, w in zip(self.xs, self.weights):
            if np.linalg.norm(centers - xa, axis=1).min() <= radius:
                mass += w
        return float(mass)

    def mix(self, other: "SlowMeasure", t: float) -> "SlowMeasure":
        if not 0.0 <= t <= 1.0:
            raise ValueError("mixture weight must be in [0, 1]")
        return SlowMeasure(
            xs=np.vstack([self.xs, other.xs]),
            states=np.concatenate([self.states, other.states]),
            weights=np.concatenate([t * self.weights, (1 - t) * other.weights]),
        )

    def validate(
        self,
        kernel: FiniteKernel,
        y,
        lambda_points,
        support_tol: float = 1e-9,
        marginal_tol: float = MARGINAL_TOL,
    ) -> bool:
        """Support containment in lambda(y) and one-step stationarity."""
        lam = np.atleast_2d(np.asarray(lambda_points, dtype=float))
        for xa, w in zip(self.xs, self.weights):
            if w == 0.0:
                continue
            gap = np.linalg.norm(lam - xa, axis=1).min()
            if gap > support_tol:
                return False
        marginal = self.s_marginal(kernel.alphabet)
        image = np.zeros(kernel.alphabet)
        for xa, sa, w in zip(self.xs, self.states, self.weights):
            image += w * kernel.row(xa, y, int(sa))
        return bool(np.abs(image - marginal).max() <= marginal_tol)


def slow_measure_family(
    y, lambda_points, K2: FiniteKernel
) -> list[SlowMeasure]:
    """Generating subfamily of the slow averaging measures at ``y``.

    For each sampled attractor point x*, freeze the kernel at (x*, y) and
    couple x* with every vertex of the resulting stationary polytope.  The
    full family is the closed convex hull of these products; mixtures are
    formed on demand via ``SlowMeasure.mix``.
    """
    lam = np.atleast_2d(np.asarray(lambda_points, dtype=float))
    if lam.size == 0:
        raise ValueError("lambda_points must be nonempty")
    out = []
    for x_star in lam:
        for nu in K2.stationary(x_star, y).vertices:
            keep = nu > 0.0
            out.append(
                SlowMeasure(
                    xs=np.repeat(x_star[None, :], keep.sum(), axis=0),
                    states=np.nonzero(keep)[0],
                    weights=nu[keep],
                )
            )
    return out

"""Finite-alphabet iterate-dependent Markov noise and its stationary sets.

The noise chains are driven by row oracles (x, y, s) -> probability row.
Freezing the iterates gives an ordinary stochastic matrix whose stationary
distributions form a polytope; its vertices are the unique stationary rows
of the recurrent communicating classes.  The slow-measure family couples a
point of the fast attractor with a stationary row of the kernel frozen
there, which is the product form that generates the slow averaging family.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

__all__ = [
    "FiniteKernel",
    "StationarySet",
    "SlowMeasure",
    "stationary_set",
    "sample_next",
    "next_state",
    "constant_walk",
    "slow_measure_family",
]

ROW_TOL = 1e-12
STATIONARY_TOL = 1e-10
MARGINAL_TOL = 1e-8
# Largest distance of a measure's iterate atom from lambda(y) that
# ``SlowMeasure.validate`` still counts as support containment.
SUPPORT_TOL = 1e-9


class FiniteKernel:
    """Transition-row oracle (x, y, s) -> probability row over the alphabet."""

    def __init__(self, alphabet: int, row: Callable):
        if alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        self.alphabet = int(alphabet)
        self._row = row
        self.matrix = None  # set by ``constant``, with its cumulative rows
        self._cum = None
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
        self.check_state(s)
        r = np.asarray(self._row(x, y, s), dtype=float)
        if r.shape != (self.alphabet,):
            raise ValueError(f"row oracle returned shape {r.shape}")
        return r

    def check_state(self, s: int) -> None:
        if not 0 <= s < self.alphabet:
            raise ValueError(f"state {s} outside alphabet of size {self.alphabet}")

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
        if not np.isfinite(row).all():
            raise ValueError(f"row {i} has a non-finite entry: {row}")
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


def stationary_set(P) -> StationarySet:
    """Vertices of the stationary polytope of a row-stochastic matrix.

    The reachability matrix of the support graph (an edge per positive
    entry) is closed under boolean squaring.  A state is recurrent when every
    state it reaches reaches it back, and its reach row is then its closed
    class.  Classes are taken in order of their lowest state; each
    contributes the unique stationary row of its restricted chain, solved by
    LU with partial pivoting.
    """
    P = np.asarray(P, dtype=float)
    _check_stochastic(P)
    n = P.shape[0]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    while not np.array_equal(closed := reach @ reach, reach):
        reach = closed
    recurrent = (reach <= reach.T).all(axis=1)
    vertices = []
    for i in np.flatnonzero(recurrent):
        idx = np.flatnonzero(reach[i])
        if idx[0] != i:  # the class was taken at its lowest state
            continue
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
                f"for class {idx.tolist()}"
            )
        vertices.append(np.clip(mu, 0.0, None))
    return StationarySet(np.array(vertices))


def sample_next(K: FiniteKernel, x, y, s: int, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of the next noise state, ``next_state`` at one
    ``rng.random()``; advances ``rng`` in place."""
    return next_state(K, x, y, s, rng.random())


def next_state(K: FiniteKernel, x, y, s: int, u: float) -> int:
    """The state whose cumulative-row interval holds the uniform ``u``.

    The row ``K.row(x, y, s)`` is summed left to right on Python floats and
    searched by ``bisect_left``; the index is clipped to the last state.
    Both steps match numpy's, so this is ``min(np.searchsorted(
    np.cumsum(row), u), n - 1)`` on every row, but without numpy's per-call
    overhead, which dominates on rows this short.  A row whose last partial
    sum is not within ``ROW_TOL`` of 1 (also caught: NaN and inf), or with
    an entry below ``-ROW_TOL``, is refused.
    """
    row = K.row(x, y, s).tolist()
    cum = list(accumulate(row))
    if not (abs(cum[-1] - 1.0) <= ROW_TOL and min(row) >= -ROW_TOL):
        raise ValueError(f"kernel row for state {s} is not a probability row: {row}")
    return min(bisect_left(cum, u), len(row) - 1)


def constant_walk(K: FiniteKernel, s: int, u: np.ndarray) -> list:
    """States s_1..s_B of a constant kernel's chain from s_0 = ``s``, where
    s_{i+1} = ``next_state(K, ., ., s_i, u[i])``: one vectorized search per
    state over the cumulative rows, then a walk over plain lists."""
    last = K.alphabet - 1
    table = [np.minimum(np.searchsorted(c, u), last).tolist() for c in K._cum]
    states = []
    for row in zip(*table):
        s = row[s]
        states.append(s)
    return states


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

    def validate(self, kernel: FiniteKernel, y, lambda_points) -> bool:
        """Support containment in lambda(y) (to ``SUPPORT_TOL``) and one-step
        stationarity (to ``MARGINAL_TOL``)."""
        lam = np.atleast_2d(np.asarray(lambda_points, dtype=float))
        for xa, w in zip(self.xs, self.weights):
            if w == 0.0:
                continue
            gap = np.linalg.norm(lam - xa, axis=1).min()
            if gap > SUPPORT_TOL:
                return False
        marginal = self.s_marginal(kernel.alphabet)
        image = np.zeros(kernel.alphabet)
        for xa, sa, w in zip(self.xs, self.states, self.weights):
            image += w * kernel.row(xa, y, int(sa))
        return bool(np.abs(image - marginal).max() <= MARGINAL_TOL)


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

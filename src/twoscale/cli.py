"""Batch experiment runner: validate configs, run recursions, solve inclusions.

One JSON config document describes an experiment; subcommands validate it,
drive the recursion and emit plot-ready CSVs, or integrate a differential
inclusion.  Exit codes: 0 ok, 1 validation failure, 2 runtime divergence,
3 I/O error, 4 numerical failure (the inner solver stalled).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .convex import ConvexSet
from .csvtable import write_table
from .dynamics import apt_metric, di_solve
from .markov import FiniteKernel
from .meanfield import MeanField, check_marchaud
from .recursion import (
    DivergenceError,
    NoiseModel,
    StepSchedule,
    interpolate,
    interpolation_gap,
    run,
    start_knots,
    window_starts,
)
from .saddle import (
    SaddleProblem,
    SolverStallError,
    dual_drift,
    dual_ode_field,
    lambda_min,
    optimality_report,
    primal_drift,
    quadratic_problem,
    run_primal_dual,
    verify_envelope,
)
from .svmaps import SetValuedMap, validate_sam

__all__ = ["main", "load_config", "build_problem", "ConfigError"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Config parse or semantic error, carrying the offending field path."""


def _get(cfg: dict, key: str, path: str, required: bool = True, default=None):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object, got {type(cfg).__name__}")
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return cfg[key]


def _number(cfg: dict, key: str, path: str, default=None, kind=float, low=None):
    """A numeric field as ``kind``, required when it has no default; a
    non-numeric value, a float that is not integral where ``kind`` is int
    (such as 1.5 or inf), or one below ``low``, is a ``ConfigError`` naming
    the field."""
    value = _get(cfg, key, path, required=default is None, default=default)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}") from None
    if low is not None and not value >= low:
        raise ConfigError(f"{path}.{key}: must be >= {low}, got {value}")
    return value


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: not a numeric array ({err})") from None
    return arr


def _vector(value, n: int, path: str) -> np.ndarray:
    """A flat list of ``n`` finite numbers as a float array."""
    arr = _matrix(value, path)
    if arr.shape != (n,):
        raise ConfigError(f"{path}: expected {n} numbers, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: must be finite, got {arr.tolist()}")
    return arr


# -- registries of named built-ins ----------------------------------------

def _zmap_sign(dim):
    neg, pos = -np.ones(dim), np.ones(dim)
    neg.flags.writeable = pos.flags.writeable = False
    both = ConvexSet(np.vstack([neg, pos]))
    return (
        (lambda z: neg if z[0] > 0 else pos if z[0] < 0 else None), lambda z: both, None
    )


def _zmap_zero(dim):
    zero = np.zeros(dim)
    zero.flags.writeable = False
    return (lambda z: zero), None, lambda Z: np.zeros((len(Z), dim))


# z-maps by name: dim -> (point, kink, rows).  ``point(z)`` is the value's
# single generator as a (dim,) array, or None where the value has more;
# ``kink(z)`` is the value there (None for a map single-valued everywhere);
# ``rows(Z)`` is ``point`` at each row of Z (the drifts' ``point_rows``), or
# None.  Constant values are built once per map.  ``sign`` has no row form,
# so ``recursion.run`` steps it one step at a time: its jump defeats the
# block sweep.  A guessed iterate on the wrong side of the kink flips its
# velocity, and on the kink every row is set-valued and is selected on its
# own.  Given a row form, 15,000 steps of the ``setvalued_run`` shape with a
# constant kernel took 0.22 s swept against 0.10 s per step where x crosses
# the kink before landing on it, and 0.30 s against 0.10 s where x rests on
# it from the start.
ZMAPS = {
    "negate": lambda dim: ((lambda z: -z), None, lambda Z: -Z),
    "zero": _zmap_zero,
    "identity": lambda dim: ((lambda z: z.copy()), None, lambda Z: Z.copy()),
    "sign": _zmap_sign,
}


def zmap(name: str, dim: int):
    """Point form, set form and row form (or None) of a built-in z-map; the
    set form is the singleton of the point form wherever that is defined."""
    point, kink, rows = ZMAPS[name](dim)

    def value(z):
        p = point(z)
        return kink(z) if p is None else ConvexSet.singleton(p)

    return point, value, rows


# Drift name -> (iterate the z-map reads, z-map); the value lives in that
# iterate's space.
DRIFTS = {
    "negate_x": ("x", "negate"),
    "negate_y": ("y", "negate"),
    "zero_fast": ("x", "zero"),
    "zero_slow": ("y", "zero"),
    "expand_x": ("x", "identity"),
    "sign_fast": ("x", "sign"),
}

# Field name of a ``di`` config -> z-map.
FIELDS = {"sign": "sign", "linear_decay": "negate"}


def _kernel_x_threshold(alphabet):
    # Iterate-dependent example: the chain prefers state 0 where the first
    # fast coordinate is nonnegative, state 1 elsewhere.
    if alphabet != 2:
        raise ConfigError("kernel.x_threshold: needs a 2-state alphabet")

    def row(x, y, s):
        if x[0] >= 0:
            return np.array([0.9, 0.1])
        return np.array([0.1, 0.9])

    return FiniteKernel(2, row)


NAMED_KERNELS = {"x_threshold": _kernel_x_threshold}


def _build_kernel(spec, alphabet: int, path: str) -> FiniteKernel:
    if isinstance(spec, dict):
        name = _get(spec, "name", path)
        if name not in NAMED_KERNELS:
            raise ConfigError(
                f"{path}.name: unknown kernel {name!r}; have {sorted(NAMED_KERNELS)}"
            )
        return NAMED_KERNELS[name](alphabet)
    P = _matrix(spec, path)
    if P.ndim != 2 or P.shape != (alphabet, alphabet):
        raise ConfigError(
            f"{path}: expected a {alphabet}x{alphabet} matrix, got shape {P.shape}"
        )
    try:
        return FiniteKernel.constant(P)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _build_schedule(cfg: dict, path: str = "schedule") -> StepSchedule:
    alpha = _number(cfg, "alpha", path)
    beta = _number(cfg, "beta", path)
    a0 = _number(cfg, "a0", path, 1.0)
    b0 = _number(cfg, "b0", path, 1.0)
    try:
        return StepSchedule(alpha=alpha, beta=beta, a0=a0, b0=b0)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _build_noise(cfg, path: str = "noise") -> NoiseModel:
    if cfg is None:
        return NoiseModel()
    fast = _number(cfg, "fast_scale", path, 0.0)
    slow = _number(cfg, "slow_scale", path, 0.0)
    try:
        return NoiseModel(
            kind=_get(cfg, "kind", path, required=False, default="uniform"),
            fast_scale=fast,
            slow_scale=slow,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def build_problem(cfg: dict, path: str = "problem") -> SaddleProblem:
    theta = np.atleast_2d(_matrix(_get(cfg, "theta", path), f"{path}.theta"))
    C = _matrix(_get(cfg, "C", path), f"{path}.C")
    w = _matrix(_get(cfg, "w", path), f"{path}.w")
    if C.ndim != 3:
        raise ConfigError(f"{path}.C: expected per-state matrices (|S|, d2, d1)")
    S, d2, d1 = C.shape
    for key, arr, cols in (("w", w, d2), ("theta", theta, d1)):
        if arr.shape != (S, cols):
            raise ConfigError(
                f"{path}.{key}: shape {arr.shape}, need ({S}, {cols}) to match {path}.C"
            )
    kernel = _build_kernel(_get(cfg, "kernel", path), S, f"{path}.kernel")
    feas = _get(cfg, "feasible_points", path, required=False)
    epsilon = _number(cfg, "epsilon", path)
    radius = _number(cfg, "radius", path)
    growth = _number(cfg, "growth", path) if "growth" in cfg else None
    try:
        P = quadratic_problem(
            theta=theta,
            C=C,
            w=w,
            kernel=kernel,
            epsilon=epsilon,
            radius=radius,
            growth_K=growth,
            feasible_points=feas,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    try:
        P.mu  # every saddle run and dual field needs a unique stationary law
    except ValueError as err:
        raise ConfigError(f"{path}.kernel: {err}") from None
    return P


def load_config(path) -> dict:
    p = Path(path)
    text = p.read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON at line {err.lineno}: {err.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def _apply_overrides(cfg: dict, args) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.steps is not None:
        cfg["steps"] = args.steps
    if args.out is not None:
        cfg["out"] = args.out
    seed = _number(cfg, "seed", "config", 0, int)
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: must be an unsigned 64-bit value")
    _number(cfg, "steps", "config", 1, int, low=1)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()


def drift_map(name: str, d1: int, d2: int, alphabet: int) -> SetValuedMap:
    """The built-in drift ``name`` (a ``DRIFTS`` key) with its point form,
    and its row form where the z-map has one."""
    read, zname = DRIFTS[name]
    k = d1 if read == "x" else d2
    point, value, rows = zmap(zname, k)
    if read == "x":
        evaluate, at = (lambda x, y, s: value(x)), (lambda x, y, s: point(x))
        at_rows = lambda X, Y, S: rows(X)
    else:
        evaluate, at = (lambda x, y, s: value(y)), (lambda x, y, s: point(y))
        at_rows = lambda X, Y, S: rows(Y)
    # The values lie in the ball of radius max(||z||, sqrt(k)) (sign's
    # vertices have norm sqrt(k)).
    return SetValuedMap(
        dims=(d1, d2, k), alphabet=alphabet,
        evaluate=evaluate, growth_K=math.sqrt(k), point=at,
        point_rows=None if rows is None else at_rows,
    )


def _build_generic(cfg: dict):
    """Drifts, kernels, initial iterates and initial states ``(s1_0, s2_0)``
    of a ``two_timescale`` config."""
    d1, d2 = (_number(cfg, k, "config", kind=int, low=1) for k in ("d1", "d2"))
    alphabet = _number(cfg, "alphabet", "config", 1, int, low=1)

    def drift(key, scale, dim):
        path = f"config.{key}"
        name = _get(_get(cfg, key, "config"), "name", path)
        if name not in DRIFTS:
            raise ConfigError(
                f"{path}.name: unknown drift {name!r}; have {sorted(DRIFTS)}"
            )
        H = drift_map(name, d1, d2, alphabet)
        if H.dims[2] != dim:
            raise ConfigError(
                f"{path}.name: drift {name!r} has values of dimension {H.dims[2]}, "
                f"the {scale} iterate has dimension {dim}"
            )
        return H

    H1 = drift("drift_fast", "fast", d1)
    H2 = drift("drift_slow", "slow", d2)

    def kernel(key):
        spec = cfg.get(key, np.eye(alphabet).tolist())
        return _build_kernel(spec, alphabet, f"config.{key}")

    K1, K2 = kernel("kernel_fast"), kernel("kernel_slow")
    x0 = _vector(cfg.get("x0", [0.0] * d1), d1, "config.x0")
    y0 = _vector(cfg.get("y0", [0.0] * d2), d2, "config.y0")
    s0 = tuple(_number(cfg, k, "config", 0, int) for k in ("s1_0", "s2_0"))
    for k, s in zip(("s1_0", "s2_0"), s0):
        if not 0 <= s < alphabet:
            raise ConfigError(f"config.{k}: must lie in [0, {alphabet}), got {s}")
    return H1, H2, K1, K2, x0, y0, s0


# -- subcommands -----------------------------------------------------------

def cmd_validate(cfg: dict, out_dir: Path) -> int:
    kind = _get(cfg, "kind", "config")
    checks: list[tuple[str, bool, str]] = []

    def contract(name, rep):
        checks.append((name, rep.ok, "ok" if rep.ok else "failed"))

    if kind in ("saddle", "two_timescale"):
        # StepSchedule's constructor guarantees the step conditions.
        try:
            schedule = _build_schedule(_get(cfg, "schedule", "config"))
        except ConfigError as err:
            checks.append(("schedule", False, str(err)))
        else:
            checks.append(("schedule", True, "ok"))
            try:
                _diagnostics_settings(cfg, schedule, _run_steps(cfg))
                checks.append(("diagnostics", True, "ok"))
            except ConfigError as err:
                checks.append(("diagnostics", False, str(err)))

    # Each construction line builds what its command builds, with the same
    # helpers, so it fails where the command would.
    if kind == "saddle":
        try:
            _build_noise(cfg.get("noise"))
            P, _, _ = _build_saddle(cfg)
            checks.append(("problem construction", True, "ok"))
            grid = [
                (x, np.zeros(P.d2) + yv, s)
                for x in (np.zeros(P.d1), np.ones(P.d1), -2.0 * np.ones(P.d1))
                for yv in (-1.0, 1.0)
                for s in range(P.alphabet)
            ]
            contract("primal drift SAM", validate_sam(primal_drift(P), grid))
            contract("dual drift SAM", validate_sam(dual_drift(P), grid))
            zs = [np.full(P.d2, v) for v in (-1.0, 0.0, 1.0)]
            contract("dual mean field Marchaud", check_marchaud(dual_ode_field(P), zs))
        except ConfigError as err:
            checks.append(("problem construction", False, str(err)))
    elif kind == "two_timescale":
        try:
            _build_noise(cfg.get("noise"))
            H1, H2, K1, K2, x0, y0, _ = _build_generic(cfg)
            checks.append(("drift construction", True, "ok"))
            grid = [(x0, y0, s) for s in range(H1.alphabet)]
            contract("fast drift SAM", validate_sam(H1, grid))
            contract("slow drift SAM", validate_sam(H2, grid))
        except ConfigError as err:
            checks.append(("drift construction", False, str(err)))
    elif kind == "di":
        try:
            field, _ = _build_di_field(cfg)
            _di_settings(cfg, field)
            checks.append(("field construction", True, "ok"))
        except ConfigError as err:
            checks.append(("field construction", False, str(err)))
    else:
        checks.append(("kind", False, f"unknown experiment kind {kind!r}"))

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "validation_report.txt"
    with open(report_path, "w") as fh:
        for name, ok, msg in checks:
            line = f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}"
            fh.write(line + "\n")
            print(line)
    print(f"report written to {report_path}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_VALIDATION


def _write_manifest(out_dir: Path, cfg: dict, seed: int, extra=None) -> None:
    from . import __version__

    manifest = {
        "seed": seed,
        "config_sha256": _config_hash(cfg),
        "twoscale_version": __version__,
        "numpy_version": np.__version__,
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_table(path: Path, columns, data) -> None:
    """Write the column arrays ``data`` to a CSV under a ``# columns:``
    comment and a header row (see ``csvtable.write_table``)."""
    write_table(path, ", ".join(columns), columns, data)


def _run_steps(cfg: dict) -> int:
    """Steps of a run of ``cfg``: its ``steps``, or 1 where it has none."""
    return int(cfg.get("steps", 1))


def _diagnostics_settings(cfg: dict, schedule: StepSchedule, steps: int) -> dict:
    """The ``diagnostics`` settings with their defaults, and ``tail_fraction``,
    each range-checked (NaN fails every check); ``window_T`` and
    ``apt_horizon`` must also fit in the slow clock of ``steps`` steps of
    ``schedule``.  A run reads them before
    its recursion starts, so a refused run writes nothing."""
    path = "config.diagnostics"
    diag_cfg = cfg.get("diagnostics", {})
    d = {
        key: _number(diag_cfg, key, path, default, type(default))
        for key, default in (("window_T", 1.0), ("n_windows", 16),
                             ("apt_horizon", 2.0), ("apt_dt", 0.005), ("K_terms", 4))
    }
    for key, ok, need in (
        ("n_windows", d["n_windows"] >= 1, ">= 1"),
        ("window_T", d["window_T"] > 0, "> 0"),
        ("apt_dt", d["apt_dt"] > 0, "> 0"),
        ("apt_horizon", d["apt_horizon"] >= d["apt_dt"], "at least apt_dt"),
        ("K_terms", d["K_terms"] >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"{path}.{key}: must be {need}, got {d[key]}")
    d["tail_fraction"] = tail = _number(cfg, "tail_fraction", "config", 0.1)
    if not 0 < tail <= 1:
        raise ConfigError(f"config.tail_fraction: must lie in (0, 1], got {tail}")
    # The same clock as the run's Trajectory.t_slow, so the span is its last time.
    try:
        span = schedule.clock("slow", steps)[-1]
    except MemoryError:
        raise ConfigError(f"config.steps: {steps} steps do not fit in memory") from None
    for key in ("window_T", "apt_horizon"):
        if d[key] > span:
            raise ConfigError(
                f"{path}.{key}: {d[key]} exceeds the slow clock span {span} of the run"
            )
    return d


def _write_diagnostics(traj, out_dir: Path, d: dict, fast_min=None, slow_field=None):
    """``diagnostics.csv`` of ``traj``: per window, its slow-clock start, the
    interpolation gap, the APT metric against the flow of ``slow_field`` and
    the distance of X from ``fast_min`` of Y at the start knot; a column whose
    map is ``None`` is NaN."""
    T_w, apt_T = d["window_T"], d["apt_horizon"]
    starts = window_starts(traj, max(T_w, apt_T), d["n_windows"])
    gaps = interpolation_gap(traj, T_w, starts)
    apts, dists = np.full((2, len(starts)), np.nan)
    if slow_field is not None:
        # Every window's flow in one batched integration.
        flows = di_solve(
            slow_field, interpolate(traj, "slow", starts), T=apt_T, dt=d["apt_dt"]
        )
        end = traj.t_slow[-1]
        for w, t0 in enumerate(starts):
            sampled = interpolate(traj, "slow", np.minimum(t0 + flows.times, end))
            apts[w] = apt_metric(flows.times, sampled, flows.states[:, w], d["K_terms"])
    if fast_min is not None:
        n_idx = start_knots(traj, starts)
        for w, lam in enumerate(fast_min(traj.Y[n_idx])):
            dists[w] = np.linalg.norm(traj.X[n_idx[w]] - lam)
    _write_table(
        out_dir / "diagnostics.csv",
        ["window", "t_slow_start", "interpolation_gap", "apt_metric", "dist_to_lambda"],
        [np.arange(len(starts)), starts, gaps, apts, dists],
    )


def _build_saddle(cfg: dict):
    """The problem and initial iterates ``(P, x0, y0)`` of a ``saddle`` config."""
    P = build_problem(_get(cfg, "problem", "config"))
    x0 = _vector(cfg.get("x0", [0.0] * P.d1), P.d1, "config.x0")
    y0 = _vector(cfg.get("y0", [0.0] * P.d2), P.d2, "config.y0")
    return P, x0, y0


def _build_run(cfg: dict):
    """Everything a run of ``cfg`` reads from it: ``(kind, schedule, noise,
    steps, diagnostics settings, model)``, the model being ``_build_saddle``'s
    or ``_build_generic``'s tuple.  A refused config raises ``ConfigError``
    here, before anything is written."""
    kind = _get(cfg, "kind", "config")
    schedule = _build_schedule(_get(cfg, "schedule", "config"))
    noise = _build_noise(cfg.get("noise"))
    steps = _run_steps(cfg)
    settings = _diagnostics_settings(cfg, schedule, steps)
    if kind == "saddle":
        model = _build_saddle(cfg)
    elif kind == "two_timescale":
        model = _build_generic(cfg)
    else:
        raise ConfigError(f"config.kind: cannot run experiments of kind {kind!r}")
    return kind, schedule, noise, steps, settings, model


def _run_single(cfg: dict, seed: int, out_dir: Path) -> int:
    kind, schedule, noise, steps, settings, model = _build_run(cfg)
    try:
        if kind == "saddle":
            P, x0, y0 = model
            traj = run_primal_dual(
                P, schedule, N=steps, seed=seed, noise=noise, x0=x0, y0=y0
            )
            maps = (lambda Y: lambda_min(P, Y)), dual_ode_field(P)
        else:
            H1, H2, K1, K2, x0, y0, (s1, s2) = model
            traj = run(H1, H2, K1, K2, schedule, x0, y0, s1, s2, steps, seed, noise=noise)
            maps = None, None
        out_dir.mkdir(parents=True, exist_ok=True)
        traj.to_csv(out_dir / "trajectory.csv")
        _write_diagnostics(traj, out_dir, settings, *maps)
        if kind == "saddle":
            rep = optimality_report(P, traj, tail_fraction=settings["tail_fraction"])
            (out_dir / "report.txt").write_text("\n".join(rep.lines()) + "\n")
    except DivergenceError as err:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, cfg, seed, {"divergence_step": err.step})
        print(f"divergence at step {err.step}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SolverStallError as err:
        out_dir.mkdir(parents=True, exist_ok=True)
        stall = {"residual": err.residual, "iterations": err.iterations}
        _write_manifest(out_dir, cfg, seed, {"solver_stall": stall})
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(out_dir, cfg, seed)
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_run(cfg: dict, out_dir: Path, replicas: int) -> int:
    seed = int(cfg.get("seed", 0))
    if replicas == 1:
        return _run_single(cfg, seed, out_dir)
    if seed + replicas - 1 >= 2**64:
        raise ConfigError(
            f"config.seed: replica seeds run to seed + {replicas - 1}, "
            "which must stay below 2^64"
        )
    # The replicas share the config: refuse it here, before the output
    # directory exists, as a single run would.
    _build_run(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (seed + i, out_dir / f"replica_{i:03d}") for i in range(replicas)
    ]
    workers = min(replicas, 8, _usable_cpus())
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_single, cfg, s, d) for s, d in jobs]
        codes = [f.result() for f in futures]
    _write_table(
        out_dir / "replicas.csv",
        ["replica", "seed", "exit_code"],
        [np.arange(replicas), np.array([s for s, _ in jobs]), np.array(codes)],
    )
    return max(codes)


def _build_di_field(cfg: dict):
    spec = _get(cfg, "field", "config")
    if "saddle_dual" in spec:
        P = build_problem(spec["saddle_dual"], path="config.field.saddle_dual")
        return dual_ode_field(P), P
    name = _get(spec, "name", "config.field")
    if name not in FIELDS:
        raise ConfigError(f"config.field.name: unknown field {name!r}")
    dim = _number(cfg, "dim", "config", 1, int, low=1)
    # As for the drifts: sign's values have norm sqrt(dim).
    growth = math.sqrt(dim)
    return MeanField(evaluate=zmap(FIELDS[name], dim)[1], dim=dim, growth_K=growth), None


def _di_settings(cfg: dict, field: MeanField):
    """``(z0, T, dt)`` of a ``di`` config, checked as ``di_solve`` would check
    them.  ``di_solve`` steps by the least-norm selection, so ``selection``,
    where a config sets it, must be ``least_norm``."""
    z0 = _vector(_get(cfg, "z0", "config"), field.dim, "config.z0")
    T = _number(cfg, "T", "config")
    dt = _number(cfg, "dt", "config")
    if not dt > 0:
        raise ConfigError(f"config.dt: must be > 0, got {dt}")
    if not dt <= T < math.inf:
        raise ConfigError(f"config.T: must be finite and at least dt, got {T}")
    try:
        # The knots di_solve allocates; numpy refuses a size past memory at
        # once, without touching it.
        np.empty((round(T / dt) + 1, field.dim))
    except (MemoryError, ValueError, OverflowError):
        raise ConfigError(
            f"config.T: {T} makes {T / dt:.0f} Euler steps of dt {dt}, "
            "which do not fit in memory"
        ) from None
    selection = _get(cfg, "selection", "config", required=False, default="least_norm")
    if selection != "least_norm":
        raise ConfigError(
            f"config.selection: only 'least_norm' is available, got {selection!r}"
        )
    return z0, T, dt


def cmd_solve_di(cfg: dict, out_dir: Path, envelope: bool) -> int:
    field, P = _build_di_field(cfg)
    if envelope and P is None:
        raise ConfigError("config.field: --envelope needs a saddle_dual field")
    z0, T, dt = _di_settings(cfg, field)
    path = di_solve(field, z0, T=T, dt=dt)
    out_dir.mkdir(parents=True, exist_ok=True)
    path.to_csv(out_dir / "di_path.csv")
    if envelope:
        rep = verify_envelope(P, path)
        _write_table(
            out_dir / "envelope.csv",
            ["t", "V", "V0_plus_integral", "discrepancy"],
            [rep.times, rep.V, rep.V[0] + rep.integral, rep.V - rep.V[0] - rep.integral],
        )
        print(
            f"envelope max discrepancy {rep.max_discrepancy:.3e}, "
            f"monotone={rep.monotone_ok}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as validation failures do; 2 means divergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="twoscale",
        description="two-timescale stochastic recursive inclusion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "run", "solve-di", "saddle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("run", "saddle"):
            p.add_argument("--replicas", type=int, default=1)
        if name == "solve-di":
            p.add_argument("--envelope", action="store_true")
    args = parser.parse_args(argv)
    if getattr(args, "replicas", 1) < 1:
        sub.choices[args.command].error(
            f"argument --replicas: must be >= 1, got {args.replicas}"
        )

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(cfg.get("out", "runs/latest"))
    try:
        if args.command == "validate":
            return cmd_validate(cfg, out_dir)
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.replicas)
        if args.command == "saddle":
            if cfg.get("kind") != "saddle":
                raise ConfigError("config.kind: the saddle subcommand needs kind=saddle")
            return cmd_run(cfg, out_dir, args.replicas)
        if args.command == "solve-di":
            return cmd_solve_di(cfg, out_dir, args.envelope)
        raise AssertionError(args.command)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as err:
        print(f"divergence at step {err.step}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SolverStallError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment runner: validate configs, run recursions, solve inclusions.

One JSON config document describes an experiment; subcommands validate it,
drive the recursion and emit plot-ready CSVs, or integrate a differential
inclusion.  Exit codes: 0 ok, 1 validation failure, 2 runtime divergence,
3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .convex import ConvexSet
from .dynamics import apt_metric, di_solve
from .markov import FiniteKernel
from .meanfield import check_marchaud
from .recursion import (
    DivergenceError,
    NoiseModel,
    StepSchedule,
    interpolate,
    interpolation_gap,
    run,
    validate_schedule,
)
from .saddle import (
    SaddleProblem,
    dual_drift,
    dual_ode_field,
    lambda_min,
    optimality_report,
    primal_drift,
    quadratic_problem,
    run_primal_dual,
    verify_envelope,
)
from .svmaps import validate_sam

__all__ = ["main", "load_config", "build_problem", "ConfigError"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


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


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: not a numeric array ({err})") from None
    return arr


# -- registries of named built-ins ----------------------------------------

def _drift_negate_x(d1, d2, alphabet):
    return dict(
        dims=(d1, d2, d1), alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(-x), growth_K=1.0,
    )


def _drift_negate_y(d1, d2, alphabet):
    return dict(
        dims=(d1, d2, d2), alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(-y), growth_K=1.0,
    )


def _drift_zero_fast(d1, d2, alphabet):
    return dict(
        dims=(d1, d2, d1), alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(np.zeros(d1)), growth_K=1.0,
    )


def _drift_zero_slow(d1, d2, alphabet):
    return dict(
        dims=(d1, d2, d2), alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(np.zeros(d2)), growth_K=1.0,
    )


def _drift_expand_x(d1, d2, alphabet):
    return dict(
        dims=(d1, d2, d1), alphabet=alphabet,
        evaluate=lambda x, y, s: ConvexSet.singleton(x), growth_K=1.0,
    )


def _drift_sign_fast(d1, d2, alphabet):
    def evaluate(x, y, s):
        if x[0] > 0:
            return ConvexSet.singleton(-np.ones(d1))
        if x[0] < 0:
            return ConvexSet.singleton(np.ones(d1))
        return ConvexSet(np.vstack([-np.ones(d1), np.ones(d1)]))

    return dict(dims=(d1, d2, d1), alphabet=alphabet, evaluate=evaluate, growth_K=1.0)


DRIFTS = {
    "negate_x": _drift_negate_x,
    "negate_y": _drift_negate_y,
    "zero_fast": _drift_zero_fast,
    "zero_slow": _drift_zero_slow,
    "expand_x": _drift_expand_x,
    "sign_fast": _drift_sign_fast,
}


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
    try:
        return StepSchedule(
            alpha=float(_get(cfg, "alpha", path)),
            beta=float(_get(cfg, "beta", path)),
            a0=float(_get(cfg, "a0", path, required=False, default=1.0)),
            b0=float(_get(cfg, "b0", path, required=False, default=1.0)),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _build_noise(cfg, path: str = "noise") -> NoiseModel:
    if cfg is None:
        return NoiseModel()
    try:
        return NoiseModel(
            kind=_get(cfg, "kind", path, required=False, default="uniform"),
            fast_scale=float(_get(cfg, "fast_scale", path, required=False, default=0.0)),
            slow_scale=float(_get(cfg, "slow_scale", path, required=False, default=0.0)),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def build_problem(cfg: dict, path: str = "problem") -> SaddleProblem:
    theta = _matrix(_get(cfg, "theta", path), f"{path}.theta")
    C = _matrix(_get(cfg, "C", path), f"{path}.C")
    w = _matrix(_get(cfg, "w", path), f"{path}.w")
    if C.ndim != 3:
        raise ConfigError(f"{path}.C: expected per-state matrices (|S|, d2, d1)")
    if w.shape[0] != C.shape[0]:
        raise ConfigError(
            f"{path}.w: {w.shape[0]} rows for {C.shape[0]} constraint states"
        )
    kernel = _build_kernel(_get(cfg, "kernel", path), C.shape[0], f"{path}.kernel")
    feas = _get(cfg, "feasible_points", path, required=False)
    try:
        return quadratic_problem(
            theta=theta,
            C=C,
            w=w,
            kernel=kernel,
            epsilon=float(_get(cfg, "epsilon", path)),
            radius=float(_get(cfg, "radius", path)),
            growth_K=(
                float(cfg["growth"]) if "growth" in cfg else None
            ),
            feasible_points=feas,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


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
    seed = int(_get(cfg, "seed", "config", required=False, default=0))
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: must be an unsigned 64-bit value")
    steps = int(_get(cfg, "steps", "config", required=False, default=1))
    if steps < 1:
        raise ConfigError("config.steps: must be >= 1")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()


def _build_generic(cfg: dict):
    from .svmaps import SetValuedMap

    d1 = int(_get(cfg, "d1", "config"))
    d2 = int(_get(cfg, "d2", "config"))
    alphabet = int(_get(cfg, "alphabet", "config", required=False, default=1))

    def drift(key, registry_path):
        spec = _get(cfg, key, "config")
        name = _get(spec, "name", registry_path)
        if name not in DRIFTS:
            raise ConfigError(
                f"{registry_path}.name: unknown drift {name!r}; have {sorted(DRIFTS)}"
            )
        return SetValuedMap(**DRIFTS[name](d1, d2, alphabet))

    H1 = drift("drift_fast", "config.drift_fast")
    H2 = drift("drift_slow", "config.drift_slow")
    default_kernel = np.eye(alphabet)
    K1 = _build_kernel(
        cfg.get("kernel_fast", default_kernel.tolist()), alphabet, "config.kernel_fast"
    )
    K2 = _build_kernel(
        cfg.get("kernel_slow", default_kernel.tolist()), alphabet, "config.kernel_slow"
    )
    x0 = _matrix(cfg.get("x0", [0.0] * d1), "config.x0")
    y0 = _matrix(cfg.get("y0", [0.0] * d2), "config.y0")
    return H1, H2, K1, K2, x0, y0


# -- subcommands -----------------------------------------------------------

def cmd_validate(cfg: dict, out_dir: Path) -> int:
    kind = _get(cfg, "kind", "config")
    checks: list[tuple[str, bool, str]] = []

    schedule_cfg = _get(cfg, "schedule", "config")
    try:
        schedule = _build_schedule(schedule_cfg)
        rep = validate_schedule(schedule, max(int(cfg.get("steps", 1000)), 2))
        checks.append(("schedule", rep.ok, "; ".join(rep.messages) or "ok"))
    except ConfigError as err:
        checks.append(("schedule", False, str(err)))

    if kind == "saddle":
        try:
            P = build_problem(_get(cfg, "problem", "config"))
            checks.append(("problem construction", True, "ok"))
            grid = [
                (x, np.zeros(P.d2) + yv, s)
                for x in (np.zeros(P.d1), np.ones(P.d1), -2.0 * np.ones(P.d1))
                for yv in (-1.0, 1.0)
                for s in range(P.alphabet)
            ]
            rep1 = validate_sam(primal_drift(P), grid)
            checks.append(("primal drift SAM", rep1.ok, "ok" if rep1.ok else "failed"))
            rep2 = validate_sam(dual_drift(P), grid)
            checks.append(("dual drift SAM", rep2.ok, "ok" if rep2.ok else "failed"))
            fld = dual_ode_field(P)
            repm = check_marchaud(
                fld, [np.full(P.d2, v) for v in (-1.0, 0.0, 1.0)]
            )
            checks.append(("dual mean field Marchaud", repm.ok, "ok" if repm.ok else "failed"))
        except ConfigError as err:
            checks.append(("problem construction", False, str(err)))
    elif kind == "two_timescale":
        try:
            H1, H2, K1, K2, x0, y0 = _build_generic(cfg)
            grid = [(x0, y0, s) for s in range(H1.alphabet)]
            rep1 = validate_sam(H1, grid)
            rep2 = validate_sam(H2, grid)
            checks.append(("fast drift SAM", rep1.ok, "ok" if rep1.ok else "failed"))
            checks.append(("slow drift SAM", rep2.ok, "ok" if rep2.ok else "failed"))
        except ConfigError as err:
            checks.append(("drift construction", False, str(err)))
    elif kind == "di":
        try:
            _build_di_field(cfg)
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


def _saddle_diagnostics(P, traj, out_dir: Path, diag_cfg: dict) -> None:
    T_w = float(diag_cfg.get("window_T", 1.0))
    n_windows = int(diag_cfg.get("n_windows", 16))
    apt_T = float(diag_cfg.get("apt_horizon", 2.0))
    apt_dt = float(diag_cfg.get("apt_dt", 0.005))
    k_terms = int(diag_cfg.get("K_terms", 4))
    ts = traj.t_slow
    last_start_t = ts[-1] - max(T_w, apt_T)
    starts = np.unique(np.linspace(0.0, max(last_start_t, 0.0), n_windows))
    gaps = interpolation_gap(traj, l=1, T=T_w, starts=starts)
    fld = dual_ode_field(P)
    rows = []
    for w, (t0, gap) in enumerate(zip(starts, gaps)):
        y0 = interpolate(traj, "slow", t0)
        path = di_solve(fld, y0, T=apt_T, dt=apt_dt)
        # No envelope check follows, so the field's minimizers are not kept.
        P.clear_lambda_record()
        sampled = interpolate(traj, "slow", np.minimum(t0 + path.times, ts[-1]))
        apt = apt_metric(path.times, sampled, path.states, K_terms=k_terms)
        n_idx = min(int(np.searchsorted(ts, t0)), traj.n_steps)
        lam = lambda_min(P, traj.Y[n_idx])
        dist = float(np.linalg.norm(traj.X[n_idx] - lam))
        rows.append((w, t0, gap, apt, dist))
    with open(out_dir / "diagnostics.csv", "w", newline="") as fh:
        fh.write("# columns: window, t_slow_start, interpolation_gap, apt_metric, dist_to_lambda\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["window", "t_slow_start", "interpolation_gap", "apt_metric", "dist_to_lambda"]
        )
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.17g}" for v in row[1:]])


def _generic_diagnostics(traj, out_dir: Path, diag_cfg: dict) -> None:
    T_w = float(diag_cfg.get("window_T", 1.0))
    n_windows = int(diag_cfg.get("n_windows", 16))
    gaps = interpolation_gap(traj, l=1, T=T_w, n_windows=n_windows)
    with open(out_dir / "diagnostics.csv", "w", newline="") as fh:
        fh.write("# columns: window, interpolation_gap, apt_metric, dist_to_lambda\n")
        writer = csv.writer(fh)
        writer.writerow(["window", "interpolation_gap", "apt_metric", "dist_to_lambda"])
        for w, gap in enumerate(gaps):
            writer.writerow([w, f"{gap:.17g}", "nan", "nan"])


def _run_single(cfg: dict, seed: int, out_dir: Path) -> int:
    kind = _get(cfg, "kind", "config")
    schedule = _build_schedule(_get(cfg, "schedule", "config"))
    noise = _build_noise(cfg.get("noise"))
    steps = int(cfg.get("steps", 1))
    diag_cfg = cfg.get("diagnostics", {})
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if kind == "saddle":
            P = build_problem(_get(cfg, "problem", "config"))
            traj = run_primal_dual(
                P, schedule, N=steps, seed=seed, noise=noise,
                x0=cfg.get("x0"), y0=cfg.get("y0"),
            )
        elif kind == "two_timescale":
            H1, H2, K1, K2, x0, y0 = _build_generic(cfg)
            traj = run(
                H1, H2, K1, K2, schedule, x0, y0,
                int(cfg.get("s1_0", 0)), int(cfg.get("s2_0", 0)),
                steps, seed, noise=noise,
            )
        else:
            raise ConfigError(f"config.kind: cannot run experiments of kind {kind!r}")
    except DivergenceError as err:
        _write_manifest(out_dir, cfg, seed, {"divergence_step": err.step})
        print(f"divergence at step {err.step}", file=sys.stderr)
        return EXIT_DIVERGENCE
    traj.to_csv(out_dir / "trajectory.csv")
    if kind == "saddle":
        _saddle_diagnostics(P, traj, out_dir, diag_cfg)
        rep = optimality_report(P, traj, tail_fraction=float(cfg.get("tail_fraction", 0.1)))
        (out_dir / "report.txt").write_text("\n".join(rep.lines()) + "\n")
    else:
        _generic_diagnostics(traj, out_dir, diag_cfg)
    _write_manifest(out_dir, cfg, seed)
    return EXIT_OK


def _replica_worker(cfg_json: str, seed: int, out_dir: str) -> int:
    cfg = json.loads(cfg_json)
    return _run_single(cfg, seed, Path(out_dir))


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_run(cfg: dict, out_dir: Path, replicas: int) -> int:
    seed = int(cfg.get("seed", 0))
    if replicas <= 1:
        return _run_single(cfg, seed, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_json = json.dumps(cfg)
    jobs = [
        (seed + i, out_dir / f"replica_{i:03d}") for i in range(replicas)
    ]
    codes = []
    workers = min(replicas, 8, _usable_cpus())
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_replica_worker, cfg_json, s, str(d)) for s, d in jobs
        ]
        codes = [f.result() for f in futures]
    with open(out_dir / "replicas.csv", "w", newline="") as fh:
        fh.write("# columns: replica, seed, exit_code\n")
        writer = csv.writer(fh)
        writer.writerow(["replica", "seed", "exit_code"])
        for i, ((s, _), code) in enumerate(zip(jobs, codes)):
            writer.writerow([i, s, code])
    return max(codes)


def _build_di_field(cfg: dict):
    from .meanfield import MeanField

    spec = _get(cfg, "field", "config")
    if "saddle_dual" in spec:
        P = build_problem(spec["saddle_dual"], path="config.field.saddle_dual")
        return dual_ode_field(P), P
    name = _get(spec, "name", "config.field")
    dim = int(_get(cfg, "dim", "config", required=False, default=1))
    if name == "sign":
        def evaluate(z):
            if z[0] > 0:
                return ConvexSet.singleton(-np.ones(dim))
            if z[0] < 0:
                return ConvexSet.singleton(np.ones(dim))
            return ConvexSet(np.vstack([-np.ones(dim), np.ones(dim)]))

        return MeanField(evaluate=evaluate, dim=dim, growth_K=1.0), None
    if name == "linear_decay":
        return (
            MeanField(
                evaluate=lambda z: ConvexSet.singleton(-z), dim=dim, growth_K=1.0
            ),
            None,
        )
    raise ConfigError(f"config.field.name: unknown field {name!r}")


def cmd_solve_di(cfg: dict, out_dir: Path, envelope: bool) -> int:
    field, P = _build_di_field(cfg)
    z0 = _matrix(_get(cfg, "z0", "config"), "config.z0")
    T = float(_get(cfg, "T", "config"))
    dt = float(_get(cfg, "dt", "config"))
    selection = cfg.get("selection", "least_norm")
    try:
        path = di_solve(field, z0, T=T, dt=dt, selection=selection)
    except ValueError as err:
        raise ConfigError(f"config: {err}") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    path.to_csv(out_dir / "di_path.csv")
    if envelope:
        if P is None:
            raise ConfigError(
                "config.field: --envelope needs a saddle_dual field"
            )
        rep = verify_envelope(P, path)
        with open(out_dir / "envelope.csv", "w", newline="") as fh:
            fh.write("# columns: t, V, V0_plus_integral, discrepancy\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "V", "V0_plus_integral", "discrepancy"])
            for t, v, integ in zip(rep.times, rep.V, rep.integral):
                writer.writerow(
                    [
                        f"{t:.17g}",
                        f"{v:.17g}",
                        f"{rep.V[0] + integ:.17g}",
                        f"{v - rep.V[0] - integ:.17g}",
                    ]
                )
        print(
            f"envelope max discrepancy {rep.max_discrepancy:.3e}, "
            f"monotone={rep.monotone_ok}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--replicas", type=int, default=1)
        p.add_argument("--envelope", action="store_true")
    args = parser.parse_args(argv)

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
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

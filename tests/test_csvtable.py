"""The three CSV writers against the ``csv.writer`` code they replaced."""

import csv

import numpy as np
import pytest

from twoscale import cli
from twoscale.csvtable import block_rows
from twoscale.dynamics import DIPath
from twoscale.recursion import StepSchedule, Trajectory

SPECIAL = [-0.0, 1e-300, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]


def values(rng, shape):
    """Random floats at many scales with the special values spread in."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = out.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    rng.shuffle(flat)
    return out


def sizes(width):
    block = block_rows(width)
    return sorted({1, block - 1, block, block + 1} - {0})


def reference_dipath(path, out):
    k = path.states.shape[1]
    with open(out, "w", newline="") as fh:
        fh.write("# columns: t, z[0.." + str(k) + "), v[0.." + str(k) + ")\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"z{i}" for i in range(k)] + [f"v{i}" for i in range(k)])
        pad = np.vstack([path.selections, np.zeros((1, k))])
        for t, z, v in zip(path.times, path.states, pad):
            writer.writerow(
                [f"{t:.17g}"] + [f"{c:.17g}" for c in z] + [f"{c:.17g}" for c in v]
            )


def reference_trajectory(traj, out):
    d1, d2 = traj.X.shape[1], traj.Y.shape[1]
    tf, ts = traj.t_fast, traj.t_slow
    with open(out, "w", newline="") as fh:
        fh.write(
            "# columns: n, t_fast, t_slow, X[0..d1), Y[0..d2), S1, S2, "
            "M1[0..d1), M2[0..d2); M rows hold the noise applied at "
            "step n (last row zero)\n"
        )
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "t_fast", "t_slow"]
            + [f"X{i}" for i in range(d1)]
            + [f"Y{i}" for i in range(d2)]
            + ["S1", "S2"]
            + [f"M1_{i}" for i in range(d1)]
            + [f"M2_{i}" for i in range(d2)]
        )
        M1 = np.vstack([traj.M1, np.zeros((1, d1))])
        M2 = np.vstack([traj.M2, np.zeros((1, d2))])
        for i in range(traj.n_steps + 1):
            writer.writerow(
                [str(i), f"{tf[i]:.17g}", f"{ts[i]:.17g}"]
                + [f"{c:.17g}" for c in traj.X[i]]
                + [f"{c:.17g}" for c in traj.Y[i]]
                + [str(int(traj.S1[i])), str(int(traj.S2[i]))]
                + [f"{c:.17g}" for c in M1[i]]
                + [f"{c:.17g}" for c in M2[i]]
            )


def reference_table(out, columns, rows):
    with open(out, "w", newline="") as fh:
        fh.write("# columns: " + ", ".join(columns) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{c:.17g}" if isinstance(c, float) else c for c in row])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dipath_matches_csv_writer(tmp_path, d):
    rng = np.random.default_rng(d)
    for n in sizes(1 + 2 * d):
        times = np.cumsum(rng.uniform(1e-9, 2.0, n)) - 1.0
        path = DIPath(times=times, states=values(rng, (n, d)),
                      selections=values(rng, (n - 1, d)))
        path.to_csv(tmp_path / "new.csv")
        reference_dipath(path, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trajectory_matches_csv_writer(tmp_path, d):
    rng = np.random.default_rng(10 + d)
    for rows in sizes(5 + 4 * d):
        n = rows - 1
        traj = Trajectory(
            X=values(rng, (n + 1, d)), Y=values(rng, (n + 1, d)),
            S1=rng.integers(0, 3, n + 1), S2=rng.integers(0, 12, n + 1),
            M1=values(rng, (n, d)), M2=values(rng, (n, d)),
            V1=np.zeros((n, d)), V2=np.zeros((n, d)),
            schedule=StepSchedule(alpha=0.6, beta=0.9), seed=0,
        )
        traj.to_csv(tmp_path / "new.csv")
        reference_trajectory(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cli_table_matches_csv_writer(tmp_path, d):
    rng = np.random.default_rng(20 + d)
    columns = ["window", "seed"] + [f"c{i}" for i in range(d)] + ["apt_metric"]
    for n in sizes(3 + d):
        window = np.arange(n)
        seeds = rng.integers(2**63, 2**64 - 1, n, dtype=np.uint64)
        floats = values(rng, (n, d))
        cli._write_table(
            tmp_path / "new.csv", columns, [window, seeds, floats, np.full(n, np.nan)]
        )
        # The generic diagnostics wrote their missing values as the string "nan".
        rows = [
            (int(w), int(s), *(float(c) for c in f), "nan")
            for w, s, f in zip(window, seeds, floats)
        ]
        reference_table(tmp_path / "ref.csv", columns, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import twoscale
from twoscale.convex import ConvexSet
from twoscale.meanfield import MeanField, check_marchaud
from twoscale.svmaps import SamReport, SeqProbe, SetValuedMap, validate_sam

MODULES = [
    "convex", "svmaps", "markov", "meanfield", "dynamics", "recursion", "saddle", "cli",
]


@pytest.mark.parametrize("module", ["twoscale"] + [f"twoscale.{m}" for m in MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _tracer_targets():
    """``TARGETS`` of ``perfbench/tracing.py``, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in _tracer_targets()],
    ids=lambda v: v,
)
def test_every_traced_name_resolves(module, attr):
    # The tracer wraps these by name; a deleted or renamed one breaks it.
    owner = importlib.import_module(f"twoscale.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def _jump(v):
    return ConvexSet.singleton([1.0 if v[0] > 0 else -1.0])


def test_check_marchaud_fills_report_like_validate_sam():
    # The same jump map as a mean field and as a drift with no slow iterate:
    # both growth bounds are 0.5 * (1 + |z|).
    M = MeanField(evaluate=_jump, dim=1, growth_K=0.5)
    F = SetValuedMap((1, 0, 1), 1, lambda x, y, s: _jump(x), growth_K=0.5)
    zs = [np.array([0.0]), np.array([3.0])]
    seq = [np.array([1.0 / n]) for n in range(1, 6)]
    values = [np.array([1.0])] * 4 + [np.array([0.0])]
    limit = (np.array([0.0]), np.array([1.0]))
    y0 = np.zeros(0)

    rep_m = check_marchaud(M, zs, [SeqProbe(seq, values, *limit)])
    rep_s = validate_sam(
        F, [(z, y0, 0) for z in zs],
        [SeqProbe([(z, y0, 0) for z in seq], values, (limit[0], y0, 0), limit[1])],
    )
    for rep in (rep_m, rep_s):
        assert type(rep) is SamReport
        assert rep.convex_compact and not rep.growth_ok and not rep.closed_graph_ok
        assert not rep.ok
    assert len(rep_m.growth_violations) == len(rep_s.growth_violations) == 1
    (pm, wm, bm), (ps, ws, bs) = rep_m.growth_violations[0], rep_s.growth_violations[0]
    assert np.array_equal(pm, ps[0]) and (wm, bm) == (ws, bs) == (1.0, 0.5)
    assert len(rep_m.closed_graph_failures) == len(rep_s.closed_graph_failures) == 2
    for fm, fs in zip(rep_m.closed_graph_failures, rep_s.closed_graph_failures):
        assert np.array_equal(fm[0], fs[0][0]) and np.array_equal(fm[1], fs[1])
    assert rep_m.closed_graph_failures[0][2] == "value outside field"
    assert rep_s.closed_graph_failures[0][2] == "value outside map along sequence"
    assert rep_m.closed_graph_failures[1][2] == rep_s.closed_graph_failures[1][2] == 2.0
    # A plain 4-tuple probe is read the same way as a SeqProbe.
    rep_t = check_marchaud(M, zs, [(seq, values, *limit)])
    assert rep_t.closed_graph_ok == rep_m.closed_graph_ok
    assert [f[2] for f in rep_t.closed_graph_failures] == [
        f[2] for f in rep_m.closed_graph_failures
    ]

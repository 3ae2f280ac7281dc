"""Tests of the benchmark itself: span arithmetic, patching and the output
checks.  Run with ``python3 -m pytest benchmarks``."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import run
import tracer as tracing
import workloads
from workloads import CheckFailed

qb = run.import_program()


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    selft = tracing.self_times(start, end, parent)
    assert selft.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert selft.sum() == end[0] - start[0]


def test_nested_wrappers_record_parents_and_sum_to_root():
    tr = tracing.Tracer()
    leaf = tr.wrap("states.leaf", lambda: sum(range(1000)))
    mid = tr.wrap("measures.mid", lambda: [leaf() for _ in range(3)])
    with tr.span("op"):
        mid()
        leaf()
    arrs = tr.arrays()
    names = [tr.names[i] for i in arrs["name_id"]]
    assert names == ["op", "measures.mid", "states.leaf", "states.leaf", "states.leaf", "states.leaf"]
    assert arrs["parent"].tolist() == [-1, 0, 1, 1, 1, 0]
    assert arrs["root"].tolist() == [0] * 6
    m = tracing.layer_metrics(tr)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.op_s"], rel=1e-12)
    assert m["trace.op_s"] == pytest.approx(arrs["end"][0] - arrs["start"][0])


def _bindings():
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.targets()]


def test_installed_wraps_every_binding_and_restores_originals():
    before = _bindings()
    assert qb.states.MultipartiteState.__post_init__ in [b[2] for b in before]
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed():
            for owner, attr, original in before:
                assert getattr(owner, attr) is not original
                assert getattr(owner, attr).__wrapped__ is original
            raise RuntimeError("restore even on error")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original
    assert np.linalg.eigvalsh.__module__.startswith("numpy")
    assert not hasattr(scipy.linalg.expm, "__wrapped__")


def test_each_module_binding_is_traced():
    measures = sys.modules["qbcbound.measures"]
    state = qb.states.make_ghz(("A", "B"), 2)
    tr = tracing.Tracer()
    with tr.installed():
        with tr.span("op"):
            measures.entropy(state, {"A"})  # partial_trace through measures' own binding
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                qb.cli.main(["bounds-bosonic", "--eta-b", "0.25", "--eta-c", "0.25"])
    m = tracing.layer_metrics(tr)
    assert m["states.partial_trace.calls"] == 1
    assert m["states.validate.calls"] == 1
    # one eigvalsh validates the 2x2 marginal, one takes its entropy
    assert m["linalg.eig.calls"] == 2
    assert m["linalg.eig.flops_computed"] == 2 * 2**3
    assert m["bosonic.theorem3_report.calls"] == 1
    assert m["bosonic.optimal_eta_star.calls"] == 1
    assert m["cli.parse_s"] > 0
    assert m["rates.input_search.restarts"] == 0
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.op_s"], rel=1e-12)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == produced
    for name in produced:
        assert any(name.startswith(p) for p in tracing.LAYER_MAP), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# output checks


def test_hashing_rates_of_reference_channel():
    base = qb.sampling.random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 2), env_dim=2)
    rates = workloads.hashing_rates(base.kraus_ops, 2, (2, 2))
    assert rates == pytest.approx({"b_cut": 0.539, "c_cut": 0.675, "bc_cut": 0.634}, abs=1e-3)
    rng = np.random.default_rng(5)
    u = qb.sampling.random_unitary(rng, 2)
    v = np.kron(qb.sampling.random_unitary(rng, 2), qb.sampling.random_unitary(rng, 2))
    rotated = workloads.hashing_rates([v @ k @ u for k in base.kraus_ops], 2, (2, 2))
    assert rotated == pytest.approx(rates, abs=1e-12)


def _finite_report(**bounds):
    report = {name: {"bound_bits": value} for name, value in bounds.items()}
    return json.dumps({"report": report})


def test_finite_check_rejects_bound_below_hashing_or_above_cap():
    hashing = {"b_cut": 0.539, "c_cut": 0.675, "bc_cut": 0.634}
    sides = {"b_cut": 2, "c_cut": 2, "bc_cut": 2}
    good = dict(b_cut=0.707, c_cut=0.766, bc_cut=0.714, tripartite=1.036)
    assert workloads.check_finite(_finite_report(**good), hashing, sides) == pytest.approx(3.223)
    with pytest.raises(CheckFailed, match="below the hashing rate"):
        workloads.check_finite(_finite_report(**{**good, "c_cut": 0.6}), hashing, sides)
    with pytest.raises(CheckFailed, match="exceeds log2"):
        workloads.check_finite(_finite_report(**{**good, "bc_cut": 1.01}), hashing, sides)
    with pytest.raises(CheckFailed, match="finite"):
        workloads.check_finite(_finite_report(**{**good, "tripartite": "inf"}), hashing, sides)


def test_esq_check_window():
    doc = lambda v: json.dumps({"results": {"esq": {"value_bits": v}}})  # noqa: E731
    assert workloads.check_esq_private(doc(1.0000001)) == 1.0000001
    for bad in (0.99, 1.002, "inf"):
        with pytest.raises(CheckFailed):
            workloads.check_esq_private(doc(bad))


def _sweep_output(b, c, steps):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        argv = ["sweep", "--eta-b", repr(b), "--eta-c", repr(c), "--sweep-steps", str(steps)]
        assert qb.cli.main(argv) == 0
    return buf.getvalue()


def _doctor(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[workloads.SWEEP_HEADER.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_real_output_and_rejects_doctored_rows():
    b, c, steps = 0.87, 0.05, 20
    out = _sweep_output(b, c, steps)
    total = workloads.check_sweep(out, b, c, steps)
    assert math.isfinite(total) and total > 0
    with pytest.raises(CheckFailed, match="closed form"):
        workloads.check_sweep(_doctor(out, 3, "bound_b_cut", "0.5"), b, c, steps)
    with pytest.raises(CheckFailed, match="closed form"):
        workloads.check_sweep(_doctor(out, 7, "bound_bc_cut", "2.0"), b, c, steps)
    with pytest.raises(CheckFailed, match="as_printed"):
        workloads.check_sweep(_doctor(out, 5, "tripartite_bound", "99"), b, c, steps)
    with pytest.raises(CheckFailed, match="eta_star"):
        workloads.check_sweep(_doctor(out, 5, "eta_star", "1.5"), b, c, steps)
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_sweep(out, b, c, steps + 1)


def _pool_inputs(name, seed, workdir):
    workdir.mkdir()
    pool = workloads.WORKLOADS[name](seed, workdir, qb)
    return [[Path(a).read_text() if a.startswith(str(workdir)) else a for a in op.argv] for op in pool]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pools_are_deterministic_in_the_seed(name, tmp_path):
    first = _pool_inputs(name, 3, tmp_path / "a")
    assert len(first) == workloads.POOL_SIZE[name]
    assert _pool_inputs(name, 3, tmp_path / "b") == first
    assert _pool_inputs(name, 4, tmp_path / "c") != first

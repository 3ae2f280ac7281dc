import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbcbound
from qbcbound import (
    PrivateStateSpec,
    QbcError,
    QuantumChannel,
    channel_output_state,
    entropy,
    make_ghz,
    make_private_state,
    state_to_json,
    theorem3_report,
)
from qbcbound import bosonic, cli, rates, squash
from qbcbound.cli import MAX_SWEEP_STEPS, main
from qbcbound.sampling import random_channel, random_state, random_unitary
from qbcbound.states import channel_to_json


@pytest.fixture
def ghz_path(tmp_path):
    p = tmp_path / "ghz.json"
    p.write_text(state_to_json(make_ghz(("A", "B", "C"), 2)))
    return str(p)


@pytest.fixture
def copy_channel_path(tmp_path):
    k = np.zeros((4, 2))
    k[0, 0] = 1
    k[3, 1] = 1
    ch = QuantumChannel((k,), 2, ("B", "C"), (2, 2))
    p = tmp_path / "copy.json"
    p.write_text(channel_to_json(ch))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_bosonic_csv(capsys):
    code, out, _ = run(capsys, "bounds-bosonic", "--eta-b", "0.25", "--eta-c", "0.25")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("eta_b,eta_c,bound_b_cut")
    cells = row.split(",")
    assert cells[2] == "1"
    assert abs(float(cells[4]) - math.log2(3)) < 1e-9
    assert abs(float(cells[7]) - 4 / 7) < 1e-9


def test_bounds_bosonic_inf_sentinel(capsys):
    code, out, _ = run(capsys, "bounds-bosonic", "--eta-b", "0.5", "--eta-c", "0.5")
    assert code == 0
    row = out.strip().split("\n")[1]
    assert "inf" in row.split(",")
    assert "nan" not in out.lower()


@pytest.mark.parametrize(
    "eta_b, eta_c, row",
    [
        ("1", "0", "1,0,inf,0,inf,inf,inf,0.5"),
        ("0", "1", "0,1,0,inf,inf,inf,inf,0.5"),
    ],
)
def test_bounds_bosonic_dark_receiver_cut(capsys, eta_b, eta_c, row):
    code, out, _ = run(capsys, "bounds-bosonic", "--eta-b", eta_b, "--eta-c", eta_c)
    assert code == 0
    assert out.strip().split("\n")[1] == row


def test_bounds_bosonic_json(capsys):
    code, out, _ = run(
        capsys,
        "bounds-bosonic", "--eta-b", "0.25", "--eta-c", "0.25",
        "--ns", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["bound_b_cut"] == 1.0
    assert row["finite_ns"]["tripartite"] <= row["tripartite_bound"]


def test_bounds_bosonic_ns(capsys):
    etas = ("--eta-b", "0.25", "--eta-c", "0.1")
    code, out, _ = run(capsys, "bounds-bosonic", *etas, "--ns", "5", "--format", "json")
    assert code == 0
    expect = theorem3_report(0.25, 0.1, mean_photon=5.0).finite_ns
    rounded = {k: float(f"{v:.12g}") for k, v in expect.items()}
    assert json.loads(out)["rows"][0]["finite_ns"] == rounded
    # the CSV columns carry no photon-number figures
    csv_ns = run(capsys, "bounds-bosonic", *etas, "--ns", "5")
    assert csv_ns == run(capsys, "bounds-bosonic", *etas)


def test_sweep_sorted_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--eta-b", "0.4", "--eta-c", "0.1", "--sweep-steps", "4"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    etas = [float(line.split(",")[0]) for line in lines[1:]]
    assert etas == sorted(etas) == [0.1, 0.2, 0.3, 0.4]


# sha256 of stdout for fixed invocations in CSV and in JSON: a change to any
# printed digit, or to the layout, changes the hash
_GOLDEN = [
    pytest.param(
        "sweep --eta-b 0.8 --eta-c 0.1 --sweep-steps 1000",
        "22e5d1f10ca4076f675bf033426cedcee54a01c1d4721a2ab3a5bb4cbbb7d849",
        "e73f10792b3629f02158a650e3400e6c093ec95c27a8a4e99110d88a0e53afbc",
        id="grid_0.8_0.1",
    ),
    # the last row reaches eta_b + eta_c = 1: inf bounds, eta* reported as 1/2
    pytest.param(
        "sweep --eta-b 0.5 --eta-c 0.5 --sweep-steps 3",
        "9d7492b2a4ad584d13a85fe3a1c34d69f32893c025d6436d00f42ba501f15652",
        "c89957711d3e2a40d4afee9747b71ef7de5e0cf6c774ea41096eace657ea4b7d",
        id="inf_rows",
    ),
    pytest.param(
        "sweep --eta-b 0 --eta-c 0 --sweep-steps 2",
        "f282dbd24c4884f0b531ec042993c79acdeabc2e233d9b3d23369ce9c5d3ffb2",
        "034c0b4a784238cb71c59be935d1893ef330c30bc8582f84ab44b953d96f91ac",
        id="all_zero",
    ),
    pytest.param(
        "sweep --eta-b 0.99 --eta-c 0.0 --sweep-steps 1000",
        "08f333fa98c158aa527f1d53fd629d66e1355b83ed4ee1cc03a95c992414e403",
        "56ec5ece793f5934fc0d04e690d07f8533524fc36c349680105ff1ea8e75e43b",
        id="grid_0.99_0",
    ),
    pytest.param(
        "sweep --eta-b 0.3 --eta-c 0.2 --sweep-steps 1",
        "49d7448308359eee457127b36bc8bf080d12a8d9220dee2530772494fe52def0",
        "9eed30607599543d6716b1f9a8aabc4e036c73c129f204cb43d63baed8943485",
        id="one_step",
    ),
    # the first bosonic_sweep benchmark input at seed 0
    pytest.param(
        "sweep --eta-b 0.8818480843660728 --eta-c 0.036187202825832224 --sweep-steps 10000",
        "bec2038a87cf5e2ca4c40a9007ddb87dcd707cd2a93f47bdd42906f64d60bdc5",
        "b27ab5fa4f4549e0ab8cf4d6186dab587d9774f96f35589f4d092deb6cbebf28",
        id="bench_pool_seed0",
    ),
    pytest.param(
        "bounds-bosonic --eta-b 0.25 --eta-c 0.1 --ns 5",
        "65614ecc86a71d6710ae164ccd94fe11568c039eafdf29002c37d9d46da88282",
        "dca927829e03f62e8431c3e8a0f6ec5f525cb72077ee8193635a0c685f7962fc",
        id="bounds_bosonic_ns5",
    ),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, csv_sha, json_sha", _GOLDEN)
def test_bosonic_output_golden(capsys, argv, csv_sha, json_sha, fmt):
    code, out, err = run(capsys, *argv.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (csv_sha if fmt == "csv" else json_sha)


def test_sweep_rejects_bad_grid_before_bisection(capsys, monkeypatch):
    def no_bisection(gap, columns):
        raise AssertionError("bisection started on an invalid grid")

    monkeypatch.setattr(bosonic, "_bisect", no_bisection)
    argv = ["sweep", "--eta-b", "0.95", "--eta-c", "0.1", "--sweep-steps", "100000"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: total transmissivity exceeds 1\n")
    # a negative eta_c fails every pair, and the sign check comes first
    code, out, err = run(capsys, "sweep", "--eta-b", "2", "--eta-c", "-0.1")
    assert (code, out) == (2, "")
    assert "finite and nonnegative" in err


def test_sweep_steps_cap(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated past the cap")

    monkeypatch.setattr(np, "arange", no_grid)
    code, out, err = run(capsys, "sweep", "--eta-b", "0.5", "--sweep-steps", str(MAX_SWEEP_STEPS + 1))
    assert (code, out) == (2, "")
    assert str(MAX_SWEEP_STEPS) in err


# _emit_rows prints a column whose bits never change once, into the row
# template: the CSV must still be the per-row "%.12g" rendering


def _csv_reference(table):
    rows = [",".join(cli.SWEEP_COLUMNS)] + [",".join("%.12g" % v for v in r) for r in table.tolist()]
    return "\n".join(rows) + "\n"


def _emit_tables():
    table = np.random.default_rng(4).uniform(-1, 1, (1500, len(cli.SWEEP_COLUMNS)))
    zero_with_one_negative = table.copy()
    zero_with_one_negative[:, 3] = 0.0
    zero_with_one_negative[1100, 3] = -0.0
    constant = table.copy()
    constant[:, 0] = 0.25
    constant[:, 4] = -0.0
    constant[:, 5] = math.inf
    every_column_constant = np.tile(constant[:1], (3, 1))
    return {
        "zero_with_one_negative": zero_with_one_negative,
        "constant_first_inf_negative_zero": constant,
        "every_column_constant": every_column_constant,
        "one_row": table[:1],
    }


@pytest.mark.parametrize(
    "table", [pytest.param(t, id=name) for name, t in _emit_tables().items()]
)
def test_emit_rows_matches_per_row_format(capsys, table):
    cli._emit_rows(table, "csv", None)
    assert capsys.readouterr().out == _csv_reference(table)


@pytest.mark.parametrize(
    "argv",
    [
        "bounds-bosonic --eta-b 0.25 --eta-c 0.1",
        "bounds-bosonic --eta-b 0 --eta-c -0.0",
        "sweep --eta-b 0.3 --eta-c 0.2 --sweep-steps 1",
        "sweep --eta-b 0 --eta-c 0 --sweep-steps 5",
        "sweep --eta-b 0.5 --eta-c -0.0 --sweep-steps 3",
    ],
)
def test_cli_tables_match_per_row_format(capsys, monkeypatch, argv):
    tables = []
    emit_rows = cli._emit_rows

    def recorded(table, *args):
        tables.append(table)
        return emit_rows(table, *args)

    monkeypatch.setattr(cli, "_emit_rows", recorded)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out == _csv_reference(tables[0])


def test_emit_rows_nan_raises_before_writing(capsys, tmp_path):
    table = np.zeros((2000, len(cli.SWEEP_COLUMNS)))
    table[1500, 6] = math.nan
    path = tmp_path / "rows.csv"
    for output in (None, str(path)):
        with pytest.raises(QbcError, match="NaN"):
            cli._emit_rows(table, "csv", output)
    assert capsys.readouterr().out == ""
    assert not path.exists()


def test_esq_ghz_both_measures(capsys, ghz_path):
    code, out, _ = run(
        capsys, "esq", ghz_path, "--partition", "A|B|C", "--measure", "both",
        "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["esq"]["value_bits"] == 1.5
    assert doc["results"]["esq-tilde"]["value_bits"] == 1.5


def test_esq_exact_flag(capsys, tmp_path, ghz_path):
    mixed = tmp_path / "rank3.json"
    rank3 = random_state(np.random.default_rng(0), ("A", "B", "C"), (2, 2, 2), rank=3)
    mixed.write_text(state_to_json(rank3))
    # GHZ on A, B is mixed: C joins the purifier and is squashed
    cases = ((ghz_path, "A|B|C", True), (str(mixed), "A|B|C", False), (ghz_path, "A|B", False))
    for path, partition, exact in cases:
        code, out, _ = run(capsys, "esq", path, "--partition", partition, "--restarts", "1")
        assert code == 0
        assert json.loads(out)["exact"] is exact
    code, out, _ = run(capsys, "esq", ghz_path, "--partition", "A|B")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is False
    assert doc["results"]["esq"]["value_bits"] <= 1e-9


@pytest.fixture
def golden_states(tmp_path, ghz_path):
    """GHZ on three qubits, a seeded rank-3 three-qubit state, a seeded
    full-rank 2x3 state and a seeded private state with two qubit shields."""
    rng = np.random.default_rng(0)
    twists = tuple(random_unitary(rng, 4) for _ in range(4))
    spec = PrivateStateSpec(2, 2, (2, 2), twists)
    states = {
        "rank3": random_state(np.random.default_rng(0), ("A", "B", "C"), (2, 2, 2), rank=3),
        "mixed2x3": random_state(np.random.default_rng(1), ("A", "B"), (2, 3)),
        "private": make_private_state(spec, ("kA", "kB"), ("sA", "sB")),
    }
    paths = {"ghz": ghz_path}
    for name, state in states.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(state_to_json(state))
    return paths


# sha256 of stdout of the density-matrix API (qinfo) and of esq on pure and
# mixed states: a change to any printed digit, or to the layout, changes the
# hash.  A pure reduction prints entropy 0.0, not the eigensolver's rounding
# (3.2e-16 on GHZ), so the qinfo hashes do not pin that rounding.
_STATE_GOLDEN = [
    pytest.param(
        "qinfo {ghz} --partition A|B|C",
        "6dfdcf949b0575d41a7cd6414d0ad17eacdf8c7e7af1cef3560e1622606741d1",
        id="qinfo_ghz",
    ),
    pytest.param(
        "qinfo {rank3} --partition A|B|C",
        "ba4315b1fe98e57295d9df5aeb2669485b3708d7acf64f8c2aae81b50d8b4986",
        id="qinfo_rank3",
    ),
    pytest.param(
        "qinfo {mixed2x3} --partition A|B",
        "d76f324361be192a227718a9676a82cc96b39d974ea4c632cfc91d675ee4bc82",
        id="qinfo_mixed2x3",
    ),
    pytest.param(
        "esq {ghz} --partition A|B|C --measure both --restarts 1",
        "0c7a8d8e4b4fdb6ba01059e1580f75b4a6e3fae90854fa9d67a621d785bee80f",
        id="esq_ghz_one_restart",
    ),
    pytest.param(
        "esq {ghz} --partition A|B|C --measure both",
        "cd87b1b19d8085a16a03eb9ef510ccd593221d02c4b9eb0aef97f5ac8c4c2b5d",
        id="esq_ghz",
    ),
    pytest.param(
        "esq {private} --partition kA,sA|kB,sB --measure both --restarts 1",
        "b52d44aa307269db9075199c72eced07b7b71e78eaa410a06fa8dcd01830c1a0",
        id="esq_private_one_restart",
    ),
    pytest.param(
        "esq {private} --partition kA,sA|kB,sB --measure both",
        "8efc795a2fbbb0dc9a30e7f1a45a6353620484fce4f0fb707676340e2b68e8f0",
        id="esq_private",
    ),
]


@pytest.mark.parametrize("argv, sha", _STATE_GOLDEN)
def test_state_output_golden(capsys, golden_states, argv, sha):
    code, out, err = run(capsys, *argv.format(**golden_states).split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_esq_repeated_label_exits_2(capsys, ghz_path):
    code, out, err = run(capsys, "esq", ghz_path, "--partition", "A,A|B|C")
    assert (code, out) == (2, "")
    assert "repeated" in err


@pytest.mark.parametrize("command", ["qinfo", "esq"])
def test_partition_label_missing_from_state_exits_2(capsys, ghz_path, command):
    code, out, err = run(capsys, command, ghz_path, "--partition", "A|Z")
    assert (code, out) == (2, "")
    assert err == "error: label 'Z' not in ('A', 'B', 'C')\n"


def test_qinfo(capsys, ghz_path):
    code, out, _ = run(capsys, "qinfo", ghz_path, "--partition", "A|B,C")
    assert code == 0
    doc = json.loads(out)
    assert doc["pure"] is True
    assert doc["entropy_by_label"]["A"] == 1.0
    assert doc["cmi_total"] == 2.0


def _many_labels(n_trivial):
    """A Bell pair on two qubits among ``n_trivial`` labels of dimension 1, or
    only the trivial labels (one entry 1) when ``n_trivial`` is 30."""
    labels = [f"L{i}" for i in range(n_trivial)]
    if n_trivial == 30:
        return {"labels": labels, "dims": [1] * 30, "matrix": [[[1.0, 0.0]]]}
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return {
        "labels": labels + ["P", "Q"],
        "dims": [1] * n_trivial + [2, 2],
        "matrix": [[[x, 0.0] for x in row] for row in bell.tolist()],
    }


@pytest.mark.parametrize("n_trivial", [30, 25])
def test_qinfo_more_than_26_labels(capsys, tmp_path, n_trivial):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(_many_labels(n_trivial)))
    code, out, err = run(capsys, "qinfo", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["pure"] is True
    assert doc["entropy_total"] == 0.0
    assert all(doc["entropy_by_label"][f"L{i}"] == 0.0 for i in range(n_trivial))
    if n_trivial == 25:
        assert abs(doc["entropy_by_label"]["P"] - 1.0) < 1e-12


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


_STATE = {
    "labels": ["A"],
    "dims": [2],
    "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
}
_CHANNEL = {"input_dim": 2, "output_labels": ["B"], "output_dims": [2]}
_MIXED_PAIR = {
    "labels": ["A", "B"],
    "dims": [2, 2],
    "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)],
}
_COPY = {
    "input_dim": 2,
    "output_labels": ["B", "C"],
    "output_dims": [2, 2],
    "kraus": [[[[float(i == 3 * j), 0.0] for j in range(2)] for i in range(4)]],
}


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("qinfo", "{not json", ""),
        ("bounds-finite", json.dumps(_CHANNEL), "'kraus'"),
        ("qinfo", json.dumps({**_STATE, "matrix": [[0.5, [0.0, 0.0]]]}), "'matrix'"),
        ("qinfo", json.dumps([_STATE]), "JSON object"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "dims": [2.5, 2]}), "'dims'"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "dims": [True, 4]}), "'dims'"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "labels": "AB"}), "'labels'"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "labels": [1, 2]}), "'labels'"),
        ("bounds-finite", json.dumps({**_COPY, "input_dim": 2.9}), "'input_dim'"),
        ("bounds-finite", json.dumps({**_COPY, "output_labels": "BC"}), "'output_labels'"),
        ("bounds-finite", json.dumps({**_COPY, "output_labels": ["B,C", "D"]}), "'B,C'"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "labels": ["A|x", "B,y"]}), "'A|x'"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "labels": ["", "B"]}), "label ''"),
        ("qinfo", json.dumps({**_MIXED_PAIR, "labels": ["A ", "B"]}), "'A '"),
        ("bounds-finite", json.dumps({**_COPY, "output_labels": ["B", "\tC"]}), "'\\tC'"),
        (
            "qinfo",
            json.dumps(
                {"labels": ["A", "B"], "dims": [1, 2], "matrix": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]}
            ),
            "'matrix'",
        ),
        (
            "bounds-finite",
            json.dumps(
                {"input_dim": 1, "output_labels": ["B", "C"], "output_dims": [1, 1], "kraus": [[[[True, False]]]]}
            ),
            "'kraus'",
        ),
        (
            "bounds-finite",
            json.dumps({"input_dim": 0, "output_labels": ["B"], "output_dims": [1], "kraus": [[[]]]}),
            "positive",
        ),
        (
            "bounds-finite",
            json.dumps({"input_dim": -1, "output_labels": ["B"], "output_dims": [1], "kraus": [[[]]]}),
            "positive",
        ),
        (
            "bounds-finite",
            json.dumps({"input_dim": 1, "output_labels": ["B", "C"], "output_dims": [0, 1], "kraus": [[]]}),
            "positive",
        ),
    ],
    ids=[
        "not-json",
        "missing-kraus",
        "bare-number",
        "top-level-array",
        "float-dim",
        "bool-dim",
        "string-labels",
        "integer-labels",
        "float-input-dim",
        "string-output-labels",
        "comma-output-label",
        "bar-and-comma-labels",
        "empty-label",
        "trailing-space-label",
        "leading-tab-output-label",
        "bool-matrix-entries",
        "bool-kraus-entries",
        "zero-input-dim",
        "negative-input-dim",
        "zero-output-dim",
    ],
)
def test_malformed_json_exits_2(capsys, tmp_path, command, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, command, str(bad))
    assert code == 2
    assert err.strip()
    assert named in err


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("qinfo", b"\xff\xfe\x00", "utf-8"),
        ("qinfo", b"[" * 100000, "nested too deeply"),
        ("bounds-finite", b"[" * 100000, "nested too deeply"),
    ],
    ids=["not-utf-8", "deep-nesting", "deep-nesting-channel"],
)
def test_undecodable_input_exits_2(capsys, tmp_path, command, data, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert named in err


def test_non_finite_state_exits_2(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    nan = float("nan")
    matrix = [[[nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad.write_text(json.dumps({**_STATE, "matrix": matrix}))
    code, out, err = run(capsys, "qinfo", str(bad))
    assert (code, out) == (2, "")
    assert "non-finite entries" in err


@pytest.mark.parametrize("flag", ["--eta-b", "--eta-c", "--ns"])
def test_bounds_bosonic_non_finite_exits_2(capsys, flag):
    argv = {"--eta-b": "0.25", "--eta-c": "0.25", "--ns": "5"}
    argv[flag] = "nan"
    code, out, err = run(capsys, "bounds-bosonic", *[x for kv in argv.items() for x in kv])
    assert (code, out) == (2, "")
    assert "finite" in err


# 7 * 7905747460161236407 = 3 * 2**64 + 1, which numpy's int64 product wraps to 1
_WRAPPING_DIMS = [7, 7905747460161236407]


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        ("qinfo", {"labels": ["A", "B"], "dims": _WRAPPING_DIMS, "matrix": [[[1.0, 0.0]]]}, []),
        (
            "esq",
            {"labels": ["A", "B"], "dims": _WRAPPING_DIMS, "matrix": [[[1.0, 0.0]]]},
            ["--partition", "A|B"],
        ),
        (
            "bounds-finite",
            {
                "input_dim": 1,
                "output_labels": ["B", "C"],
                "output_dims": _WRAPPING_DIMS,
                "kraus": [[[[1.0, 0.0]]]],
            },
            [],
        ),
    ],
    ids=["qinfo", "esq", "bounds-finite"],
)
def test_dims_product_past_int64_exits_2(capsys, tmp_path, command, doc, extra):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(bad), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert str(math.prod(_WRAPPING_DIMS)) in err


def test_invalid_state_names_invariant(capsys, tmp_path):
    bad = tmp_path / "bad_state.json"
    bad.write_text(
        json.dumps(
            {
                "labels": ["A"],
                "dims": [2],
                "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            }
        )
    )
    code, _, err = run(capsys, "qinfo", str(bad))
    assert code == 2
    assert "trace" in err


def test_bounds_finite_deterministic(capsys, copy_channel_path, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["bounds-finite", copy_channel_path, "--seed", "3", "--output", str(out1)]) == 0
    assert main(["bounds-finite", copy_channel_path, "--seed", "3", "--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["report"]["bc_cut"]["bound_bits"] >= 1.0 - 1e-6


def test_bounds_finite_partition_flag(capsys, copy_channel_path):
    code, out, _ = run(
        capsys, "bounds-finite", copy_channel_path, "--partition", "R|B,C"
    )
    assert code == 0
    doc = json.loads(out)
    (c,) = doc["constraints"]
    assert c["partition"] == "B,C|R"
    assert c["bound_bits"] >= 1.0 - 1e-6


def test_bounds_finite_repeated_partition_exits_2(capsys, copy_channel_path):
    code, out, err = run(
        capsys, "bounds-finite", copy_channel_path, "--partition", "R|B|C",
        "--partition", "C|B|R",
    )
    assert (code, out) == (2, "")
    assert err == "error: partition B|C|R is repeated\n"


def test_bounds_finite_one_block_partition_exits_2(capsys, monkeypatch, copy_channel_path):
    def no_search(*args, **kwargs):
        raise AssertionError("the input search ran before the partitions were checked")

    monkeypatch.setattr(rates, "minimize", no_search)
    code, out, err = run(
        capsys, "bounds-finite", copy_channel_path, "--partition", "R|B|C",
        "--partition", "R,B,C",
    )
    assert (code, out) == (2, "")
    assert err == "error: partition B,C,R has one block: it bounds no rate\n"


def test_esq_one_block_partition_exits_2(capsys, monkeypatch, tmp_path):
    def no_search(*args, **kwargs):
        raise AssertionError("the squash ran before the partition was checked")

    monkeypatch.setattr(squash, "minimize", no_search)
    path = tmp_path / "rank3.json"
    rank3 = random_state(np.random.default_rng(0), ("A", "B", "C"), (2, 2, 2), rank=3)
    path.write_text(state_to_json(rank3))
    code, out, err = run(capsys, "esq", str(path), "--partition", "A,B,C")
    assert (code, out) == (2, "")
    assert err == "error: partition A,B,C has one block: it measures no entanglement\n"


def test_noisy_cut_bounds_lie_above_hashing_rates(capsys, tmp_path):
    # the seed-0 noisy channel at the CLI defaults; the coherent information
    # of the maximally entangled input across a cut is an achievable rate
    channel = random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 2), env_dim=2)
    path = tmp_path / "noisy.json"
    path.write_text(channel_to_json(channel))
    code, out, _ = run(capsys, "bounds-finite", str(path))
    assert code == 0
    report = json.loads(out)["report"]
    omega = channel_output_state(channel, make_ghz(("R", "A"), 2))
    h_all = entropy(omega, {"R", "B", "C"})
    cuts = {
        "b_cut": ({"R", "C"}, {"B"}),
        "c_cut": ({"R", "B"}, {"C"}),
        "bc_cut": ({"R"}, {"B", "C"}),
    }
    for name, (x, y) in cuts.items():
        hashing = max(entropy(omega, x), entropy(omega, y)) - h_all
        assert hashing > 0.5  # not a vacuous check
        assert report[name]["bound_bits"] >= hashing, name


@pytest.fixture
def noisy_channel_path(tmp_path):
    # the seed-0 reference noisy channel
    channel = random_channel(np.random.default_rng(0), 2, ("B", "C"), (2, 2), env_dim=2)
    path = tmp_path / "noisy.json"
    path.write_text(channel_to_json(channel))
    return str(path)


def test_report_reads_the_constraints(capsys, noisy_channel_path):
    code, out, _ = run(capsys, "bounds-finite", noisy_channel_path)
    assert code == 0
    report = json.loads(out)["report"]
    cuts = ["R|B|C", "R|B,C", "R,B|C", "R,C|B"]
    argv = [a for cut in cuts for a in ("--partition", cut)]
    code, out, _ = run(capsys, "bounds-finite", noisy_channel_path, *argv)
    assert code == 0
    constraints = {c["partition"]: c for c in json.loads(out)["constraints"]}
    assert list(constraints) == ["B|C|R", "B,C|R", "B,R|C", "B|C,R"]
    assert sorted(r["partition"] for r in report.values()) == sorted(constraints)
    # the rate tuple's subsets AB, AC, BC and ABC, A the sender R
    subsets = ["B,R", "C,R", "B,C", "B,C,R"]
    for name, r in report.items():
        c = constraints[r["partition"]]
        for key in ("bound_bits", "measure_used", "metadata"):
            assert r[key] == c[key], (name, key)
        half = [c["weights"].get(m, 0.0) for m in subsets]
        assert r["coefficients"] == half + half, name


def test_bound_below_the_coherent_information_exits_2(capsys, monkeypatch, noisy_channel_path):
    real_squash = rates._squash_purified

    def squash_to_zero(problems, dims, labels, config):
        return [
            dataclasses.replace(r, value_bits=0.0)
            for r in real_squash(problems, dims, labels, config)
        ]

    monkeypatch.setattr(rates, "_squash_purified", squash_to_zero)
    code, out, err = run(capsys, "bounds-finite", noisy_channel_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: cut B|C,R: bound 0.0 bits lies below the achievable ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds-finite", "{channel}", "--seed", "-1"],
        ["esq", "{state}", "--partition", "A|B|C", "--seed", "-1"],
        ["esq", "{state}", "--partition", "A|B|C", "--seed", "-1", "--restarts", "1"],
        ["selftest", "--seed", "-1"],
    ],
    ids=["bounds-finite", "esq", "esq-one-restart", "selftest"],
)
def test_negative_seed_exits_2(capsys, copy_channel_path, ghz_path, argv):
    argv = [a.format(channel=copy_channel_path, state=ghz_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: seed must be at least 0\n"


def test_commands_without_a_search_load_no_scipy(tmp_path, ghz_path, copy_channel_path):
    # a fresh interpreter, since this one has imported scipy already; the
    # searches are numpy's too, so bounds-finite and esq at its default
    # restarts load no scipy either
    script = """
import sys
from qbcbound.cli import main
assert not [m for m in sys.modules if m.startswith("scipy")], "import"
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""
    out = str(tmp_path / "out")
    mixed = tmp_path / "rank3.json"
    rank3 = random_state(np.random.default_rng(0), ("A", "B", "C"), (2, 2, 2), rank=3)
    mixed.write_text(state_to_json(rank3))
    commands = [
        f"sweep --eta-b 0.6 --eta-c 0.3 --sweep-steps 50 --output {out}",
        f"bounds-bosonic --eta-b 0.5 --eta-c 0.2 --ns 1.0 --output {out}",
        f"qinfo {ghz_path} --partition A|B,C --output {out}",
        f"esq {mixed} --partition A|B|C --restarts 1 --output {out}",
        f"bounds-finite {copy_channel_path} --output {out}",
        f"esq {mixed} --partition A|B|C --output {out}",
    ]
    src = str(Path(qbcbound.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", script, *commands], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "bounds-bosonic", "--eta-b", "0.25")[0] == 0
    assert len(built) == 1
    # the public builder itself is not memoised
    assert build_parser() is not build_parser()


def test_rebound_builder_builds_its_own_parser(capsys, monkeypatch):
    # a parser cached before build_parser is rebound (as a tracer rebinds it)
    # is not the rebound builder's: the next call builds with the new one
    assert run(capsys, "bounds-bosonic", "--eta-b", "0.25")[0] == 0
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(2):
        assert run(capsys, "bounds-bosonic", "--eta-b", "0.25")[0] == 0
    assert len(built) == 1


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "first, code, then",
    [
        (["bounds-finite", "{channel}", "--partition", "R|B|C"], 0, ["bounds-finite", "{channel}"]),
        (["esq", "{state}"], 2, ["esq", "{state}", "--partition", "A|B|C"]),
        (["--version"], 0, ["esq", "{state}", "--partition", "A|B|C"]),
    ],
    ids=["partition", "usage-error", "version"],
)
def test_reused_parser_carries_nothing_between_calls(
    capsys, copy_channel_path, ghz_path, first, code, then
):
    first, then = (
        [a.format(channel=copy_channel_path, state=ghz_path) for a in argv] for argv in (first, then)
    )
    cli._parser.cache_clear()
    alone = run(capsys, *then)
    cli._parser.cache_clear()
    assert _exit_code(first) == code
    capsys.readouterr()
    assert run(capsys, *then) == alone

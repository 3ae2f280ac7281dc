import hashlib
import json
import math

import numpy as np
import pytest

from qbcbound import (
    QuantumChannel,
    channel_output_state,
    entropy,
    make_ghz,
    state_to_json,
    theorem3_report,
)
from qbcbound import bosonic
from qbcbound.cli import MAX_SWEEP_STEPS, main
from qbcbound.sampling import random_channel, random_state
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
        "740d0b24fbe53f1a73f8d1ba10e53b357ac4fc78220ba711ada2c0d63d3bea22",
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
    def no_bisection(etas):
        raise AssertionError("bisection started on an invalid grid")

    monkeypatch.setattr(bosonic, "_bisect_eta_star", no_bisection)
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
    for path, exact in ((ghz_path, True), (str(mixed), False)):
        code, out, _ = run(capsys, "esq", path, "--partition", "A|B|C", "--restarts", "1")
        assert code == 0
        assert json.loads(out)["exact"] is exact


def test_esq_repeated_label_exits_2(capsys, ghz_path):
    code, out, err = run(capsys, "esq", ghz_path, "--partition", "A,A|B|C")
    assert (code, out) == (2, "")
    assert "repeated" in err


def test_qinfo(capsys, ghz_path):
    code, out, _ = run(capsys, "qinfo", ghz_path, "--partition", "A|B,C")
    assert code == 0
    doc = json.loads(out)
    assert doc["pure"] is True
    assert doc["entropy_by_label"]["A"] == 1.0
    assert doc["cmi_total"] == 2.0


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
    ],
)
def test_malformed_json_exits_2(capsys, tmp_path, command, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, command, str(bad))
    assert code == 2
    assert err.strip()
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
        capsys, "bounds-finite", copy_channel_path, "--partition", "R|B,C",
        "--restarts", "2",
    )
    assert code == 0
    doc = json.loads(out)
    (c,) = doc["constraints"]
    assert c["partition"] == "B,C|R"
    assert c["bound_bits"] >= 1.0 - 1e-6


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

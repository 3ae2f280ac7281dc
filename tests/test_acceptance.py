"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line so the suite output doubles as
an acceptance report.
"""

import json
import math

import numpy as np
import pytest

from qbcbound import (
    BosonicBroadcastSpec,
    Measure,
    Partition,
    PrivateStateSpec,
    QuantumChannel,
    SpecError,
    SquashConfig,
    a_of,
    asymptotic_bound,
    c_of,
    cmi_dual_measure,
    cmi_total,
    constraint_coefficients,
    esq_exact_pure,
    esq_upper_variational,
    finite_ns_bound,
    make_ghz,
    make_private_state,
    nontrivial_partitions,
    qcmi,
    tensor,
    theorem3_report,
)
from qbcbound.cli import main as cli_main
from qbcbound.sampling import random_channel, random_pure_state, random_state
from qbcbound.states import apply_channel, channel_to_json


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def complete_partition(labels):
    return Partition(tuple((x,) for x in labels))


def test_criterion_1_ghz_values():
    ok = True
    for m, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        labels = tuple(f"P{i}" for i in range(m))
        ghz = make_ghz(labels, d)
        expect = (m / 2) * math.log2(d)
        for meas in (Measure.E_SQ, Measure.E_SQ_TILDE):
            v = esq_exact_pure(ghz, complete_partition(labels), meas)
            ok = ok and abs(v - expect) < 1e-9
    report("GHZ pure-state values (m/2)log2(d)", ok)


def test_criterion_2_measure_identities():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(200):
        st = random_state(rng, ("B", "A1", "A2", "E"), (2, 2, 2, 2))
        # strong subadditivity
        ok = ok and qcmi(st, {"A1"}, {"A2"}, {"E"}) >= -1e-9
        # I + dual identity
        spec = Partition((("B",), ("A1",), ("A2",)))
        lhs = cmi_total(st, spec, {"E"}) + cmi_dual_measure(st, spec, {"E"})
        rhs = (
            qcmi(st, {"B"}, {"A1", "A2"}, {"E"})
            + qcmi(st, {"A1"}, {"B", "A2"}, {"E"})
            + qcmi(st, {"A2"}, {"B", "A1"}, {"E"})
        )
        ok = ok and abs(lhs - rhs) < 1e-9
        # chain rule, total-correlation form
        cl = cmi_total(st, Partition((("B", "A1"), ("A2",))), {"E"})
        cr = cmi_total(st, Partition((("A1",), ("A2",))), {"B", "E"})
        ok = ok and abs(cl - (cr + qcmi(st, {"B"}, {"A2"}, {"E"}))) < 1e-9
        # chain rule, dual form
        dl = cmi_dual_measure(st, Partition((("B", "A1"), ("A2",))), {"E"})
        dr = cmi_dual_measure(st, Partition((("A1",), ("A2",))), {"B", "E"})
        ok = ok and abs(dl - (dr + qcmi(st, {"B"}, {"A2"}, {"E"}))) < 1e-9
        # conditioning duality on a pure 4-party state
        psi = random_pure_state(rng, ("A", "B", "E", "D"), (2, 2, 2, 2))
        ok = ok and abs(
            qcmi(psi, {"A"}, {"B"}, {"E"}) - qcmi(psi, {"A"}, {"B"}, {"D"})
        ) < 1e-9
    report("measure identities on 200 random states", ok)


def test_criterion_3_grouping_identity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        st = random_state(rng, ("A1", "A2", "A3", "E"), (2, 2, 2, 2))
        fine = cmi_total(st, Partition((("A1",), ("A2",), ("A3",))), {"E"})
        coarse = cmi_total(st, Partition((("A1", "A2"), ("A3",))), {"E"})
        ok = ok and abs(fine - coarse - qcmi(st, {"A1"}, {"A2"}, {"E"})) < 1e-9
    report("grouping identity on 100 random states", ok)


def _cmi_on(state, blocks, cond, dual):
    return (cmi_dual_measure if dual else cmi_total)(state, Partition(tuple(blocks)), cond)


def test_criterion_4_subadditivity():
    rng = np.random.default_rng(102)
    ok = True
    for trial in range(500):
        m = 1 if trial % 5 else 2
        p = [f"P{i}" for i in range(m)]
        q = [f"Q{i}" for i in range(m)]
        labels = tuple(["S"] + p + q + ["E1", "E2"])
        psi = random_pure_state(rng, labels, (2,) * len(labels))
        ch1 = random_channel(rng, 2, ("F1",), (2,))
        ch2 = random_channel(rng, 2, ("F2",), (2,))
        tau = apply_channel(ch1, psi, "E1")
        sigma = apply_channel(ch2, psi, "E2")
        omega = apply_channel(ch2, tau, "E2")
        for dual in (False, True):
            lhs = _cmi_on(
                omega,
                [{"S"}] + [{p[i], q[i]} for i in range(m)],
                {"F1", "F2"},
                dual,
            )
            r1 = _cmi_on(
                tau,
                [{"S", "E2", *q}] + [{x} for x in p],
                {"F1"},
                dual,
            )
            r2 = _cmi_on(
                sigma,
                [{"S", "E1", *p}] + [{x} for x in q],
                {"F2"},
                dual,
            )
            ok = ok and lhs <= r1 + r2 + 1e-8
    report("channel-splitting subadditivity on 500 instances", ok)


def test_criterion_5_partition_machinery():
    g1 = Partition((("A",), ("B", "C")))
    g4 = Partition((("A",), ("B",), ("C",)))
    ok = c_of(g1) == [("A", "B"), ("A", "C"), ("A", "B", "C")]
    ok = ok and a_of({"A", "B"}, g4) == [("A",), ("B",)]
    ok = ok and a_of({"A", "C"}, g4) == [("A",), ("C",)]
    ok = ok and a_of({"B", "C"}, g4) == [("B",), ("C",)]
    ok = ok and a_of({"A", "B", "C"}, g4) == [("A",), ("B",), ("C",)]
    ok = ok and constraint_coefficients(g4)[("A", "B", "C")] == 3
    report("partition machinery fixed points", ok)


def test_criterion_6_ghz_product_formula():
    rng = np.random.default_rng(103)
    subsets = (("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C"))
    ok = True
    for _ in range(20):
        exps = rng.integers(0, 2, size=4)
        if not exps.any():
            exps[rng.integers(0, 4)] = 1
        factors, rates = [], {}
        for m_set, e in zip(subsets, exps):
            if e == 0:
                continue
            tag = "".join(m_set).lower()
            factors.append(make_ghz(tuple(f"{x}_{tag}" for x in m_set), 2**int(e)))
            rates[m_set] = int(e)
        psi = tensor(factors)
        for g in nontrivial_partitions(("A", "B", "C")):
            sub_blocks = []
            for block in g.blocks:
                labs = tuple(x for x in psi.labels if x[0] in block)
                if labs:
                    sub_blocks.append(labs)
            part = Partition(tuple(sub_blocks))
            expect = 0.0
            for m_set, coeff in constraint_coefficients(g).items():
                expect += 0.5 * coeff * rates.get(m_set, 0)
            if not part.nontrivial:
                # every factor lies inside one block: the formula gives 0,
                # and a one-block partition is refused
                ok = ok and expect == 0.0
                with pytest.raises(SpecError, match="has one block"):
                    esq_exact_pure(psi, part, Measure.E_SQ)
                continue
            got = esq_exact_pure(psi, part, Measure.E_SQ)
            ok = ok and abs(got - expect) < 1e-9
    report("GHZ-product value matches coefficient formula", ok)


def test_criterion_7_bosonic_regression():
    rep = theorem3_report(0.25, 0.25)
    ok = abs(rep.bound_b_cut - 1.0) < 1e-9
    ok = ok and abs(rep.bound_bc_cut - math.log2(3)) < 1e-9
    ok = ok and abs(rep.eta_star - 4 / 7) < 1e-9
    spec = BosonicBroadcastSpec((0.25, 0.25))
    grid_min = min(
        asymptotic_bound(spec, t) for t in np.linspace(1e-4, 1 - 1e-4, 10**4)
    )
    ok = ok and abs(rep.tripartite_bound - grid_min) < 1e-3
    ok = ok and abs(rep.tripartite_bound - 1.7754) < 1e-3
    for eta_b in np.linspace(0.05, 0.9, 10):
        r = theorem3_report(eta_b, 0.0)
        ok = ok and abs(r.bound_b_cut - math.log2((1 + eta_b) / (1 - eta_b))) < 1e-12
    report("pure-loss closed-form regression", ok)


def test_criterion_8_finite_ns_convergence():
    asym = asymptotic_bound(BosonicBroadcastSpec((0.25, 0.25)), 0.5)
    prev, ok = -1.0, True
    for ns in (1.0, 10.0, 1e3, 1e6):
        v = finite_ns_bound(BosonicBroadcastSpec((0.25, 0.25), mean_photon=ns), 0.5)
        ok = ok and v > prev
        prev = v
    ok = ok and 0 <= asym - prev < 1e-3
    report("finite photon-number monotone convergence", ok)


def test_criterion_9_variational_sanity():
    rng = np.random.default_rng(104)
    ok = True
    cfg = SquashConfig(restarts=2, seed=0)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        labels = tuple(f"P{i}" for i in range(n))
        psi = random_pure_state(rng, labels, (2,) * n)
        part = complete_partition(labels)
        exact = esq_exact_pure(psi, part, Measure.E_SQ)
        var = esq_upper_variational(psi, part, Measure.E_SQ, cfg).value_bits
        ok = ok and abs(var - exact) < 1e-6
    for sdims in ((2, 1), (2, 2)):
        spec = PrivateStateSpec(2, 2, sdims)
        st = make_private_state(spec, ("kA", "kB"), ("sA", "sB"))
        part = Partition((("kA", "sA"), ("kB", "sB")))
        res = esq_upper_variational(st, part, Measure.E_SQ, SquashConfig(restarts=3, seed=0))
        ok = ok and res.value_bits >= 1.0 - 1e-9
        ok = ok and res.value_bits <= 1.0 + 1e-3
    report("variational bound sanity on pure and private states", ok)


def test_criterion_10_cli_determinism(tmp_path):
    k = np.zeros((4, 2))
    k[0, 0] = 1
    k[3, 1] = 1
    ch_path = tmp_path / "copy.json"
    ch_path.write_text(
        channel_to_json(QuantumChannel((k,), 2, ("B", "C"), (2, 2)))
    )
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli_main(["bounds-finite", str(ch_path), "--seed", "0", "--output", str(o1)])
    c2 = cli_main(["bounds-finite", str(ch_path), "--seed", "0", "--output", str(o2)])
    ok = c1 == 0 and c2 == 0 and o1.read_bytes() == o2.read_bytes()
    doc = json.loads(o1.read_text())
    ok = ok and doc["report"]["bc_cut"]["bound_bits"] >= 1.0 - 1e-6
    report("deterministic channel-bound CLI output", ok)

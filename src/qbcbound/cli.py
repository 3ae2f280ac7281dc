"""Command-line front end.

Subcommands
-----------
qinfo          entropic summary of a state JSON file
esq            squashed-entanglement value/estimate for a state and partition
bounds-finite  rate-region constraints for a finite-dimensional channel
bounds-bosonic closed-form pure-loss broadcast bounds at one (eta_b, eta_c)
sweep          bounds-bosonic over a grid of eta_b values
selftest       quick invariant checks across all modules

All output is deterministic given --seed: floats are rendered with 12
significant digits, divergent bounds as the string "inf", and JSON keys are
sorted.  Exit code 2 signals a validation failure, with the violated
invariant named on stderr.

In-process ``main`` calls share one parser, built on first use by the
current ``build_parser``: parsing returns a fresh namespace and never
changes the parser, so nothing carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable

import numpy as np

from . import __version__
from .bosonic import BosonicBroadcastSpec, optimal_eta_star, theorem3_columns, theorem3_report
from .errors import QbcError
from .measures import Measure, cmi_dual_measure, cmi_total, entropy, qcmi
from .partitions import Partition, c_of, parse_partition
from .rates import FINAL_SQUASH, channel_output_state, evaluate_bounds, two_receiver_report
from .sampling import random_channel, random_state
from .squash import SquashConfig, esq_exact_pure, esq_upper_variational
from .states import (
    QuantumChannel,
    _check_count,
    apply_channel,
    channel_from_json,
    make_ghz,
    partial_trace,
    purify,
    state_from_json,
    tensor,
    trace_distance,
)

SWEEP_COLUMNS = (
    "eta_b",
    "eta_c",
    "bound_b_cut",
    "bound_c_cut",
    "bound_bc_cut",
    "tripartite_bound",
    "tripartite_bound_as_printed",
    "eta_star",
)
# sweep rows are converted to Python floats and text this many at a time, so a
# whole sweep never exists in both forms at once
_CHUNK_ROWS = 1024
# the most sweep steps: at this cap a sweep, written in chunks, peaks near
# 250 MB as CSV and near 200 MB as JSON
MAX_SWEEP_STEPS = 10**6


def _fmt(x):
    """Render a value deterministically: 12 significant digits, "inf" for
    divergent bounds, recursion into containers (json.dumps sorts keys)."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        if math.isnan(x):
            raise QbcError("NaN is never emitted")
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    return _fmt(float(x))


def _emit(text: str | Iterable[str], output: str | None):
    """Write ``text``, or each string it yields, to ``output`` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_rows(table: np.ndarray, fmt: str, output: str | None, extra: dict | None = None):
    """Emit each row of a (rows, SWEEP_COLUMNS) float table as a CSV line or
    as a JSON object, to which ``extra`` adds its keys."""
    if np.isnan(table).any():
        raise QbcError("NaN is never emitted")
    if fmt == "json":
        # each chunk of rows is dumped as a list, its brackets cut off and its
        # lines moved one level in, between the lines of the document around
        # them: the text that json.dumps gives the whole document
        doc = json.dumps({"rows": [None], "version": __version__}, sort_keys=True, indent=2)
        head, tail = doc.split("    null")

        def rows(k):
            chunk = table[k : k + _CHUNK_ROWS].tolist()
            dicts = [_fmt({**dict(zip(SWEEP_COLUMNS, r)), **(extra or {})}) for r in chunk]
            text = json.dumps(dicts, sort_keys=True, indent=2)[2:-2].replace("\n", "\n  ")
            return (",\n  " if k else "  ") + text

        chunks = (rows(k) for k in range(0, len(table), _CHUNK_ROWS))
        _emit(itertools.chain([head], chunks, [tail + "\n"]), output)
        return
    # "%.12g" prints what _fmt does: 12 digits, and "inf" for a divergent
    # bound.  A column whose bits never change (a sweep's eta_c) is printed
    # once, into the row template; the first column is always filled in per
    # row, so that every row has a value to format
    bits = table.view(np.int64)
    fixed = (bits == bits[0]).all(axis=0)
    fixed[0] = False
    row = ",".join(["%.12g" % v if f else "%.12g" for v, f in zip(table[0].tolist(), fixed)])
    row += "\n"
    live = table[:, ~fixed]
    chunks = (
        "".join([row % r for r in zip(*live[k : k + _CHUNK_ROWS].T.tolist())])
        for k in range(0, len(table), _CHUNK_ROWS)
    )
    _emit(itertools.chain([",".join(SWEEP_COLUMNS) + "\n"], chunks), output)


def _read_text(path: str) -> str:
    # JSON is UTF-8 text, whatever the locale
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qinfo(args) -> int:
    state = state_from_json(_read_text(args.state))
    doc = {
        "labels": list(state.labels),
        "dims": list(state.dims),
        "pure": state.is_pure(),
        "entropy_total": entropy(state, state.labels),
        "entropy_by_label": {lab: entropy(state, {lab}) for lab in state.labels},
    }
    if args.partition:
        partition = parse_partition(args.partition)
        doc["partition"] = str(partition)
        doc["cmi_total"] = cmi_total(state, partition)
        doc["cmi_dual"] = cmi_dual_measure(state, partition)
    _emit(json.dumps(_fmt(doc), sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_esq(args) -> int:
    state = state_from_json(_read_text(args.state))
    partition = parse_partition(args.partition)
    cfg = SquashConfig(restarts=args.restarts, seed=args.seed)
    measures = list(Measure) if args.measure in ("both", "min") else [Measure(args.measure)]
    values = {}
    for m in measures:
        res = esq_upper_variational(state, partition, m, cfg)
        values[m.value] = {"value_bits": res.value_bits, "converged": res.converged}
    doc = {
        "version": __version__,
        "partition": str(partition),
        "measure": args.measure,
        # every measure squashes the same purification: one value means the
        # state on the partition's labels is pure
        "exact": res.extension_description.get("trivial", False),
        "seed": args.seed,
        "restarts": args.restarts,
        "results": values,
    }
    if args.measure == "min":
        doc["min_bits"] = min(v["value_bits"] for v in values.values())
    _emit(json.dumps(_fmt(doc), sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_bounds_finite(args) -> int:
    channel = channel_from_json(_read_text(args.channel))
    squash_cfg = dataclasses.replace(FINAL_SQUASH, seed=args.seed)
    doc = {"version": __version__, "seed": args.seed}
    if not args.partition and len(channel.output_labels) == 2:
        doc["report"] = two_receiver_report(channel, squash_cfg)
    else:
        partitions = [parse_partition(p) for p in args.partition] if args.partition else None
        doc["constraints"] = [
            {
                "partition": str(rc.partition),
                "weights": {",".join(m): w for m, w in rc.weights().items()},
                "bound_bits": rc.bound_bits,
                "measure_used": rc.measure_used,
                "metadata": rc.metadata,
            }
            for rc in evaluate_bounds(channel, partitions, squash_cfg)
        ]
    _emit(json.dumps(_fmt(doc), sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_bounds_bosonic(args) -> int:
    rep = theorem3_report(args.eta_b, args.eta_c, args.ns)
    row = [args.eta_b, args.eta_c] + [getattr(rep, c) for c in SWEEP_COLUMNS[2:]]
    # the CSV columns carry no photon-number figures
    extra = None if rep.finite_ns is None else {"finite_ns": rep.finite_ns}
    _emit_rows(np.array([row]), args.format, args.output, extra)
    return 0


def _cmd_sweep(args) -> int:
    steps = _check_count("--sweep-steps", args.sweep_steps, 1)
    if steps > MAX_SWEEP_STEPS:
        raise QbcError(f"--sweep-steps must be at most {MAX_SWEEP_STEPS}")
    # overflow to inf stays quiet, as in Python floats; validation rejects it
    with np.errstate(over="ignore"):
        eta_b = args.eta_b * np.arange(1, steps + 1) / steps
    cols = theorem3_columns(eta_b, args.eta_c)
    eta_c = np.full(steps, args.eta_c)
    # eta_b >= 0 is validated, so the grid is already in ascending order
    _emit_rows(np.column_stack([eta_b, eta_c] + [cols[c] for c in SWEEP_COLUMNS[2:]]),
               args.format, args.output)
    return 0


def _single_rail_loss_channel(eta_b: float, eta_c: float) -> QuantumChannel:
    """The pure-loss broadcast channel on at most one photon: a qubit input
    (|0>, |1> photons) split into qubit receivers B and C, with the lost
    photon in a qubit environment."""
    k0 = np.zeros((4, 2))
    k0[0, 0] = 1  # |00><0|
    k0[2, 1] = math.sqrt(eta_b)  # |10><1|
    k0[1, 1] = math.sqrt(eta_c)  # |01><1|
    k1 = np.zeros((4, 2))
    k1[0, 1] = math.sqrt(1 - eta_b - eta_c)  # |00><1|
    return QuantumChannel((k0, k1), 2, ("B", "C"), (2, 2))


def _selftest_checks(seed: int):
    rng = np.random.default_rng(seed)
    # product-state marginal
    a = random_state(rng, ("A",), (2,))
    b = random_state(rng, ("B",), (3,))
    yield (
        "partial_trace recovers product factor",
        np.max(np.abs(partial_trace(tensor([a, b]), {"A"}).matrix - a.matrix)) < 1e-12,
    )
    # purification round trip
    rho = random_state(rng, ("A", "B"), (2, 2))
    yield (
        "purify round trip",
        trace_distance(partial_trace(purify(rho, "E"), {"A", "B"}), rho) < 1e-9,
    )
    # GHZ pure-state value
    ghz = make_ghz(("A", "B", "C"), 2)
    yield (
        "tripartite GHZ value 1.5 bits",
        abs(esq_exact_pure(ghz, Partition((("A",), ("B",), ("C",)))) - 1.5) < 1e-9,
    )
    # cross-block subset collection
    yield (
        "cross-block subsets of A|B,C",
        c_of(Partition((("A",), ("B", "C"))))
        == [("A", "B"), ("A", "C"), ("A", "B", "C")],
    )
    # QCMI duality on a random pure 4-party state
    psi = purify(random_state(rng, ("A", "B", "E"), (2, 2, 2)), "D")
    yield (
        "pure-state conditioning duality",
        abs(qcmi(psi, {"A"}, {"B"}, {"E"}) - qcmi(psi, {"A"}, {"B"}, {"D"})) < 1e-9,
    )
    # channel application preserves trace
    ch = random_channel(rng, 2, ("B", "C"), (2, 2))
    st = random_state(rng, ("R", "A"), (2, 2))
    out = apply_channel(ch, st, "A")
    yield ("channel application preserves trace", abs(np.trace(out.matrix).real - 1) < 1e-9)
    # bosonic stationarity root for symmetric transmissivities
    spec = BosonicBroadcastSpec((0.25, 0.25))
    yield ("symmetric loss squashing root 4/7", abs(optimal_eta_star(spec) - 4 / 7) < 1e-9)
    # the finite engine against the paper's closed form: every input of the
    # single-rail channel has mean photon number at most 1, so its b cut bound
    # lies between the coherent information at the maximally entangled input
    # and the N_s = 1 bound
    eta_b, eta_c = 0.3, 0.2
    rail = _single_rail_loss_channel(eta_b, eta_c)
    (rc,) = evaluate_bounds(rail, [Partition((("R", "C"), ("B",)))])
    omega = channel_output_state(rail, make_ghz(("R", "A"), 2))
    hashing = max(entropy(omega, {"R", "C"}), entropy(omega, {"B"})) - entropy(
        omega, {"R", "B", "C"}
    )
    closed = theorem3_report(eta_b, eta_c, 1).finite_ns["b_cut"]
    yield ("single-rail loss b cut between hashing and N_s = 1", hashing <= rc.bound_bits <= closed)


def _cmd_selftest(args) -> int:
    _check_count("seed", args.seed, 0)
    failures = 0
    for name, ok in _selftest_checks(args.seed):
        line = f"{'ok' if ok else 'FAIL'}  {name}"
        print(line)
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qbcbound",
        description="Squashed-entanglement rate bounds for quantum broadcast channels.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--output", default=None, help="write output here (default stdout)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sp = sub.add_parser("qinfo", help="entropic summary of a state")
    sp.add_argument("state", help="state JSON file")
    sp.add_argument("--partition", default=None, help='block syntax, e.g. "R|B,C"')
    common(sp, seed=False)
    sp.set_defaults(fn=_cmd_qinfo)

    sp = sub.add_parser("esq", help="squashed-entanglement value or upper bound")
    sp.add_argument("state", help="state JSON file")
    sp.add_argument("--partition", required=True, help='block syntax, e.g. "A|B|C"')
    sp.add_argument(
        "--measure",
        choices=tuple(m.value for m in Measure) + ("both", "min"),
        default=Measure.E_SQ.value,
        help="which measure(s) to evaluate (default esq)",
    )
    sp.add_argument("--restarts", type=int, default=20, help="optimizer restarts (default 20)")
    common(sp)
    sp.set_defaults(fn=_cmd_esq)

    sp = sub.add_parser("bounds-finite", help="rate constraints for a channel")
    sp.add_argument("channel", help="channel JSON file")
    sp.add_argument(
        "--partition",
        action="append",
        default=None,
        help="restrict to this partition (repeatable); default: all nontrivial",
    )
    common(sp)
    sp.set_defaults(fn=_cmd_bounds_finite)

    sp = sub.add_parser("bounds-bosonic", help="closed-form pure-loss bounds")
    sp.add_argument("--eta-b", type=float, required=True)
    sp.add_argument("--eta-c", type=float, default=0.0)
    sp.add_argument("--ns", type=float, default=None, help="mean photon number (optional)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp, seed=False)
    sp.set_defaults(fn=_cmd_bounds_bosonic)

    sp = sub.add_parser("sweep", help="bounds-bosonic over a grid of eta_b values")
    sp.add_argument("--eta-b", type=float, required=True, help="largest eta_b in the sweep")
    sp.add_argument("--eta-c", type=float, default=0.0, help="fixed eta_c")
    sp.add_argument("--sweep-steps", type=int, default=10)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp, seed=False)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("selftest", help="run quick invariant checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_selftest)

    return p


@functools.lru_cache(maxsize=1)
def _parser(builder) -> argparse.ArgumentParser:
    # a parser takes longer to build than a small command takes to run; keyed
    # by the builder, so a rebound ``build_parser`` builds and keeps its own
    return builder()


def main(argv=None) -> int:
    args = _parser(build_parser).parse_args(argv)
    try:
        return args.fn(args)
    # UnicodeDecodeError: an input file that is not UTF-8 text
    except (QbcError, json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

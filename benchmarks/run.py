"""qbcbound benchmark: runs one workload through the real CLI in-process.

    python3 benchmarks/run.py --workload finite_noisy --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json and
the error rate; with ``--trace 1`` it runs the workload untraced for half of
``--seconds`` and under the span tracer for the other half, and prints the
per-layer metrics instead.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

An untraced run runs every input of the workload's pool once, then keeps
going while the next op, at the median op time so far, ends within
``--seconds``.  A ``finite_noisy`` or ``esq_private`` op takes 15-40 s on a
shared 2-core machine, so at 20 s their runs are one op long;
``bosonic_sweep`` ops take about a second and fill the window.  Set-up time
is the median over fresh interpreters started one after another.

On such a machine op times drift by up to a factor of two over tens of
minutes as other tenants load it.  A reference probe timed around each op
did not track that drift (it slowed less than the ops did), so the gated
figures are plain wall-clock seconds with the widest bounds allowed.

The program is imported from ``src/`` beside this directory, never from an
installed copy.  Inputs, a record of the run (environment, per-op times,
set-up times, bounds per input) and the spans of a traced run go under
``.bench_run/``.
"""

import os
import time

# one BLAS thread, set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_REPS = 3


def import_program():
    """Import qbcbound from this checkout's ``src/``."""
    package = SRC / "qbcbound"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a qbcbound checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qb = types.SimpleNamespace(
        **{m: importlib.import_module(f"qbcbound.{m}") for m in ("cli", "sampling", "states")}
    )
    if Path(qb.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qbcbound from {qb.cli.__file__}, not {package}")
    return qb


def set_up(workload: str, seed: int):
    """Import the program and write the workload's inputs; returns (qb, pool)."""
    qb = import_program()
    workdir = OUT / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return qb, workloads.WORKLOADS[workload](seed, workdir, qb)


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters, run one after another, that each
    import numpy, scipy and qbcbound and generate and write the inputs."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; run.set_up({workload!r}, {seed})"
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t)
    return times


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)  # seconds per completed op
    bounds: dict[int, float] = field(default_factory=dict)  # pool index -> bound_sum_bits
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_phase(qb, pool, seconds: float, min_ops: int, span=None) -> Phase:
    """Closed loop over the pool: start another op until ``min_ops`` are done
    and the next one, at the median op time so far, would end past
    ``seconds``.  Output checks run outside the timed op."""
    phase = Phase()
    t_phase = time.perf_counter()
    while phase.attempted < min_ops or (
        time.perf_counter() - t_phase + statistics.median(phase.times or [0.0]) <= seconds
    ):
        j = phase.attempted % len(pool)
        phase.attempted += 1
        buf = io.StringIO()
        try:
            with span("op") if span else contextlib.nullcontext():
                t = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = qb.cli.main(pool[j].argv)
                dt = time.perf_counter() - t
            if rc != 0:
                raise workloads.CheckFailed(f"exit code {rc}")
            phase.bounds[j] = pool[j].check(buf.getvalue())
            phase.times.append(dt)
        except Exception:  # any failed op counts against error_rate; keep going
            phase.failures.append(traceback.format_exc())
            print(f"op {phase.attempted - 1} failed:\n{phase.failures[-1]}", file=sys.stderr)
    return phase


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    qb, pool = set_up(args.workload, args.seed)
    setup_reps = setup_times(args.workload, args.seed)

    correct = True
    violations = []
    if args.trace:
        untraced = run_phase(qb, pool, args.seconds / 2, 1)
        tr = tracing.Tracer()
        with tr.installed():
            with tr.span("setup"):  # the only place the sampling layer runs
                set_up(args.workload, args.seed)
            traced = run_phase(qb, pool, args.seconds / 2, 1, tr.span)
        tr.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        values = tracing.layer_metrics(tr)
        values["trace.overhead_ratio"] = (
            _median(traced.times) / _median(untraced.times) if untraced.times else 0.0
        )
        # self times must account for the whole traced op time
        correct = abs(values["trace.self_sum_s"] - values["trace.op_s"]) <= 1e-9 * max(
            1.0, values["trace.op_s"]
        )
        violations = tracing.zero_prediction_violations(args.workload, values)
        phases = [untraced, traced]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        phase = run_phase(qb, pool, args.seconds, len(pool))
        values = {
            "ops_per_s": len(phase.times) / sum(phase.times) if phase.times else 0.0,
            "op_p50_s": _median(phase.times),
            "bound_sum_bits": statistics.fmean(phase.bounds.values()) if phase.bounds else 0.0,
            "setup_s": statistics.median(setup_reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        phases = [phase]
        names = [m["name"] for m in spec["end_to_end"]]

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(len(ph.failures) for ph in phases)
    correct = correct and failed == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    # printed and recorded, not a BENCHMARK.json metric: it is 0 whenever the
    # outputs are correct, and it follows from "attempted" and "failed"
    error_rate = failed / max(attempted, 1)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_reps_s": setup_reps,
        "op_times_s": [ph.times for ph in phases],
        "bound_sum_bits_by_input": [ph.bounds for ph in phases],
        "failures": [f for ph in phases for f in ph.failures],
        "zero_prediction_violations": violations,
        "metrics": metrics,
        "error_rate": error_rate,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    for name in names:
        print(f"{args.workload:>13}  {name:<40} {values[name]:.6g} {units[name]}")
    print(f"{args.workload:>13}  {'error_rate':<40} {error_rate:.6g} ({failed} of {attempted} ops)")
    print(f"{args.workload:>13}  {'op samples':<40} {' + '.join(str(len(ph.times)) for ph in phases)}")
    if args.trace:
        verdict = "hold" if not violations else "violated by " + ", ".join(violations)
        print(f"{args.workload:>13}  zero predictions {verdict}")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

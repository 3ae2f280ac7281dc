"""Span tracer that wraps qbcbound's functions from the outside.

Nothing under ``src/`` knows about it: ``Tracer.installed()`` replaces every
binding of every public qbcbound function, a few methods and the numpy/scipy
kernels the package calls with timing wrappers, and puts the originals back
on exit.  ``from .states import partial_trace`` copies the name into the
importing module, so each module binding is patched separately.

Spans live in flat arrays (name id, start, end, parent, root) and are
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("cli", "rates", "squash", "measures", "states", "partitions", "bosonic", "sampling")
# layers whose work happens inside an op; sampling only runs during set-up
OP_LAYERS = ("cli", "rates", "squash", "measures", "states", "partitions", "bosonic", "linalg")
_NO_PARENT = -1

_ALL = ("finite_noisy", "esq_private", "bosonic_sweep")
_FINITE = ("finite_noisy", "esq_private")
# metric prefix -> (end-to-end metrics it should move, workloads where it
# does work, workloads where it is predicted to stay at zero)
LAYER_MAP = {
    "rates.": (("ops_per_s", "op_p50_s"), ("finite_noisy",), ("esq_private", "bosonic_sweep")),
    "squash.": (("ops_per_s", "op_p50_s", "bound_sum_bits"), _FINITE, ("bosonic_sweep",)),
    "states.": (("ops_per_s", "peak_rss_mb"), _FINITE, ("bosonic_sweep",)),
    "measures.": (("ops_per_s", "peak_rss_mb"), _FINITE, ("bosonic_sweep",)),
    "partitions.": (("ops_per_s", "peak_rss_mb"), _FINITE, ("bosonic_sweep",)),
    "linalg.": (("ops_per_s",), _FINITE, ("bosonic_sweep",)),
    "bosonic.": (("ops_per_s",), ("bosonic_sweep",), _FINITE),
    "cli.": (("ops_per_s",), _ALL, ()),
    "bench.": ((), _ALL, ()),
    "sampling.": (("setup_s",), ("finite_noisy", "esq_private"), ()),
    "trace.": ((), _ALL, ()),
}


def zero_prediction_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    """Metrics that LAYER_MAP predicts to be 0 on ``workload`` but are not."""
    return [
        name
        for name, value in metrics.items()
        if value != 0
        and any(name.startswith(p) and workload in zero for p, (_, _, zero) in LAYER_MAP.items())
    ]


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_NO_PARENT]
        # (root span name, counter) -> total; filled by result hooks
        self.counters: dict[tuple[str, str], float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        parent = self._stack[-1]
        self.name_id.append(nid)
        self.parent.append(parent)
        self.root.append(i if parent == _NO_PARENT else self.root[parent])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as an op's root."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def count(self, key: str, value: float):
        top = self._stack[-1]
        root = self.names[self.name_id[self.root[top]]] if top != _NO_PARENT else ""
        self.counters[(root, key)] += value

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper; ``hook(tracer, args, result)`` may add counters."""
        nid = self._intern(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target binding for the duration of the block."""
        patches = [
            (owner, attr, self.wrap(name, getattr(owner, attr), hook))
            for owner, attr, name, hook in targets()
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# what gets wrapped


def _optimizer_hook(prefix: str):
    def hook(tracer: Tracer, args, res):
        tracer.count(f"{prefix}.nfev", res.nfev)
        tracer.count(f"{prefix}.nit", res.nit)
        tracer.count(f"{prefix}.success", bool(res.success))

    return hook


def _eig_hook(tracer: Tracer, args, result):
    n = np.shape(args[0])[-1]
    tracer.count("linalg.eig.flops_computed", float(n) ** 3)


def _parser_hook(tracer: Tracer, args, parser):
    # the parser is built per call and discarded, so an instance patch is enough
    parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)


_SPECIAL_NAMES = {
    ("squash", "minimize"): ("squash.optimizer", _optimizer_hook("squash.optimizer")),
    ("rates", "minimize"): ("rates.input_search", _optimizer_hook("rates.input_search")),
    ("squash", "expm"): ("linalg.expm", None),
    ("cli", "build_parser"): ("cli.build_parser", _parser_hook),
}


def targets():
    """(owner, attribute, span name, hook) for every binding to patch."""
    package = "qbcbound"
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }
    layer_of = {f"{package}.{layer}": layer for layer in LAYERS}
    public = {}
    for modname, layer in layer_of.items():
        mod = modules.get(modname)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                public[obj] = f"{layer}.{attr}"
    out = []
    for modname, mod in modules.items():
        layer = layer_of.get(modname)
        for attr, obj in list(vars(mod).items()):
            special = _SPECIAL_NAMES.get((layer, attr))
            if special is not None:
                out.append((mod, attr) + special)
            elif inspect.isfunction(obj) and obj in public:
                out.append((mod, attr, public[obj], None))
    states = modules.get(f"{package}.states")
    if states is not None:
        out += [
            (states.MultipartiteState, "__post_init__", "states.validate", None),
            (states.MultipartiteState, "is_pure", "states.is_pure", None),
            (states.QuantumChannel, "__post_init__", "states.channel_validate", None),
        ]
    out += [
        (np.linalg, "eigvalsh", "linalg.eigvalsh", _eig_hook),
        (np.linalg, "eigh", "linalg.eigh", _eig_hook),
        # rates imports expm from scipy.linalg at call time
        (scipy.linalg, "expm", "linalg.expm", None),
    ]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op averages over the spans under ``op`` roots, plus set-up-only
    ``sampling`` figures from ``setup`` roots."""
    arrs = tracer.arrays()
    names = tracer.names
    selft = self_times(arrs["start"], arrs["end"], arrs["parent"])
    dur = arrs["end"] - arrs["start"]

    def totals(root_name):
        """calls, self time and inclusive time per span name under roots
        called ``root_name``, and the number of such roots."""
        calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
        if root_name not in names:
            return calls, self_s, incl_s, 0
        is_root = arrs["name_id"] == names.index(root_name)
        under = is_root[arrs["root"]]
        ids = arrs["name_id"][under]
        n = np.bincount(ids, minlength=len(names))
        s = np.bincount(ids, weights=selft[under], minlength=len(names))
        d = np.bincount(ids, weights=dur[under], minlength=len(names))
        for nid in np.flatnonzero(n):
            calls[names[nid]], self_s[names[nid]], incl_s[names[nid]] = int(n[nid]), s[nid], d[nid]
        return calls, self_s, incl_s, int(is_root.sum())

    calls, self_s, incl_s, n_ops = totals("op")
    per = 1.0 / max(n_ops, 1)

    def group(prefixes, table):
        return sum(v for k, v in table.items() if k in prefixes)

    def counter(key, root="op"):
        return tracer.counters.get((root, key), 0.0)

    m: dict[str, float] = {}
    for opt in ("rates.input_search", "squash.optimizer"):
        restarts = calls[opt]
        nfev = counter(f"{opt}.nfev")
        m[f"{opt}.restarts"] = restarts * per
        m[f"{opt}.nfev"] = nfev * per
        m[f"{opt}.nit"] = counter(f"{opt}.nit") * per
        m[f"{opt}.s"] = incl_s[opt] * per
        m[f"{opt}.us_per_eval"] = incl_s[opt] / nfev * 1e6 if nfev else 0.0
        m[f"{opt}.success_ratio"] = counter(f"{opt}.success") / restarts if restarts else 0.0
    m["rates.evaluate_bounds.self_s"] = self_s["rates.evaluate_bounds"] * per
    m["rates.channel_output_state.calls"] = calls["rates.channel_output_state"] * per
    m["squash.variational.calls"] = calls["squash.esq_upper_variational"] * per
    m["squash.variational.self_s"] = self_s["squash.esq_upper_variational"] * per
    m["squash.exact_pure.calls"] = calls["squash.esq_exact_pure"] * per
    for fn in ("validate", "partial_trace", "purify", "apply_channel", "is_pure"):
        m[f"states.{fn}.calls"] = calls[f"states.{fn}"] * per
        m[f"states.{fn}.self_s"] = self_s[f"states.{fn}"] * per
    m["states.channel_validate.calls"] = calls["states.channel_validate"] * per
    cmi = ("measures.cmi_total", "measures.cmi_dual_measure")
    m["measures.cmi.calls"] = group(cmi, calls) * per
    m["measures.cmi.self_s"] = group(cmi, self_s) * per
    eig = ("linalg.eigvalsh", "linalg.eigh")
    m["linalg.eig.calls"] = group(eig, calls) * per
    m["linalg.eig.self_s"] = group(eig, self_s) * per
    m["linalg.eig.flops_computed"] = counter("linalg.eig.flops_computed") * per
    m["linalg.expm.calls"] = calls["linalg.expm"] * per
    m["linalg.expm.self_s"] = self_s["linalg.expm"] * per
    for fn in ("theorem3_report", "optimal_eta_star", "asymptotic_bound"):
        m[f"bosonic.{fn}.calls"] = calls[f"bosonic.{fn}"] * per
        m[f"bosonic.{fn}.self_s"] = self_s[f"bosonic.{fn}"] * per
    m["cli.parse_s"] = (incl_s["cli.build_parser"] + incl_s["cli.parse_args"]) * per
    # every layer's self time; with the benchmark's own "op" span they add
    # up to the traced op time
    layer_self = {"bench": self_s["op"]}
    for name, s in self_s.items():
        layer = name.split(".")[0]
        if layer in OP_LAYERS:
            layer_self[layer] = layer_self.get(layer, 0.0) + s
    for layer in OP_LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per
    m["trace.op_s"] = incl_s["op"] * per
    m["trace.self_sum_s"] = sum(layer_self.values()) * per
    s_calls, s_self, _, n_setups = totals("setup")
    sampling = [k for k in s_calls if k.startswith("sampling.")]
    m["sampling.calls"] = sum(s_calls[k] for k in sampling) / max(n_setups, 1)
    m["sampling.self_s"] = sum(s_self[k] for k in sampling) / max(n_setups, 1)
    return m

"""Spans around calls into the package's public functions, from outside.

install() replaces module attributes such as ``linalg.smith_normal_form``
with wrappers that record a span (name, start, end, parent span) per call.
Callers inside and across modules look these names up at call time, so the
wrappers see every call made through the module.  Spans stay in memory in
flat arrays and are written to one .npz file when the traced work ends;
per_layer() turns one or more such files into the per-layer metrics.
"""

import functools
import importlib
import json
import time
from array import array

import numpy as np

# (module, function, kind).  "span" times each call; "gen" times each step
# of a generator and counts the items it yields; "count" only counts calls,
# for functions too small and too frequent to time one by one.
TARGETS = [
    ("stabilizer", "enumerate_sps", "gen"),
    ("stabilizer", "supported_subgroup", "span"),
    ("stabilizer", "expectation_exponent", "span"),
    ("stabilizer", "extreme_points", "span"),
    ("linalg", "smith_normal_form", "span"),
    ("linalg", "subgroup_order", "span"),
    ("linalg", "lattice_key", "span"),
    ("linalg", "hermite_normal_form", "span"),
    ("linalg", "mat_inverse_unimodular", "span"),
    ("linalg", "solve_left_mod", "span"),
    ("linalg", "left_kernel_mod", "span"),
    ("magic", "build_dictionary", "span"),
    ("magic", "rel_entropy_magic", "span"),
    ("magic", "lgr_smax_cone", "span"),
    ("magic", "lr_lp", "span"),
    ("magic", "lf_pure", "span"),
    ("simplex", "solve_lp", "span"),
    ("dense", "partial_trace", "span"),
    ("dense", "vn_entropy", "span"),
    ("dense", "apply_brickwork", "span"),
    ("witness", "mi_stability_check", "span"),
    ("toric", "quantization_check", "span"),
    ("toric", "s_matrix_dense", "span"),
    ("toric", "ground_state", "span"),
    ("toric", "annulus_extreme_points", "span"),
    ("pauli", "compose", "count"),
    ("covering", "cover_composite", "span"),
    ("covering", "verify_cover", "span"),
    ("ring", "construct_galois_ring", "span"),
    ("cli", "main", "span"),
]


def _result_counts(name, out):
    """Counts read off a return value at the same boundary as the span."""
    if name in ("magic.rel_entropy_magic", "magic.lgr_smax_cone"):
        yield name + ".iterations", out.iterations
        if name == "magic.lgr_smax_cone":
            yield name + ".lower_estimates", int(out.status == "lower-estimate")
    elif name == "covering.verify_cover":
        yield name + ".vectors", out.vector_count


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def dump(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)),
                 counts=np.array(json.dumps(self.counts)),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _wrap_span(tr, name, fn):
    nid = tr._id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        for key, value in _result_counts(name, out):
            tr.add(key, value)
        return out
    return wrapper


def _wrap_gen(tr, name, fn):
    nid = tr._id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tr.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(idx)
            tr.add(name + ".items")
            yield item
    return wrapper


def _wrap_count(tr, name, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[key] = tr.counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


_WRAP = {"span": _wrap_span, "gen": _wrap_gen, "count": _wrap_count}


def install(tr):
    """Wrap every target that exists; returns a function that undoes it."""
    saved = []
    for mod_name, fn_name, kind in TARGETS:
        mod = importlib.import_module("quditmagic." + mod_name)
        fn = getattr(mod, fn_name, None)
        if fn is None:
            continue
        saved.append((mod, fn_name, fn))
        setattr(mod, fn_name, _WRAP[kind](tr, mod_name + "." + fn_name, fn))

    def uninstall():
        for mod, fn_name, fn in saved:
            setattr(mod, fn_name, fn)
    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _totals(paths):
    """Per span name: calls, inclusive seconds, self seconds; plus counts."""
    calls, incl, self_s, counts = {}, {}, {}, {}
    for path in paths:
        with np.load(path) as z:
            names = json.loads(str(z["names"]))
            for k, v in json.loads(str(z["counts"])).items():
                counts[k] = counts.get(k, 0) + v
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        for i, nm in enumerate(names):
            sel = name == i
            calls[nm] = calls.get(nm, 0) + int(sel.sum())
            incl[nm] = incl.get(nm, 0.0) + float(dur[sel].sum())
            self_s[nm] = self_s.get(nm, 0.0) + float(own[sel].sum())
    return calls, incl, self_s, counts


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer(paths, import_times, overhead_s):
    """Every per-layer metric; a function that never ran reads 0."""
    calls, incl, self_s, counts = _totals(paths)

    def c(nm):
        return calls.get(nm, 0)

    def s(nm):
        return self_s.get(nm, 0.0)

    def i(nm):
        return incl.get(nm, 0.0)

    fw_it = counts.get("magic.rel_entropy_magic.iterations", 0)
    cone_it = counts.get("magic.lgr_smax_cone.iterations", 0)
    m = {
        "import.sympy_s": (import_times.get("sympy", 0.0), "s"),
        "import.scipy_optimize_s": (import_times.get("scipy.optimize", 0.0), "s"),
        "stabilizer.enumerate_sps.groups": (counts.get("stabilizer.enumerate_sps.items", 0), "count"),
        "stabilizer.enumerate_sps.self_s": (s("stabilizer.enumerate_sps"), "s"),
        "stabilizer.supported_subgroup.calls": (c("stabilizer.supported_subgroup"), "count"),
        "stabilizer.supported_subgroup.self_s": (s("stabilizer.supported_subgroup"), "s"),
        "stabilizer.expectation_exponent.calls": (c("stabilizer.expectation_exponent"), "count"),
        "stabilizer.expectation_exponent.self_s": (s("stabilizer.expectation_exponent"), "s"),
        "stabilizer.extreme_points.self_s": (s("stabilizer.extreme_points"), "s"),
        "linalg.smith_normal_form.calls": (c("linalg.smith_normal_form"), "count"),
        "linalg.smith_normal_form.self_s": (s("linalg.smith_normal_form"), "s"),
        "linalg.smith_normal_form.us_per_call": (
            _ratio(i("linalg.smith_normal_form"), c("linalg.smith_normal_form"), 1e6), "us"),
        "linalg.subgroup_order.calls": (c("linalg.subgroup_order"), "count"),
        "linalg.lattice_key.calls": (c("linalg.lattice_key"), "count"),
        "linalg.hermite_normal_form.self_s": (s("linalg.hermite_normal_form"), "s"),
        "linalg.mat_inverse_unimodular.calls": (c("linalg.mat_inverse_unimodular"), "count"),
        "linalg.mat_inverse_unimodular.self_s": (s("linalg.mat_inverse_unimodular"), "s"),
        "linalg.solve_left_mod.self_s": (s("linalg.solve_left_mod"), "s"),
        "linalg.left_kernel_mod.self_s": (s("linalg.left_kernel_mod"), "s"),
        "magic.build_dictionary.self_s": (s("magic.build_dictionary"), "s"),
        "magic.rel_entropy_magic.iterations": (fw_it, "count"),
        "magic.rel_entropy_magic.ms_per_iter": (
            _ratio(i("magic.rel_entropy_magic"), fw_it, 1e3), "ms"),
        "magic.lgr_smax_cone.iterations": (cone_it, "count"),
        "magic.lgr_smax_cone.ms_per_iter": (
            _ratio(i("magic.lgr_smax_cone"), cone_it, 1e3), "ms"),
        "magic.lgr_smax_cone.lower_estimates": (
            counts.get("magic.lgr_smax_cone.lower_estimates", 0), "count"),
        "magic.lr_lp.self_s": (s("magic.lr_lp"), "s"),
        "magic.lf_pure.self_s": (s("magic.lf_pure"), "s"),
        "simplex.solve_lp.calls": (c("simplex.solve_lp"), "count"),
        "simplex.solve_lp.self_s": (s("simplex.solve_lp"), "s"),
        "simplex.solve_lp.ms_per_call": (
            _ratio(i("simplex.solve_lp"), c("simplex.solve_lp"), 1e3), "ms"),
        "dense.partial_trace.calls": (c("dense.partial_trace"), "count"),
        "dense.partial_trace.self_s": (s("dense.partial_trace"), "s"),
        "dense.vn_entropy.self_s": (s("dense.vn_entropy"), "s"),
        "dense.apply_brickwork.self_s": (s("dense.apply_brickwork"), "s"),
        "witness.mi_stability_check.self_s": (s("witness.mi_stability_check"), "s"),
        "toric.quantization_check.self_s": (s("toric.quantization_check"), "s"),
        "toric.s_matrix_dense.self_s": (s("toric.s_matrix_dense"), "s"),
        "toric.ground_state.self_s": (s("toric.ground_state"), "s"),
        "pauli.compose.calls": (counts.get("pauli.compose.calls", 0), "count"),
        "toric.annulus_extreme_points.self_s": (s("toric.annulus_extreme_points"), "s"),
        "covering.cover_composite.self_s": (s("covering.cover_composite"), "s"),
        "covering.verify_cover.self_s": (s("covering.verify_cover"), "s"),
        "covering.verify_cover.vectors_per_s": (
            _ratio(counts.get("covering.verify_cover.vectors", 0), i("covering.verify_cover")), "1/s"),
        "ring.construct_galois_ring.self_s": (s("ring.construct_galois_ring"), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def parse_importtime(stderr_text):
    """Cumulative import seconds per module from `python -X importtime`."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue
        out[parts[2].strip()] = cumulative_us / 1e6
    return out

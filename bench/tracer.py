"""Span tracer that measures the mdsx layers from outside the library.

`Tracer.install()` replaces every binding of each traced function with a
wrapper: module globals in every loaded ``mdsx`` module (``covering`` and
``suites`` import functions by name), values of module-level dicts (the
suite table), and methods on their classes.  `Tracer.uninstall()` puts
every original back.

A wrapped call records a span (name, parent span, start, end) in flat
in-memory arrays; the hot field operations and the ``Matrix`` constructor
are only counted, because a span around each of millions of calls would
dominate the run.  `Tracer.save()` writes the spans to an ``.npz`` file when
the run ends and `layer_metrics()` derives the per-layer table from it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from workloads import SUITE_ORDER

LAYERS = ("field", "matrix", "code", "kernels", "covering", "constructions",
          "suites", "cli")

# Public methods traced with a span; public module-level functions of the
# layers are found automatically.
SPAN_METHODS = {
    "matrix.Matrix": ("transpose", "mul", "mat_vec", "hstack", "vstack",
                      "with_row", "with_col", "select_cols", "rref", "rank",
                      "det", "nullspace", "solve", "to_int_rows"),
    "code.LinearCode": ("dual", "same_code", "contains", "codewords",
                        "min_distance", "weight_enumerator", "is_mds",
                        "extend_u", "extend_g"),
    "covering.CoveringReport": ("leader_weight", "coset_leader_weight_counts",
                                "representatives", "to_dict"),
}
# Private functions that a layer metric names (the report writer).
SPAN_PRIVATE = ("cli._emit",)
# Counted without a span: the hot scalar helpers, and the support-search
# helper so that code.min_distance.supports_frac can tell the two distance
# paths apart.
COUNT_FUNCTIONS = ("kernels.pack_syndrome",)
COUNT_METHODS = {
    "field.FieldCtx": ("mul_i", "add_i", "elem"),
    "matrix.Matrix": ("__init__",),
    "code.LinearCode": ("_min_distance_by_supports",),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def traced_targets(mdsx):
    """(span name, owner, attribute, original, kind) for every traced
    callable; owner is a module for functions and a class for methods."""
    out = []
    layers = {layer: importlib.import_module(f"{mdsx.__name__}.{layer}")
              for layer in LAYERS}
    for layer, mod in layers.items():
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                out.append((name, mod, attr, obj,
                            "count" if name in COUNT_FUNCTIONS else "span"))
    for dotted in SPAN_PRIVATE:
        layer, attr = dotted.split(".")
        mod = layers[layer]
        out.append((dotted, mod, attr, vars(mod)[attr], "span"))
    for kind, table in (("span", SPAN_METHODS), ("count", COUNT_METHODS)):
        for owner, attrs in table.items():
            layer, cls_name = owner.split(".")
            cls = getattr(layers[layer], cls_name)
            for attr in attrs:
                out.append((f"{owner}.{attr}", cls, attr, vars(cls)[attr],
                            kind))
    return out


def mdsx_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mdsx" or name.startswith("mdsx."))]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, mdsx):
        self.mdsx = mdsx
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.extra: dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._counters: dict[str, object] = {}

    # -- counters ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def count(self, name: str) -> int:
        if name in self._counters:
            return self._counters[name]()
        i = self._ids.get(name)
        return 0 if i is None else self.calls[i]

    # -- wrappers ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _span_wrapper(self, name, fn):
        nid = self._id(name)
        calls, stack, ends, clock = self.calls, self._stack, self.span_end, \
            time.perf_counter
        probe = _PROBES.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time is spent in next(), so each next() is a span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    tracer.span_start[idx] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    if probe is not None:
                        probe(tracer, args, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = tracer._open(nid)
            tracer.span_start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(tracer, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        n = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal n
            n += 1
            return fn(*args, **kwargs)

        self._counters[name] = lambda: n
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        swap = {}
        for name, owner, attr, original, kind in traced_targets(self.mdsx):
            wrapper = (self._span_wrapper(name, original) if kind == "span"
                       else self._count_wrapper(name, original))
            wrapper.__traced_original__ = original
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original, "attr"))
                setattr(owner, attr, wrapper)
            else:
                swap[id(original)] = (original, wrapper)
        # every module binding and dict entry of each function, not only
        # the defining one
        for mod in mdsx_modules():
            ns = vars(mod)
            for attr, value in list(ns.items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, attr, value, "item"))
                    ns[attr] = hit[1]
                elif type(value) is dict:
                    for key, v in list(value.items()):
                        hit = swap.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._restore.append((value, key, v, "item"))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        for owner, key, original, how in reversed(self._restore):
            if how == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def save(self, path) -> None:
        counts = {name: self.count(name) for name in self._counters}
        counts.update({name: self.calls[i] for name, i in self._ids.items()})
        counts.update(self.extra)
        keys = sorted(counts)
        np.savez(path,
                 names=np.array(self.names or [""]),
                 span_name=np.frombuffer(self.span_name, dtype=np.int32),
                 span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 span_start=np.frombuffer(self.span_start, dtype=np.float64),
                 span_end=np.frombuffer(self.span_end, dtype=np.float64),
                 count_keys=np.array(keys or [""]),
                 count_values=np.array([float(counts[k]) for k in keys]))


# ---------------------------------------------------------------------------
# Probes: extra counters read from a traced call's arguments and result
# ---------------------------------------------------------------------------

def _probe_codeword_blocks(tracer, args, item):
    tracer.add("kernels.codewords", int(item[1].shape[0]))


def _probe_coset_leader_weights(tracer, args, result):
    h_int, _n, ctx = args[:3]
    tracer.add("kernels.syndromes", ctx.q ** len(h_int))
    tracer.add("kernels.leader_bytes", int(result[0].nbytes))


def _probe_representatives(tracer, args, result):
    tracer.add("covering.representatives.vectors", len(result))


_PROBES = {
    "kernels.codeword_blocks": _probe_codeword_blocks,
    "kernels.coset_leader_weights": _probe_coset_leader_weights,
    "covering.CoveringReport.representatives": _probe_representatives,
}


# ---------------------------------------------------------------------------
# Derivation of the per-layer table from a saved span file
# ---------------------------------------------------------------------------

def layer_self_times(span_name, span_parent, span_start, span_end, names):
    """Per span: its duration minus the time covered by the spans it called
    in other layers.  Nested calls within the same layer count as the
    caller's own time (their calls into other layers still do not)."""
    layer_of = [_layer(n) for n in names]
    dur = (span_end - span_start).tolist()
    ext = [0.0] * len(dur)
    parent = span_parent.tolist()
    name = span_name.tolist()
    for i in range(len(dur) - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            ext[p] += (dur[i] if layer_of[name[i]] != layer_of[name[p]]
                       else ext[i])
    return np.array(dur) - np.array(ext)


def _outermost(span_name, span_parent, ids):
    """Mask of spans named in ids that have no ancestor named in ids."""
    inside = np.zeros(len(span_name), dtype=bool)
    hit = np.isin(span_name, list(ids))
    parent = span_parent.tolist()
    inside_l = inside.tolist()
    hit_l = hit.tolist()
    for i, p in enumerate(parent):
        if p >= 0:
            inside_l[i] = inside_l[p] or hit_l[p]
    return hit & ~np.array(inside_l, dtype=bool)


SET_OPS = ("constructions.subset_sums", "constructions.subset_sums_bruteforce",
           "constructions.t_set", "constructions.t_set_bruteforce",
           "constructions.nk_delta_set_check")
BUILDERS = ("constructions.grs", "constructions.egrs", "constructions.grs_code",
            "constructions.egrs_code", "constructions.prs",
            "constructions.roth_lempel", "constructions.cyclic_cu",
            "constructions.egrs_dual_code")

# metric name -> (unit, how, what).  "time": layer self time summed over the
# outermost spans of the named functions; "count": calls or probe counter;
# "ratio": quotient of two counters; "no_child": share of the spans of the
# first name that have no child span of the second.
LAYER_METRICS = {
    "field.field_new_s": ("s", "time", ("field.field_new",)),
    "field.mul_i.calls": ("count", "count", "field.FieldCtx.mul_i"),
    "field.add_i.calls": ("count", "count", "field.FieldCtx.add_i"),
    "field.elem.calls": ("count", "count", "field.FieldCtx.elem"),
    "matrix.Matrix.calls": ("count", "count", "matrix.Matrix.__init__"),
    "matrix.rref.calls": ("count", "count", "matrix.Matrix.rref"),
    "matrix.rref_s": ("s", "time", ("matrix.Matrix.rref",)),
    "matrix.all_k_columns_independent_s":
        ("s", "time", ("matrix.all_k_columns_independent",)),
    "code.extend_u.calls": ("count", "count", "code.LinearCode.extend_u"),
    "code.extend_u_s": ("s", "time", ("code.LinearCode.extend_u",)),
    "code.min_distance_s": ("s", "time", ("code.LinearCode.min_distance",)),
    "code.min_distance.supports_frac":
        ("ratio", "ratio", ("code.LinearCode._min_distance_by_supports",
                            "code.LinearCode.min_distance")),
    "code.weight_enumerator_s":
        ("s", "time", ("code.LinearCode.weight_enumerator",)),
    "kernels.codeword_blocks.calls":
        ("count", "count", "kernels.codeword_blocks"),
    "kernels.codeword_blocks_s": ("s", "time", ("kernels.codeword_blocks",)),
    "kernels.codewords": ("count", "count", "kernels.codewords"),
    "kernels.coset_leader_weights.calls":
        ("count", "count", "kernels.coset_leader_weights"),
    "kernels.coset_leader_weights_s":
        ("s", "time", ("kernels.coset_leader_weights",)),
    "kernels.syndromes": ("count", "count", "kernels.syndromes"),
    "kernels.leader_bytes": ("B", "count", "kernels.leader_bytes"),
    "kernels.syndrome_pack_of.calls":
        ("count", "count", "kernels.syndrome_pack_of"),
    "covering.covering_radius_s":
        ("s", "time", ("covering.covering_radius",)),
    "covering.cache_hit_frac":
        ("ratio", "no_child", ("covering.covering_radius",
                               "kernels.coset_leader_weights")),
    "covering.leader_weight.calls":
        ("count", "count", "covering.CoveringReport.leader_weight"),
    "covering.representatives_s":
        ("s", "time", ("covering.CoveringReport.representatives",)),
    "covering.representatives.vectors":
        ("count", "count", "covering.representatives.vectors"),
    "covering.syndrome_criterion_s":
        ("s", "time", ("covering.syndrome_criterion",)),
    "covering.is_deep_hole_via_mds_s":
        ("s", "time", ("covering.is_deep_hole_via_mds",)),
    "constructions.build_s": ("s", "time", BUILDERS),
    "constructions.set_ops_s": ("s", "time", SET_OPS),
    **{f"suites.{sid}_s": ("s", "time",
                           (f"suites.suite_{sid.replace('-', '_')}",))
       for sid in SUITE_ORDER},
    "cli.emit_s": ("s", "time", ("cli._emit",)),
    "cli.report_bytes": ("B", "count", "cli.report_bytes"),
}

# Times that are zero by construction on a workload that never reaches the
# function (suites and extensions run only in verify-suites, representatives
# only in distance-holes, ...).  They are printed and saved with the others
# but left out of the result line, whose times must be measured values.
REPORT_ONLY = (
    "matrix.all_k_columns_independent_s", "code.extend_u_s",
    "code.min_distance_s", "code.weight_enumerator_s",
    "kernels.codeword_blocks_s", "covering.representatives_s",
    "covering.syndrome_criterion_s", "covering.is_deep_hole_via_mds_s",
    "constructions.set_ops_s",
    *(f"suites.{sid}_s" for sid in SUITE_ORDER), "cli.emit_s",
)


def layer_metrics(path) -> dict:
    """Per-layer metric values from a span file written by Tracer.save."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        span_name = z["span_name"]
        span_parent = z["span_parent"]
        self_t = layer_self_times(span_name, span_parent, z["span_start"],
                                  z["span_end"], names)
        counts = dict(zip((str(k) for k in z["count_keys"]),
                          z["count_values"].tolist()))
    ids = {n: i for i, n in enumerate(names)}
    out = {}
    for metric, (_unit, how, what) in LAYER_METRICS.items():
        if how == "count":
            out[metric] = int(counts.get(what, 0))
        elif how == "ratio":
            num, den = (counts.get(w, 0) for w in what)
            out[metric] = num / den if den else 0.0
        elif how == "no_child":
            # a covering_radius call that ran no sweep hit the code's cache
            outer, child = (ids.get(w, -1) for w in what)
            spans = np.flatnonzero(span_name == outer)
            busy = span_parent[span_name == child]
            out[metric] = (float(np.mean(~np.isin(spans, busy)))
                           if spans.size else 0.0)
        else:
            wanted = [ids[w] for w in what if w in ids]
            if not wanted:
                out[metric] = 0.0
                continue
            mask = _outermost(span_name, span_parent, wanted)
            out[metric] = float(self_t[mask].sum())
    return out

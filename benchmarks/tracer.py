"""Span tracing of the shpqm layers, installed from outside the package.

`Tracer.install` replaces every public function of each layer module (and the
public methods, `__post_init__` validation hooks and `__matmul__` of the
classes those modules define) with a wrapper that records one span per call:
name, start, end, parent span and op id.  References stored elsewhere, such
as the functions held in `verification.SUITES`, are swapped as well, so no
call reaches an unwrapped copy.  `uninstall` puts every original back.

Spans are kept in flat arrays in memory while the run lasts and are summed
into per-layer metrics (`layer_metrics`) or written out (`save`) at its end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("minkowski", "sl2c", "little_group", "dirac", "spin_coupling",
          "evolution", "interference", "verification", "cli")

# Dunder methods that do library work; the rest are dataclass plumbing.
_DUNDERS = ("__post_init__", "__matmul__")

# Kernel-level metrics: (metric name, span name, statistic).
_KERNELS = (
    ("sl2c.spinor_map.us_per_call", "sl2c.spinor_map", "us_per_call"),
    ("sl2c.canonical_boost.us_per_call", "sl2c.canonical_boost", "us_per_call"),
    ("sl2c.element_checks", "sl2c.SL2CElement.__post_init__", "calls"),
    ("little_group.wigner_d.us_per_call", "little_group.wigner_d", "us_per_call"),
    ("dirac.sigma_n_all.us_per_call", "dirac.sigma_n_all", "us_per_call"),
    ("dirac.s_lambda.us_per_call", "dirac.s_lambda", "us_per_call"),
    ("dirac.assemble_spinor.us_per_call", "dirac.assemble_spinor", "us_per_call"),
    ("verification.operator_algebra_s", "verification.operator_algebra_suite", "total_s"),
    ("verification.little_group_s", "verification.little_group_suite", "total_s"),
    ("verification.norm_s", "verification.norm_suite", "total_s"),
    ("verification.coupling_s", "verification.coupling_suite", "total_s"),
    ("verification.rest_frame_s", "verification.rest_frame_suite", "total_s"),
    ("minkowski.dot.calls", "minkowski.dot", "calls"),
    ("evolution.classical_step.us_per_call", "evolution.classical_step", "us_per_call"),
    ("evolution.free_evolve.us_per_call", "evolution.free_evolve", "us_per_call"),
    ("evolution.time_energy_uncertainty.us_per_call",
     "evolution.time_energy_uncertainty", "us_per_call"),
    ("interference.scan_interference.self_s", "interference.scan_interference", "self_s"),
)
_CLOSED_FORM = ("interference.direct_part", "interference.interference_part")
_UNITS = {"us_per_call": "us", "calls": "calls/op", "total_s": "s/op", "self_s": "s/op"}

# Every metric a traced run reports, with its unit and better direction.
# Per-op figures are means over the traced run's ops.
PER_LAYER = (
    [(f"{layer}.{stat}", unit, "lower") for layer in LAYERS
     for stat, unit in (("calls", "calls/op"), ("self_s", "s/op"), ("failed", "raises/op"))]
    + [(name, _UNITS[stat], "lower") for name, _, stat in _KERNELS]
    + [("interference.closed_form_s", "s/op", "lower"),
       ("spin_coupling.cg_hit_ratio", "ratio", "higher"),
       ("cli.bytes_out", "bytes/op", "lower"),
       ("setup.import_numpy_s", "s", "lower"),
       ("setup.import_shpqm_s", "s", "lower"),
       ("setup.warmup_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.coverage", "ratio", "higher")]
)


class Tracer:
    """Records a span per call of every wrapped shpqm function."""

    def __init__(self):
        self.op = -1                   # id of the op now running
        self.names = []                # span name table
        self.layer_of = []             # layer index of each name
        self.name_id = array("i")      # per span ...
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("i")       # spans an exception propagated out of
        self.cg_calls = 0
        self.cg_hits = 0
        self._cg_seen = set()
        self._stack = [-1]
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        if not self._patches:
            self._build()
        for owner, name, _, new, is_item in self._patches:
            if is_item:
                owner[name] = new
            else:
                setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old, _, is_item in reversed(self._patches):
            if is_item:
                owner[name] = old
            else:
                setattr(owner, name, old)

    def _build(self):
        """Make every wrapper once; install and uninstall only swap them."""
        wrapped = {}                   # id(original) -> wrapper
        modules = [importlib.import_module(f"shpqm.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    wrapped[id(obj)] = wrapper
                    self._patch(mod, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # references stored in dicts, such as verification.SUITES
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._patches.append((obj, key, val, wrapped[id(val)], True))

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, type(raw)(self._wrap(raw.__func__, span, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(raw, span, layer))

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name], new, False))

    def _wrap(self, fn, span_name, layer):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(LAYERS.index(layer))
        stack, start, end = self._stack, self.start, self.end
        new_span = (self.name_id.append, self.parent.append, self.op_id.append,
                    start.append, end.append)
        is_cg = span_name == "spin_coupling.cg"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_cg:
                self._count_cg(args, kwargs)
            idx = len(start)
            add_name, add_parent, add_op, add_start, add_end = new_span
            add_name(nid)
            add_parent(stack[-1])
            add_op(self.op)
            add_end(0.0)
            stack.append(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised.append(idx)
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _count_cg(self, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        self.cg_calls += 1
        if key in self._cg_seen:
            self.cg_hits += 1
        else:
            self._cg_seen.add(key)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent, op id, start, end."""
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op_id, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def layer_metrics(self, n_ops, op_seconds):
        """Per-layer and per-kernel metrics, as means over `n_ops` ops whose
        wall times sum to `op_seconds`."""
        name, parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        layer_of = np.asarray(self.layer_of, dtype=np.int64)
        span_layer = layer_of[name]
        raised = np.array(self.raised, dtype=np.int32)
        parent_layer = np.where(has_parent[raised],
                                span_layer[np.maximum(parent[raised], 0)], -1)
        escaped = raised[span_layer[raised] != parent_layer]

        out = {}
        for k, layer in enumerate(LAYERS):
            mask = span_layer == k
            out[f"{layer}.calls"] = int(mask.sum()) / n_ops
            out[f"{layer}.self_s"] = float(self_time[mask].sum()) / n_ops
            out[f"{layer}.failed"] = int((span_layer[escaped] == k).sum()) / n_ops

        index = {n: i for i, n in enumerate(self.names)}

        def spans_of(span_name):        # none when the function no longer exists
            return name == index.get(span_name, -1)

        for metric, span_name, stat in _KERNELS:
            mask = spans_of(span_name)
            calls = int(mask.sum())
            if stat == "us_per_call":
                out[metric] = float(dur[mask].mean()) * 1e6 if calls else 0.0
            elif stat == "calls":
                out[metric] = calls / n_ops
            elif stat == "total_s":
                out[metric] = float(dur[mask].sum()) / n_ops
            else:
                out[metric] = float(self_time[mask].sum()) / n_ops
        closed = spans_of(_CLOSED_FORM[0]) | spans_of(_CLOSED_FORM[1])
        out["interference.closed_form_s"] = float(dur[closed].sum()) / n_ops
        out["spin_coupling.cg_hit_ratio"] = (self.cg_hits / self.cg_calls
                                             if self.cg_calls else 0.0)
        out["trace.coverage"] = float(dur[~has_parent].sum()) / op_seconds
        return out

    def save(self, path):
        """Write every span to an .npz file, with the name and layer tables."""
        name, parent, op_id, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, op=op_id, start=start, end=end,
                 raised=np.array(self.raised, dtype=np.int32),
                 names=np.array(json.dumps(self.names)),
                 layers=np.array(json.dumps([LAYERS[k] for k in self.layer_of])))

"""Spans around calls into the package's layers, recorded from outside.

`Tracer.install` replaces each listed function by a wrapper in every package
module that binds it by name (and on the class, for the two methods), so
calls between modules and recursive calls are all seen.  `Tracer.restore`
puts the originals back.  Every wrapped call is a span (name, start, end,
parent), kept in memory and written out by `write_spans`.  Self time is
computed as each span closes: its duration minus the part its child spans
cover, so a recursive function such as `serre.pseudo` is not counted twice.

`Window.hom` is called millions of times on the larger windows, nearly
always as a cache hit.  A hit is counted and its time is charged as usual,
but it is not stored as a span of its own: each span keeps the number and
total time of the hits made directly under it (`hom_hits`, `hom_hit_s`).  A
miss, which calls `hom_basis_paths`, is stored like any other span.

Four functions compute one side as the other side on the opposite window,
by calling themselves (`DUAL_SIDE`).  That inner call is the same piece of
work as the outer one, so it is not counted again in `.calls` or in the
counts taken from return values; its time is still the function's self time.
Genuine recursion, as in `decompose_with_maps`, counts every call.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every function the traced run wraps
TRACED = [
    ("dsl", "parse_tq"),
    ("windows", "expand"),
    ("windows", "Window.hom"),
    ("quiver", "hom_basis_paths"),
    ("linalg", "rref"),
    ("reps", "std_module"),
    ("reps", "hom_basis"),
    ("reps", "hom_basis_generic"),
    ("reps", "yoneda_map"),
    ("reps", "hom_coords"),
    ("reps", "projective_cover"),
    ("reps", "injective_hull"),
    ("reps", "map_factor"),
    ("reps", "resolution"),
    ("reps", "decompose_with_maps"),
    ("reps", "ext_dim"),
    ("serre", "nakayama"),
    ("serre", "pseudo"),
    ("serre", "total_hom_dims"),
    ("threads", "rad_irr_dims"),
    ("threads", "extract_threadquiver"),
    ("windows", "window_iso"),
    ("report", "Report.to_json_dict"),
]

NAMES = [f"{mod}.{qual}" for mod, qual in TRACED]
DUAL_SIDE = {"reps.std_module", "reps.hom_basis", "reps.resolution", "serre.pseudo"}
HOM = "windows.Window.hom"
HOM_PATHS = "quiver.hom_basis_paths"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.share", "ratio", "lower"))
    out += [
        (f"{HOM}.hit_ratio", "ratio", "higher"),
        (f"{HOM_PATHS}.paths", "count", "lower"),
        (f"{HOM_PATHS}.basis_per_path", "ratio", "higher"),
        ("linalg.rref.cells", "count", "lower"),
        ("reps.resolution.terms", "count", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return out


def package_modules() -> list:
    return [m for k, m in sys.modules.items()
            if k == "threadquiver" or k.startswith("threadquiver.")]


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(NAMES)}
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_hits = array("i")  # Window.hom cache hits directly under the span
        self.span_hit_s = array("d")
        self.root_hits = [0, 0.0]  # the same for hits outside every span
        self.counts = {"paths": 0, "basis": 0, "cells": 0, "terms": 0}
        self._open = []  # frames of the spans now open, innermost last
        self._patched = []  # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    # An open span is a frame [stored id or -1, child time, name id, parent
    # frame, hom hits, hom hit time].  Spans are stored at entry, so a child
    # can name its parent; a deferred span (a Window.hom call) is stored only
    # when a child opens, and otherwise counts as a hit of its parent.
    def _store(self, frame) -> int:
        if frame[0] < 0:
            parent = self._store(frame[3]) if frame[3] is not None else -1
            frame[0] = len(self.span_name)
            self.span_name.append(frame[2])
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_hits.append(0)
            self.span_hit_s.append(0.0)
        return frame[0]

    def _wrap(self, name: str, fn, after=None):
        nid = self.ids[name]
        deferred = name == HOM
        dual_side = name in DUAL_SIDE
        stack = self._open
        store = self._store
        calls, self_s = self.calls, self.self_s
        starts, ends = self.span_start, self.span_end
        hits, hit_s, root_hits = self.span_hits, self.span_hit_s, self.root_hits

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [-1, 0.0, nid, parent, 0, 0.0]
            if not deferred:
                store(frame)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                sid = frame[0]
                if sid >= 0:
                    starts[sid] = t0
                    ends[sid] = t1
                    hits[sid] = frame[4]
                    hit_s[sid] = frame[5]
                elif parent is not None:
                    parent[4] += 1
                    parent[5] += dur
                else:
                    root_hits[0] += 1
                    root_hits[1] += dur
                counted = not (dual_side and parent is not None and parent[2] == nid)
                if counted:
                    calls[nid] += 1
            if after is not None and counted:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install and restore --------------------------------------------------

    def install(self) -> None:
        counts = self.counts

        def after_paths(args, hb):
            counts["paths"] += len(hb.paths)
            counts["basis"] += hb.dim

        def after_rref(args, result):
            m = args[0]
            counts["cells"] += m.rows * m.cols

        def after_resolution(args, res):
            counts["terms"] += len(res.complex.terms)

        after = {
            HOM_PATHS: after_paths,
            "linalg.rref": after_rref,
            "reps.resolution": after_resolution,
        }
        mods = {m.__name__: m for m in package_modules()}
        for mod, qual in TRACED:
            name = f"{mod}.{qual}"
            owner = mods[f"threadquiver.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, orig, self._wrap(name, orig, after.get(name)))
                continue
            orig = getattr(owner, qual)
            wrapper = self._wrap(name, orig, after.get(name))
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics; `wall_s` is the traced pass's measured wall time."""
        out = {}
        for name, i in self.ids.items():
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.share"] = (self.self_s[i] / wall_s, "ratio")
        hom_calls = self.calls[self.ids[HOM]]
        misses = self.calls[self.ids[HOM_PATHS]]
        c = self.counts
        out[f"{HOM}.hit_ratio"] = (1 - misses / hom_calls if hom_calls else 0.0, "ratio")
        out[f"{HOM_PATHS}.paths"] = (c["paths"], "count")
        out[f"{HOM_PATHS}.basis_per_path"] = (
            c["basis"] / c["paths"] if c["paths"] else 0.0, "ratio")
        out["linalg.rref.cells"] = (c["cells"], "count")
        out["reps.resolution.terms"] = (c["terms"], "count")
        out["trace_overhead_s"] = (overhead_s, "s")
        return out

    def write_spans(self, path) -> int:
        """Write the stored spans as gzipped CSV (id, name, start, end,
        parent, Window.hom hits under it and their time)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,hom_hits,hom_hit_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{NAMES[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                         f"{self.span_hits[i]},{self.span_hit_s[i]:.9f}\n")
        return len(self.span_name)

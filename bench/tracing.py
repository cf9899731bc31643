"""Outside-in layer trace: temporary wrappers around the package's public
entry points.

Nothing inside the package records spans.  ``patched(tracer)`` replaces each
entry point named in ``LAYERS`` by a timing wrapper, in every loaded
``hitchin_limits`` module that holds it (so ``from x import f`` copies are
traced too), and restores the originals on exit.  Spans nest on a stack; a
span's self time is its duration minus the time of the spans it contains.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _solve_counts(sol):
    return {"wang.solves": 1,
            "wang.newton_steps": len(sol.residual_history) - 1,
            "wang.unknowns": 1 + (len(sol.rs) - 1) * len(sol.thetas)}


def _build_counts(orb):
    return {"trigroup.triangles": len(orb.surface.triangles)}


def _enumerate_counts(conns):
    return {"surface.connections": len(conns),
            "surface.clipped": int(conns.clipped)}


def _sample_points(args):
    z = args[1]
    return 1 if isinstance(z, (complex, float, int)) else int(np.size(z))


# (module, attribute path, span name, counts from the result)
LAYERS = (
    ("wang", "solve_disk", "wang.solve", _solve_counts),
    ("wang", "WangSolution.phi_at", "wang.sample", None),
    ("wang", "WangSolution.dz_phi_at", "wang.sample", None),
    ("frame", "integrate_transport", "frame.transport", None),
    ("frame", "FrameTransport.push_left", "frame.qr_fold", None),
    ("frame", "arc_unipotent_numeric", "frame.arc", None),
    ("trigroup", "build_orbifold", "trigroup.build", _build_counts),
    ("trigroup", "straight_positive_cycle", "trigroup.cycle", None),
    ("trigroup", "straight_median_cycle", "trigroup.cycle", None),
    ("trigroup", "spectrum", "trigroup.spectrum", None),
    ("surface", "enumerate_saddle_connections", "surface.enumerate",
     _enumerate_counts),
    ("tropical", "path_singular_exponents", "tropical.path", None),
)


class Tracer:
    """Per-span totals of calls, time and self time, plus result counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level = 0.0          # time inside spans with no parent
        self._stack = []              # child time accumulated per open span

    def reset(self):
        """Clear the totals between iterations (no span may be open)."""
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()
        self.top_level = 0.0

    def wrap(self, name, fn, counts=None, points=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += points(args) if points else 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_level += dt
            if counts is not None:
                for key, val in counts(result).items():
                    self.counts[key] += val
            return result

        return traced


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def targets():
    """(owner, attribute, original, span, counts) for every place an entry
    point is bound: its defining module or class, and every loaded package
    module that imported it by name."""
    pkg = "hitchin_limits"
    for mod_name, *_ in LAYERS:
        importlib.import_module(f"{pkg}.{mod_name}")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == pkg or n.startswith(pkg + "."))]
    found = []
    for mod_name, path, name, counts in LAYERS:
        owner, attr = _resolve(sys.modules[f"{pkg}.{mod_name}"], path)
        original = owner.__dict__[attr]
        found.append((owner, attr, original, name, counts))
        if "." in path:
            continue
        for mod in modules:
            if mod is not owner and mod.__dict__.get(attr) is original:
                found.append((mod, attr, original, name, counts))
    return found


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every entry point in ``LAYERS`` for the duration of the block."""
    applied = []
    try:
        for owner, attr, original, name, counts in targets():
            points = _sample_points if name == "wang.sample" else None
            setattr(owner, attr, tracer.wrap(name, original, counts, points))
            applied.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """The per-layer metrics of one traced iteration lasting ``wall`` s."""
    t, own, calls, counts = (tracer.total, tracer.self_time, tracer.calls,
                             tracer.counts)
    conns, clipped = counts["surface.connections"], counts["surface.clipped"]
    return {
        "wang.solve_s": t["wang.solve"],
        "wang.solves": counts["wang.solves"],
        "wang.newton_steps": counts["wang.newton_steps"],
        "wang.unknowns": counts["wang.unknowns"],
        "wang.sample_s": t["wang.sample"],
        "wang.samples": calls["wang.sample"],
        "frame.transport_s": t["frame.transport"],
        "frame.transport_self_s": own["frame.transport"],
        "frame.qr_folds": calls["frame.qr_fold"],
        "frame.qr_fold_s": t["frame.qr_fold"],
        "frame.arc_s": t["frame.arc"],
        "frame.arc_self_s": own["frame.arc"],
        "trigroup.build_s": t["trigroup.build"],
        "trigroup.triangles": counts["trigroup.triangles"],
        "trigroup.cycle_s": t["trigroup.cycle"],
        "trigroup.spectrum_s": t["trigroup.spectrum"],
        "surface.enumerate_s": t["surface.enumerate"],
        "surface.connections": conns,
        "surface.clipped": clipped,
        # 0 when nothing was enumerated
        "surface.useful_ratio": conns / (conns + clipped) if conns + clipped
        else 0.0,
        "tropical.path_s": t["tropical.path"],
        "tropical.paths": calls["tropical.path"],
        "cli.self_s": wall - tracer.top_level,
    }

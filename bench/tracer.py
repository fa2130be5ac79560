"""Per-layer tracing from outside the program.

Each hook wraps one public function of the package and is installed at every
name a caller looks it up by: `decision.py` imports `build_graph` and the
critical-value functions by name, so replacing only the defining module's
attribute would miss those calls.  A span records calls and self time (its
duration minus the time covered by nested spans); a counter records calls
only, for functions too cheap to time without distorting the result.
Generators are timed one `next()` at a time.  A hook whose target no longer
exists is reported as absent, so renaming an internal never breaks the run.
"""

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "frechet_surfaces"


@dataclass(frozen=True)
class Hook:
    layer: str                                # metric prefix, "<module>.<function>"
    module: str                               # defining module, under PACKAGE
    attr: str                                 # function name in that module
    kind: str = "span"                        # "span", "counter" or "generator"
    verdict: Optional[Callable] = None        # result -> bool, for true_frac
    counts: tuple = ()                        # names of counts taken from results
    post: Optional[Callable] = None           # result -> increments of `counts`
    items: Optional[str] = None               # count name of generator yields


HOOKS = (
    Hook("decision.compute", "decision", "compute"),
    Hook("decision.decide", "decision", "decide", verdict=lambda r: r[0]),
    Hook("decision.hausdorff_sampled", "decision", "hausdorff_sampled"),
    Hook("surface.require_valid", "surface", "require_valid"),
    Hook("freespace.build_graph", "freespace", "build_graph",
         counts=("freespace.cells", "freespace.edges"),
         post=lambda g: (len(g.vertices), len(g.edges))),
    Hook("coverage.component_extensive", "coverage", "component_extensive",
         verdict=bool),
    Hook("coverage.triangle_covered", "coverage", "triangle_covered", verdict=bool),
    Hook("criticals.C1", "criticals", "critical_values_C1",
         counts=("criticals.C1.values",), post=lambda r: (len(r),)),
    Hook("criticals.T2b", "criticals", "equidistance_values_on_segment"),
    Hook("criticals.T2d", "criticals", "parallel_pair_values"),
    Hook("criticals.2c", "criticals", "critical_values_2c",
         counts=("criticals.2c.values",), post=lambda r: (len(r),)),
    Hook("criticals.T2c_triples", "criticals", "triple_equidistance_values"),
    Hook("geometry.dist_points_mesh", "geometry", "dist_points_mesh"),
    Hook("geometry.dist_triangle_triangle", "geometry", "dist_triangle_triangle",
         kind="counter"),
    Hook("geometry.dist_segment_triangle", "geometry", "dist_segment_triangle",
         kind="counter"),
    Hook("semifrechet.semi_compute_stream", "semifrechet", "semi_compute_stream",
         kind="generator", items="semifrechet.yields"),
    Hook("semifrechet.enumerate_candidates", "semifrechet", "enumerate_candidates",
         kind="generator", items="semifrechet.candidates"),
    Hook("semifrechet.evaluate_delta", "semifrechet", "evaluate_delta"),
    Hook("curves.curve_compute", "curves", "curve_compute"),
    Hook("curves.curve_decide_frechet", "curves", "curve_decide_frechet",
         verdict=bool),
    Hook("curves.curve_decide_weak", "curves", "curve_decide_weak", verdict=bool),
)


class Tracer:
    """Installs the hooks, accumulates per-layer statistics, and restores
    every patched name on exit."""

    def __init__(self):
        self.stats = {h.layer: {"calls": 0, "self_s": 0.0, "true": 0, "items": 0}
                      for h in HOOKS}
        self.counts = {name: 0 for h in HOOKS for name in h.counts}
        self.absent = []
        self.top_s = 0.0          # time spent inside top-level spans
        self._open = []           # [start, time covered by children] per open span
        self._patched = []

    def __enter__(self):
        for hook in HOOKS:
            try:
                orig = getattr(importlib.import_module(f"{PACKAGE}.{hook.module}"),
                               hook.attr)
            except (ImportError, AttributeError):
                self.absent.append(hook.layer)
                continue
            wrapper = self._wrap(hook, orig)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def _enter(self):
        self._open.append([time.perf_counter(), 0.0])

    def _exit(self, stats):
        start, child = self._open.pop()
        dur = time.perf_counter() - start
        stats["calls"] += 1
        stats["self_s"] += dur - child
        if self._open:
            self._open[-1][1] += dur
        else:
            self.top_s += dur

    def _wrap(self, hook, orig):
        stats = self.stats[hook.layer]
        if hook.kind == "counter":
            def counted(*args, **kwargs):
                stats["calls"] += 1
                return orig(*args, **kwargs)
            return counted

        if hook.kind == "generator":
            def generator(*args, **kwargs):
                it = orig(*args, **kwargs)
                try:
                    while True:
                        self._enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(stats)
                        stats["items"] += 1
                        yield item
                finally:
                    it.close()
            return generator

        def span(*args, **kwargs):
            self._enter()
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(stats)
            self._observe(hook, stats, result)
            return result
        return span

    def _observe(self, hook, stats, result):
        """Take the verdict and counts of one result.  A result whose shape
        no longer fits its hook marks the verdict or counts absent."""
        if hook.verdict is not None:
            try:
                stats["true"] += bool(hook.verdict(result))
            except (AttributeError, TypeError, IndexError, KeyError):
                self._mark_absent(f"{hook.layer}.true_frac")
        if hook.post is not None:
            try:
                counts = tuple(hook.post(result))
            except (AttributeError, TypeError, IndexError, KeyError):
                for key in hook.counts:
                    self._mark_absent(key)
                return
            for key, n in zip(hook.counts, counts):
                self.counts[key] += n

    def _mark_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def metrics(self, traced_s):
        """Per-layer metrics as {name: (value, unit)}.  Every span's self time
        plus other.self_s (time outside all spans) adds up to traced_s."""
        out = {}
        for h in HOOKS:
            s = self.stats[h.layer]
            if h.kind == "generator":
                out[h.items] = (s["items"], "count")
            else:
                out[f"{h.layer}.calls"] = (s["calls"], "count")
            if h.kind != "counter":
                out[f"{h.layer}.self_s"] = (s["self_s"], "s")
            if h.verdict is not None:
                out[f"{h.layer}.true_frac"] = (s["true"] / max(s["calls"], 1), "frac")
        out.update({k: (v, "count") for k, v in self.counts.items()})
        out["other.self_s"] = (traced_s - self.top_s, "s")
        # probes per candidate critical value, and valid semi candidates per
        # candidate enumerated
        candidates = self.counts["criticals.C1.values"] + self.counts["criticals.2c.values"]
        out["criticals.probed_frac"] = (
            self.stats["decision.decide"]["calls"] / candidates if candidates else 0.0,
            "frac")
        enumerated = self.stats["semifrechet.enumerate_candidates"]["items"]
        out["semifrechet.valid_frac"] = (
            self.stats["semifrechet.evaluate_delta"]["calls"] / enumerated
            if enumerated else 0.0, "frac")
        return out

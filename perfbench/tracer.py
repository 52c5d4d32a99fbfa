"""Per-layer tracing from outside the library.

`Tracer.install` replaces chosen boxops functions and methods with wrappers,
rebinding the name in every boxops module that imported it (for example
`cubes.is_morphism` and `grothendieck.is_morphism` as well as
`graphs.is_morphism`).  Three kinds of wrapper keep the overhead in
proportion to what each call is worth:

- SPAN: a coarse call.  Its span (id, parent span, request, start, end,
  self time) is kept in memory and written out at the end of the run.
- TIMED: a leaf called per member or per fiber.  Calls and time are summed,
  no span is kept, and its time still counts against its parent's self time.
- COUNT: a per-member leaf too cheap to time; only its calls are counted.

Self time is a call's duration minus the time its traced children cover.
Each request is itself a root span, so the self times of one workload add
up to its traced request time; the root's own self time is the part no
layer span claims.
"""

from __future__ import annotations

import gc
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute, mode); the metric prefix is module.attribute-name
TARGETS = (
    ("partitions", "collapse_driver", SPAN),
    ("partitions", "ArcContext.partitions", TIMED),
    ("partitions", "ArcContext.compatibility_masks", TIMED),
    ("complexes", "SimplicialComplex.materialize", SPAN),
    ("complexes", "replay_trace", SPAN),
    ("complexes", "greedy_collapse", SPAN),
    ("checks", "trace_to_json", SPAN),
    ("graphs", "enumerate_family", SPAN),
    ("graphs", "in_family", TIMED),
    ("graphs", "is_morphism", COUNT),
    ("graphs", "restrict", COUNT),
    ("posets", "Poset.dismantle", SPAN),
    ("posets", "Poset.from_leq", TIMED),
    ("posets", "poset_isomorphic", TIMED),
    ("posets", "poset_product", TIMED),
    ("contractibility", "check_homotopy_initial", SPAN),
    ("contractibility", "check_homotopy_final", SPAN),
    ("contractibility", "object_poset", SPAN),
    ("contractibility", "certify_contractible", SPAN),
    ("homology", "reduced_homology", SPAN),
    ("grothendieck", "verify_grothendieck_prop", SPAN),
    ("grothendieck", "verify_two_label_reduction", SPAN),
    ("grothendieck", "block_fiber_functor", SPAN),
    ("grothendieck", "grothendieck", SPAN),
    ("cubes", "less_table", TIMED),
    ("cubes", "realizes_below_table", COUNT),
    ("cubes", "brute_force_realizes_below", TIMED),
    ("cubes", "stage_homotopy", TIMED),
)

SETUP, REQUESTS = "setup", "requests"

# Every per-layer metric: (name, unit, end-to-end metrics it should move,
# workloads it should move them on).  Names ending in .s are inclusive time,
# .self_s self time, .calls call counts.  Units ending in /item are totals
# over the traced requests divided by their number; the set-up metrics are
# measured over the one traced set-up.
METRICS = (
    ("partitions.collapse_driver.self_s", "s/item",
     "items_per_s item_p90_ms peak_rss_mb", "collapse"),
    ("partitions.compatibility_masks.s", "s/item",
     "items_per_s item_p90_ms peak_rss_mb", "collapse"),
    ("partitions.partitions.s", "s/item",
     "items_per_s item_p90_ms peak_rss_mb", "collapse"),
    ("partitions.steps", "count/item",
     "items_per_s item_p90_ms peak_rss_mb", "collapse"),
    ("complexes.materialize.s", "s/item", "items_per_s peak_rss_mb", "collapse"),
    ("complexes.replay_trace.s", "s/item", "items_per_s peak_rss_mb", "collapse"),
    ("complexes.simplices", "count/item", "items_per_s peak_rss_mb", "collapse"),
    ("complexes.greedy_collapse.calls", "count/item", "item_p90_ms", "sweeps"),
    ("complexes.greedy_collapse.s", "s/item", "item_p90_ms", "sweeps"),
    ("checks.trace_to_json.s", "s/item", "items_per_s", "collapse"),
    ("checks.trace_bytes", "B/item", "items_per_s", "collapse"),
    ("graphs.is_morphism.calls", "count/item", "items_per_s",
     "cubes sweeps (near 0 on collapse)"),
    ("graphs.enumerate_family.s", "s", "setup_s", "sweeps cubes"),
    ("graphs.in_family.calls", "count", "setup_s", "sweeps cubes"),
    ("graphs.in_family.s", "s", "setup_s", "sweeps cubes"),
    ("graphs.restrict.calls", "count/item", "item_p90_ms", "sweeps"),
    ("posets.dismantle.calls", "count/item", "items_per_s item_p50_ms", "sweeps"),
    ("posets.dismantle.s", "s/item", "items_per_s item_p50_ms", "sweeps"),
    ("posets.dismantle.removals", "count/item", "items_per_s item_p50_ms", "sweeps"),
    ("posets.from_leq.s", "s/item", "items_per_s item_p50_ms", "sweeps"),
    ("posets.poset_isomorphic.s", "s/item", "items_per_s item_p50_ms", "sweeps"),
    ("posets.poset_product.s", "s/item", "items_per_s item_p50_ms", "sweeps"),
    ("contractibility.object_poset.s", "s/item", "items_per_s", "sweeps"),
    ("contractibility.certify_contractible.self_s", "s/item", "items_per_s", "sweeps"),
    ("contractibility.cone_ratio", "ratio", "items_per_s", "sweeps"),
    ("contractibility.dismantle_ratio", "ratio", "items_per_s", "sweeps"),
    ("contractibility.collapse_ratio", "ratio", "items_per_s", "sweeps"),
    ("contractibility.poset_size_mean", "count", "items_per_s", "sweeps"),
    ("homology.reduced_homology.calls", "count/item",
     "none: a sentinel, 0 on every workload", "all"),
    ("grothendieck.block_fiber_functor.s", "s/item", "item_p90_ms", "sweeps"),
    ("grothendieck.grothendieck.s", "s/item", "item_p90_ms", "sweeps"),
    ("grothendieck.verify_grothendieck_prop.self_s", "s/item", "item_p90_ms", "sweeps"),
    ("grothendieck.verify_two_label_reduction.s", "s/item", "item_p90_ms", "sweeps"),
    ("cubes.less_table.s", "s/item", "items_per_s item_p90_ms", "cubes"),
    ("cubes.realizes_below_table.calls", "count/item", "items_per_s item_p90_ms", "cubes"),
    ("cubes.brute_force_realizes_below.s", "s/item", "items_per_s item_p90_ms", "cubes"),
    ("cubes.brute_force.scan_per_call", "count/call", "items_per_s item_p90_ms", "cubes"),
    ("cubes.union_hit_ratio", "ratio", "items_per_s item_p90_ms", "cubes"),
    ("cubes.stage_homotopy.calls", "count/item", "items_per_s item_p90_ms", "cubes"),
    ("cubes.stage_homotopy.s", "s/item", "items_per_s item_p90_ms", "cubes"),
    ("runtime.gc_s", "s/item", "item_p90_ms peak_rss_mb", "collapse"),
    ("runtime.gc_collections", "count/item", "item_p90_ms peak_rss_mb", "collapse"),
    ("trace.overhead", "ratio",
     "none: traced over untraced request time on the same requests, minus 1", "all"),
    ("trace.attributed_share", "ratio",
     "none: share of traced request time inside layer spans", "all"),
)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.phase = SETUP
        self.request = None
        self.stack: list[list] = []  # per open call: [child seconds, span id]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.own: Counter = Counter()
        self.extra: Counter = Counter()
        self.live: dict = {}  # COUNT target -> its running call count
        self._gc_start = None

    # -- recording -----------------------------------------------------------

    def _timed(self, name, keep, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1][1] if stack else None
        if keep:
            sid = self.next_id
            self.next_id += 1
        else:
            sid = parent
        frame = [0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            own = dur - frame[0]
            if stack:
                stack[-1][0] += dur
            key = (self.phase, name)
            self.calls[key] += 1
            self.total[key] += dur
            self.own[key] += own
            if keep:
                self.spans.append((sid, parent, self.request, name, t0, t1, own))

    def start_requests(self):
        """End the set-up phase; COUNT calls so far are set-up calls."""
        for name, calls in self.live.items():
            self.calls[(SETUP, name)] = calls()
        self.phase = REQUESTS

    def finish(self):
        """Detach from the collector and close the COUNT tallies."""
        for name, calls in self.live.items():
            self.calls[(REQUESTS, name)] = calls() - self.calls[(SETUP, name)]
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def count(self, name, amount=1):
        self.extra[(self.phase, name)] += amount

    def request_call(self, kind, fn, *args):
        """Run one request as a root span; its spans share its request id."""
        self.request = 0 if self.request is None else self.request + 1
        return self._timed(f"request.{kind}", True, fn, *args)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.count("runtime.gc_s", perf_counter() - self._gc_start)
            self.count("runtime.gc_collections")
            self._gc_start = None

    # -- installation --------------------------------------------------------

    def install(self, lib):
        """Wrap every target in the freshly imported library `lib`."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "boxops" or name.startswith("boxops.")]
        for module, attr, mode in TARGETS:
            owner = getattr(lib, module)
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            name = f"{module}.{fname}"
            raw = vars(owner)[fname]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(name, mode, original)
            if cls_path:
                setattr(owner, fname, classmethod(wrapper) if is_classmethod else wrapper)
                continue
            for mod in loaded:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, name, mode, fn):
        tracer = self
        after = _AFTER.get(name)
        if mode == COUNT:
            n = 0

            def counted(*args, **kwargs):
                nonlocal n
                n += 1
                return fn(*args, **kwargs)

            self.live[name] = lambda: n
            return counted
        keep = mode == SPAN
        if inspect.isgeneratorfunction(fn):
            # consumers here always exhaust the generator, so it is timed
            # as one span that materializes it
            def generator(*args, **kwargs):
                yield from tracer._timed(name, keep, lambda: list(fn(*args, **kwargs)))

            return generator
        if name == "cubes.brute_force_realizes_below":
            scans = self.live["graphs.is_morphism"]

            def brute(*args, **kwargs):
                before = scans()
                result = tracer._timed(name, keep, fn, *args, **kwargs)
                tracer.count("cubes.brute_force.scanned", scans() - before)
                tracer.count("cubes.brute_force.hits", int(bool(result)))
                return result

            return brute

        def timed(*args, **kwargs):
            result = tracer._timed(name, keep, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return timed

    # -- results -------------------------------------------------------------

    def metrics(self, items: int, overhead: float) -> dict:
        """Every per-layer metric of METRICS, by name."""
        R, S = REQUESTS, SETUP

        def per_item(counter, name):
            return counter[(R, name)] / items

        def share(name, base):
            return self.extra[(R, name)] / base if base else 0.0

        certified = self.calls[(R, "contractibility.certify_contractible")]
        brute = self.calls[(R, "cubes.brute_force_realizes_below")]
        request_time = sum(v for (ph, n), v in self.total.items()
                           if ph == R and n.startswith("request."))
        root_self = sum(v for (ph, n), v in self.own.items()
                        if ph == R and n.startswith("request."))
        values = {
            "partitions.collapse_driver.self_s": per_item(self.own, "partitions.collapse_driver"),
            "partitions.compatibility_masks.s": per_item(self.total, "partitions.compatibility_masks"),
            "partitions.partitions.s": per_item(self.total, "partitions.partitions"),
            "partitions.steps": per_item(self.extra, "partitions.steps"),
            "complexes.materialize.s": per_item(self.total, "complexes.materialize"),
            "complexes.replay_trace.s": per_item(self.total, "complexes.replay_trace"),
            "complexes.simplices": per_item(self.extra, "complexes.simplices"),
            "complexes.greedy_collapse.calls": per_item(self.calls, "complexes.greedy_collapse"),
            "complexes.greedy_collapse.s": per_item(self.total, "complexes.greedy_collapse"),
            "checks.trace_to_json.s": per_item(self.total, "checks.trace_to_json"),
            "checks.trace_bytes": per_item(self.extra, "checks.trace_bytes"),
            "graphs.is_morphism.calls": per_item(self.calls, "graphs.is_morphism"),
            "graphs.enumerate_family.s": self.total[(S, "graphs.enumerate_family")],
            "graphs.in_family.calls": self.calls[(S, "graphs.in_family")],
            "graphs.in_family.s": self.total[(S, "graphs.in_family")],
            "graphs.restrict.calls": per_item(self.calls, "graphs.restrict"),
            "posets.dismantle.calls": per_item(self.calls, "posets.dismantle"),
            "posets.dismantle.s": per_item(self.total, "posets.dismantle"),
            "posets.dismantle.removals": per_item(self.extra, "posets.dismantle.removals"),
            "posets.from_leq.s": per_item(self.total, "posets.from_leq"),
            "posets.poset_isomorphic.s": per_item(self.total, "posets.poset_isomorphic"),
            "posets.poset_product.s": per_item(self.total, "posets.poset_product"),
            "contractibility.object_poset.s": per_item(self.total, "contractibility.object_poset"),
            "contractibility.certify_contractible.self_s":
                per_item(self.own, "contractibility.certify_contractible"),
            "contractibility.cone_ratio": share("contractibility.method.cone", certified),
            "contractibility.dismantle_ratio":
                share("contractibility.method.dismantle", certified),
            "contractibility.collapse_ratio": share("contractibility.method.collapse", certified),
            "contractibility.poset_size_mean": share("contractibility.poset_size", certified),
            "homology.reduced_homology.calls": per_item(self.calls, "homology.reduced_homology"),
            "grothendieck.block_fiber_functor.s":
                per_item(self.total, "grothendieck.block_fiber_functor"),
            "grothendieck.grothendieck.s": per_item(self.total, "grothendieck.grothendieck"),
            "grothendieck.verify_grothendieck_prop.self_s":
                per_item(self.own, "grothendieck.verify_grothendieck_prop"),
            "grothendieck.verify_two_label_reduction.s":
                per_item(self.total, "grothendieck.verify_two_label_reduction"),
            "cubes.less_table.s": per_item(self.total, "cubes.less_table"),
            "cubes.realizes_below_table.calls": per_item(self.calls, "cubes.realizes_below_table"),
            "cubes.brute_force_realizes_below.s":
                per_item(self.total, "cubes.brute_force_realizes_below"),
            "cubes.brute_force.scan_per_call": share("cubes.brute_force.scanned", brute),
            "cubes.union_hit_ratio": share("cubes.brute_force.hits", brute),
            "cubes.stage_homotopy.calls": per_item(self.calls, "cubes.stage_homotopy"),
            "cubes.stage_homotopy.s": per_item(self.total, "cubes.stage_homotopy"),
            "runtime.gc_s": per_item(self.extra, "runtime.gc_s"),
            "runtime.gc_collections": per_item(self.extra, "runtime.gc_collections"),
            "trace.overhead": overhead,
            "trace.attributed_share":
                1.0 - root_self / request_time if request_time else 0.0,
        }
        return values

    def self_time_table(self):
        """[(name, self seconds, calls)] over the traced requests, largest first.

        The self times add up to the traced request time.
        """
        rows = [(name, s, self.calls[(ph, name)])
                for (ph, name), s in self.own.items() if ph == REQUESTS]
        return sorted(rows, key=lambda r: -r[1])

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, request, name, t0, t1, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": t0, "end": t1,
                                     "self": own}) + "\n")


def _after_driver(tracer, args, result):
    tracer.count("partitions.steps", result.steps)


def _after_materialize(tracer, args, result):
    tracer.count("complexes.simplices", len(result))


def _after_trace_to_json(tracer, args, result):
    tracer.count("checks.trace_bytes", len(result))


def _after_dismantle(tracer, args, result):
    tracer.count("posets.dismantle.removals", len(result[1]))


def _after_certify(tracer, args, result):
    method = result.method or "none"
    kind = "collapse" if "collapse" in method else method
    tracer.count(f"contractibility.method.{kind}")
    tracer.count("contractibility.poset_size", len(args[0]))


_AFTER = {
    "partitions.collapse_driver": _after_driver,
    "complexes.materialize": _after_materialize,
    "checks.trace_to_json": _after_trace_to_json,
    "posets.dismantle": _after_dismantle,
    "contractibility.certify_contractible": _after_certify,
}

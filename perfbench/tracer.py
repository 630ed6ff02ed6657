"""Outside-in tracer for tcsim's layers.

The tracer wraps tcsim's public functions from the benchmark's side; nothing
in tcsim knows it is traced. Each function is patched where it is looked
up: a module function imported with ``from x import y`` is patched in the
importing module, and methods are patched on their class.

Hot calls (cache, hierarchy and predictor accesses run millions of times)
keep only aggregate counters per key: calls, total time, self time and one
extra count. Self time is a call's duration minus the time its wrapped
children took, kept on a stack of child-time accumulators. A child's time
as seen by its caller includes the wrapper's bookkeeping, so that overhead
is in no layer's self time; only the cost of entering and leaving the
wrapper function itself still lands in the caller's. Coarse
boundaries (the run, each channel cell, each leak verdict, the switch-cost
table) also keep a span, held in memory until the run ends.
"""

from __future__ import annotations

import time
import weakref
from functools import update_wrapper

RESOURCES = ("l1d", "l1i", "l2", "llc", "tlb", "btb")
FLUSHABLE = RESOURCES + ("bhb",)
SCENARIOS = ("raw", "full_flush", "protected")
LAYERS = ("microarch", "kernel", "scenarios", "channels", "stats", "harness")
TIME_UNITS = ("s", "ms", "us", "ns")


def _per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    m = [("microarch.access.calls", "count", "lower"),
         ("microarch.access.self_s", "s", "lower"),
         ("microarch.access.ns_per_call", "ns", "lower"),
         ("microarch.access.hit_ratio", "ratio", "higher")]
    for r in RESOURCES:
        m += [(f"microarch.access.{r}.calls", "count", "lower"),
              (f"microarch.access.{r}.ns_per_call", "ns", "lower")]
    m += [("microarch.hierarchy.calls", "count", "lower"),
          ("microarch.hierarchy.self_s", "s", "lower"),
          ("microarch.hierarchy.ns_per_call", "ns", "lower"),
          ("microarch.hierarchy.l1_hit_ratio", "ratio", "higher"),
          ("microarch.lookup.calls", "count", "lower"),
          ("microarch.lookup.self_s", "s", "lower"),
          ("microarch.flush.calls", "count", "lower"),
          ("microarch.flush.self_s", "s", "lower"),
          ("microarch.flush.writeback_cycles", "cycles", "lower")]
    m += [(f"microarch.flush.{r}.us_per_call", "us", "lower") for r in FLUSHABLE]
    m += [("microarch.predict.calls", "count", "lower"),
          ("microarch.predict.self_s", "s", "lower"),
          ("microarch.predict.ns_per_call", "ns", "lower"),
          ("kernel.switch.calls", "count", "lower"),
          ("kernel.switch.self_s", "s", "lower")]
    m += [(f"kernel.switch.{s}.us_per_call", "us", "lower") for s in SCENARIOS]
    m += [("kernel.syscall.calls", "count", "lower"),
          ("kernel.syscall.self_s", "s", "lower"),
          ("scenarios.build.calls", "count", "lower"),
          ("scenarios.build.self_s", "s", "lower"),
          ("channels.run.calls", "count", "lower"),
          ("channels.run.self_s", "s", "lower"),
          ("channels.iterations", "count", "higher"),
          ("channels.us_per_iteration", "us", "lower"),
          ("stats.verdict.calls", "count", "lower"),
          ("stats.verdict.total_s", "s", "lower"),
          ("stats.verdict.s_per_call", "s", "lower"),
          ("stats.estimate_mi.calls", "count", "lower"),
          ("stats.estimate_mi.self_s", "s", "lower"),
          ("stats.estimate_mi.ms_per_call", "ms", "lower"),
          ("stats.bound.self_s", "s", "lower"),
          ("stats.matrix.self_s", "s", "lower"),
          ("harness.switch_table.self_s", "s", "lower"),
          ("harness.io.self_s", "s", "lower"),
          ("harness.rest.self_s", "s", "lower"),
          ("config.parse_s", "s", "lower"),
          ("trace.run_s", "s", "lower"),
          ("trace.overhead_s", "s", "lower"),
          ("host.wall_s", "s", "lower"),
          ("host.speed_scale", "ratio", "higher")]
    m += [(f"share.{layer}", "ratio", "lower") for layer in LAYERS + ("tracer",)]
    return m


PER_LAYER = _per_layer()


def _latency(result) -> int:
    # an AccessResult today; a plain int if the cache core returns one
    return getattr(result, "latency", result)


class Tracer:
    """Counters and spans for one traced run. ``install`` patches tcsim,
    ``uninstall`` restores it."""

    def __init__(self):
        self.agg: dict[str, list] = {}  # key -> [calls, total_s, self_s, extra]
        self.site_calls: dict[str, list] = {}  # patched site -> [calls]
        self.spans: list[dict] = []
        self._stack = [[0.0]]  # child time of each open wrapped call
        self._open_spans: list[int] = []
        self._scenario_of = weakref.WeakKeyDictionary()  # Simulator -> scenario
        self._undo: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self):
        from tcsim import channels, cli, harness, stats
        from tcsim.channels import SampleSet
        from tcsim.kernel import Simulator
        from tcsim.microarch import CacheState, MemoryHierarchy, PredictorState

        scenario_of = self._scenario_of

        def access_hit(rec, a, k, result):
            if _latency(result) == a[0].params.hit_cycles:
                rec[3] += 1

        def l1_hit(rec, a, k, result):
            if result == a[0].levels[0].params.hit_cycles:
                rec[3] += 1

        def writeback(rec, a, k, result):
            rec[3] += result - a[0].params.flush_base_cycles

        def tag_scenario(rec, a, k, result):
            scenario_of[result.sim] = result.scenario

        def iterations(rec, a, k, result):
            spec = a[1] if len(a) > 1 else k["spec"]
            rec[3] += spec.warmup + spec.iterations

        def cell(a, k):
            spec = a[1] if len(a) > 1 else k["spec"]
            return "cell", {"channel": spec.channel_kind, "scenario": spec.scenario}

        per_cache = lambda prefix: lambda a, k: prefix + a[0].name  # noqa: E731
        fixed = lambda key: lambda a, k: key  # noqa: E731
        verdict = lambda a, k: ("verdict", {})  # noqa: E731

        self._method(CacheState, "access", per_cache("microarch.access."), access_hit)
        self._method(CacheState, "lookup", fixed("microarch.lookup"))
        self._method(CacheState, "flush", per_cache("microarch.flush."), writeback)
        self._method(PredictorState, "flush_bhb", fixed("microarch.flush.bhb"))
        self._method(MemoryHierarchy, "access", fixed("microarch.hierarchy"), l1_hit)
        self._method(PredictorState, "touch", fixed("microarch.predict"))
        self._method(Simulator, "domain_switch",
                     lambda a, k: "kernel.switch." + scenario_of.get(a[0], "unknown"))
        self._method(Simulator, "syscall", fixed("kernel.syscall"))
        for module in (channels, harness):
            self._function(module, "build_scenario", fixed("scenarios.build"), tag_scenario)
        self._function(harness, "run_channel", fixed("channels.run"), iterations, cell)
        for module in (harness, cli):
            self._function(module, "leak_verdict", fixed("stats.verdict"), span_of=verdict)
        self._function(stats, "estimate_mi", fixed("stats.estimate_mi"))
        self._function(stats, "zero_leakage_bound", fixed("stats.bound"))
        self._function(harness, "channel_matrix", fixed("stats.matrix"))
        self._function(harness, "measure_switch_costs", fixed("harness.switch_table"),
                       span_of=lambda a, k: ("switch_table", {"scenario": a[1]}))
        self._method(SampleSet, "to_csv", fixed("harness.io"))
        self._method(SampleSet, "from_csv", fixed("harness.io"))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _method(self, cls, attr, key_of, post=None, span_of=None):
        raw = cls.__dict__[attr]
        site = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(site, raw.__func__, key_of, post, span_of))
        else:
            wrapped = self._wrap(site, raw, key_of, post, span_of)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _function(self, module, attr, key_of, post=None, span_of=None):
        raw = getattr(module, attr)
        site = f"{module.__name__}.{attr}"
        self._undo.append((module, attr, raw))
        setattr(module, attr, self._wrap(site, raw, key_of, post, span_of))

    def _wrap(self, site, fn, key_of, post, span_of):
        stack, agg, spans, open_spans = self._stack, self.agg, self.spans, self._open_spans
        clock = time.perf_counter
        count = self.site_calls.setdefault(site, [0])

        def wrapper(*args, **kwargs):
            enter = clock()
            count[0] += 1
            if span_of is not None:
                name, attrs = span_of(args, kwargs)
                open_spans.append(len(spans))
                spans.append({"name": name, **attrs,
                              "parent": open_spans[-2] if len(open_spans) > 1 else None})
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if span_of is not None:
                    span = spans[open_spans.pop()]
                    span["start"], span["end"] = t0, t1
            elapsed = t1 - t0
            key = key_of(args, kwargs)
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0.0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[0]
            if post is not None:
                post(rec, args, kwargs, result)
            # the caller's self time excludes this wrapper's bookkeeping too
            stack[-1][0] += clock() - enter
            return result

        return update_wrapper(wrapper, fn)

    # -- running and reporting -------------------------------------------------

    def run(self, fn) -> float:
        """Call ``fn`` as the root span; returns its duration in seconds.
        Time no wrapped call covers is booked as ``harness.rest``."""
        root = self._stack[0]
        self._open_spans.append(len(self.spans))
        self.spans.append({"name": "run", "parent": None})
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            t1 = time.perf_counter()
            span = self.spans[self._open_spans.pop()]
            span["start"], span["end"] = t0, t1
        self.agg["harness.rest"] = [1, t1 - t0, t1 - t0 - root[0], 0]
        return t1 - t0

    def _sum(self, prefix: str) -> list:
        out = [0, 0.0, 0.0, 0]
        for key, rec in self.agg.items():
            if key == prefix or key.startswith(prefix + "."):
                out = [x + y for x, y in zip(out, rec)]
        return out

    def metrics(self, run_s: float, scale: float = 1.0) -> dict:
        """Per-layer metrics of a traced run that took ``run_s`` seconds:
        all of PER_LAYER except ``config.parse_s`` and ``trace.*``, which
        the caller adds. Times are multiplied by the run's speed ``scale``;
        shares are of ``run_s`` itself."""
        S = self._sum
        m = {}

        def per(value, calls, scale):
            return value / calls * scale if calls else 0.0

        acc = S("microarch.access")
        m["microarch.access.calls"] = acc[0]
        m["microarch.access.self_s"] = acc[2]
        m["microarch.access.ns_per_call"] = per(acc[2], acc[0], 1e9)
        m["microarch.access.hit_ratio"] = per(acc[3], acc[0], 1)
        for r in RESOURCES:
            a = S(f"microarch.access.{r}")
            m[f"microarch.access.{r}.calls"] = a[0]
            m[f"microarch.access.{r}.ns_per_call"] = per(a[2], a[0], 1e9)
        h = S("microarch.hierarchy")
        m["microarch.hierarchy.calls"] = h[0]
        m["microarch.hierarchy.self_s"] = h[2]
        m["microarch.hierarchy.ns_per_call"] = per(h[2], h[0], 1e9)
        m["microarch.hierarchy.l1_hit_ratio"] = per(h[3], h[0], 1)
        lk = S("microarch.lookup")
        m["microarch.lookup.calls"], m["microarch.lookup.self_s"] = lk[0], lk[2]
        fl = S("microarch.flush")
        m["microarch.flush.calls"] = fl[0]
        m["microarch.flush.self_s"] = fl[2]
        m["microarch.flush.writeback_cycles"] = fl[3]
        for r in FLUSHABLE:
            f = S(f"microarch.flush.{r}")
            m[f"microarch.flush.{r}.us_per_call"] = per(f[2], f[0], 1e6)
        p = S("microarch.predict")
        m["microarch.predict.calls"] = p[0]
        m["microarch.predict.self_s"] = p[2]
        m["microarch.predict.ns_per_call"] = per(p[2], p[0], 1e9)
        sw = S("kernel.switch")
        m["kernel.switch.calls"], m["kernel.switch.self_s"] = sw[0], sw[2]
        for s in SCENARIOS:
            k = S(f"kernel.switch.{s}")
            m[f"kernel.switch.{s}.us_per_call"] = per(k[2], k[0], 1e6)
        sc = S("kernel.syscall")
        m["kernel.syscall.calls"], m["kernel.syscall.self_s"] = sc[0], sc[2]
        b = S("scenarios.build")
        m["scenarios.build.calls"], m["scenarios.build.self_s"] = b[0], b[2]
        ch = S("channels.run")
        m["channels.run.calls"], m["channels.run.self_s"] = ch[0], ch[2]
        m["channels.iterations"] = ch[3]
        m["channels.us_per_iteration"] = per(ch[1], ch[3], 1e6)
        v = S("stats.verdict")
        m["stats.verdict.calls"], m["stats.verdict.total_s"] = v[0], v[1]
        m["stats.verdict.s_per_call"] = per(v[1], v[0], 1)
        e = S("stats.estimate_mi")
        m["stats.estimate_mi.calls"], m["stats.estimate_mi.self_s"] = e[0], e[2]
        m["stats.estimate_mi.ms_per_call"] = per(e[2], e[0], 1e3)
        m["stats.bound.self_s"] = S("stats.bound")[2]
        m["stats.matrix.self_s"] = S("stats.matrix")[2]
        m["harness.switch_table.self_s"] = S("harness.switch_table")[2]
        m["harness.io.self_s"] = S("harness.io")[2]
        m["harness.rest.self_s"] = S("harness.rest")[2]
        for layer in LAYERS:
            m[f"share.{layer}"] = S(layer)[2] / run_s
        # the wrappers' own bookkeeping, which no layer's self time holds
        m["share.tracer"] = 1 - sum(m[f"share.{layer}"] for layer in LAYERS)
        for name, unit, _ in PER_LAYER:
            if unit in TIME_UNITS and name in m:
                m[name] *= scale
        return m

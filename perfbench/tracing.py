"""Span recording around procshap's public functions, from outside the
package.

``install()`` replaces each traced function by a wrapper in every procshap
module that bound it, so calls through ``from .x import f`` names are seen
too.  A span is (name, configuration id, parent, start, end, time covered by
direct children).  Each thread keeps its own parent stack and span buffer,
because the CLI runs configurations on a thread pool; ``run_single`` gives
its thread a fresh configuration id, so all spans of one configuration share
it.  Spans stay in memory until ``dump()`` writes them once, after the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from array import array
from time import perf_counter

FIELDS = 6  # name, cfg, parent index, t0, t1, child time

DIAGNOSTICS = ("classify", "top_k", "jaccard", "noise_correlation",
               "summarize_attributions", "adaptive_nodes", "quality_perspectives")

# (module, attribute, span name); the layer is the span name up to the dot.
TARGETS = [
    ("procshap.event_log", "parse_xes", "event_log.parse"),
    ("procshap.event_log", "dfg_from_sequences", "event_log.dfg"),
    ("procshap.miner", "discover", "miner.discover"),
    ("procshap.process_tree", "substitute", "process_tree.substitute"),
    ("procshap.process_tree", "export_dot", "process_tree.export_dot"),
    ("procshap.oracle", "evaluate", "oracle.evaluate"),
    ("procshap.oracle", "ValueCache.get_or_compute", "oracle.compute"),
    ("procshap.shapley", "exact_shapley", "shapley.exact"),
    ("procshap.shapley", "mc_permutation_shapley", "shapley.mc"),
    ("procshap.shapley", "rs_subset_shapley", "shapley.rs"),
    ("procshap.logic_encoder", "encode", "logic_encoder.encode"),
    ("procshap.logic_encoder", "emit_tptp", "logic_encoder.emit"),
    ("procshap.logic_encoder", "run_prover", "logic_encoder.prover"),
    ("procshap.reports", "run_single", "reports.run_single"),
    ("procshap.reports", "emit_report", "reports.emit"),
    *(("procshap.diagnostics", f, f"diagnostics.{f}") for f in DIAGNOSTICS),
]


class _ThreadState:
    def __init__(self) -> None:
        self.buf = array("d")
        self.stack: list[int] = []
        self.cfg = 0
        self.cache = None  # the ValueCache of the running configuration
        self.masks = None  # its distinct raw coalition masks


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.local = threading.local()
        self.states: list[_ThreadState] = []
        self.lock = threading.Lock()
        self.cfg_ids = itertools.count(1)
        self.extras: list[tuple[str, str, object]] = []  # (span, key, value)
        self.configs: dict[int, dict] = {}
        self.missing: list[str] = []

    def state(self) -> _ThreadState:
        st = getattr(self.local, "st", None)
        if st is None:
            st = self.local.st = _ThreadState()
            with self.lock:
                self.states.append(st)
        return st

    def name_id(self, name: str) -> int:
        with self.lock:
            if name not in self.ids:
                self.ids[name] = len(self.names)
                self.names.append(name)
            return self.ids[name]

    def span(self, name_id: int, fn, args, kwargs):
        st = self.state()
        buf = st.buf
        base = len(buf)
        parent = st.stack[-1] if st.stack else -1
        buf.extend((name_id, st.cfg, parent, 0.0, 0.0, 0.0))
        st.stack.append(base)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            st.stack.pop()
            buf[base + 3] = t0
            buf[base + 4] = t1
            if parent >= 0:
                buf[parent + 5] += t1 - t0

    def wrap(self, fn, name: str, after=None):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name_id, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def note(self, span: str, key: str, value) -> None:
        self.extras.append((span, key, value))  # list.append is atomic


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the ones that do not."""
    from procshap.process_tree import iter_nodes

    def tree_size(tree) -> int:
        return sum(1 for _ in iter_nodes(tree))

    def after_parse(args, kwargs, log):
        source = _arg(args, kwargs, 0, "source")
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            import os
            size = len(source) if isinstance(source, bytes) else os.path.getsize(source)
            tracer.note("event_log.parse", "bytes", size)

    def after_dfg(args, kwargs, result):
        sequences = _arg(args, kwargs, 0, "sequences")
        tracer.note("event_log.dfg", "events", sum(map(len, sequences)))

    def after_discover(args, kwargs, tree):
        tracer.note("miner.discover", "traces", len(_arg(args, kwargs, 0, "log")))
        tracer.note("miner.discover", "nodes", tree_size(tree))

    def after_shapley(args, kwargs, result):
        estimate = result[0] if isinstance(result, tuple) else result
        tracer.note("shapley", "samples", max(estimate.samples.values(), default=0))
        tracer.note("shapley", "players", len(estimate.phi))

    def after_emit(args, kwargs, text):
        tracer.note("logic_encoder.emit", "bytes", len(text))

    def after_prover(args, kwargs, status):
        tracer.note("logic_encoder.prover", "status", getattr(status, "value", str(status)))

    after = {
        "event_log.parse": after_parse,
        "event_log.dfg": after_dfg,
        "miner.discover": after_discover,
        "shapley.exact": after_shapley,
        "shapley.mc": after_shapley,
        "shapley.rs": after_shapley,
        "logic_encoder.emit": after_emit,
        "logic_encoder.prover": after_prover,
    }

    for module_name, attr, name in TARGETS:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.partition(".")
        original = getattr(module, owner_name, None) if module else None
        if original is not None and method:
            original = getattr(original, method, None)
        if original is None:
            tracer.missing.append(name)
            continue
        if name == "oracle.compute":
            _wrap_get_or_compute(tracer, getattr(module, owner_name), original)
        elif name == "reports.run_single":
            _rebind(original, _wrap_run_single(tracer, original))
        else:
            _rebind(original, tracer.wrap(original, name, after.get(name)))


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "procshap":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _wrap_get_or_compute(tracer: Tracer, cls, original) -> None:
    ids = {}

    def get_or_compute(cache, key, compute):
        st = tracer.state()
        st.cache = cache
        prop = key[2] if isinstance(key, tuple) and len(key) > 2 else "other"
        name_id = ids.get(prop)
        if name_id is None:
            name_id = ids[prop] = tracer.name_id(f"oracle.compute.{prop}")

        def traced_compute():
            if st.masks is not None and isinstance(key, tuple):
                st.masks.append(key[0])
            return tracer.span(name_id, compute, (), {})

        return original(cache, key, traced_compute)

    cls.get_or_compute = get_or_compute


def _wrap_run_single(tracer: Tracer, original):
    name_id = tracer.name_id("reports.run_single")

    @functools.wraps(original)
    def run_single(*args, **kwargs):
        st = tracer.state()
        outer = (st.cfg, st.cache, st.masks)
        cfg = next(tracer.cfg_ids)
        st.cfg, st.cache, st.masks = cfg, None, []
        tree = _arg(args, kwargs, 1, "tree")
        try:
            return tracer.span(name_id, original, args, kwargs)
        finally:
            tracer.configs[cfg] = {
                "tree": tree,
                "masks": st.masks,
                "cache_entries": len(st.cache) if st.cache is not None else 0,
            }
            st.cfg, st.cache, st.masks = outer

    return run_single


def canonical_count(tree, masks: list[int]) -> int:
    """Distinct masks after clearing the bits of nodes below an absent
    ancestor: coalitions that substitute to the same tree collapse."""
    import numpy as np

    ancestors: list[int] = []

    def walk(node, above: int) -> None:
        ancestors.append(above)
        for child in node.children:
            walk(child, above | 1 << node.node_id.index)

    walk(tree, 0)
    raw = set(masks)
    if len(ancestors) > 63:
        seen = set()
        for mask in raw:
            keep = mask
            for i, above in enumerate(ancestors):
                if mask & above != above:
                    keep &= ~(1 << i)
            seen.add(keep)
        return len(seen)
    m = np.fromiter(raw, dtype=np.uint64, count=len(raw))
    keep = m.copy()
    for i, above in enumerate(ancestors):
        cleared = (m & np.uint64(above)) != np.uint64(above)
        keep &= ~(cleared.astype(np.uint64) << np.uint64(i))
    return len(np.unique(keep))


def dump(tracer: Tracer, prefix: str, extra: dict) -> None:
    """Write spans to PREFIX.bin and everything else to PREFIX.json."""
    offset = 0
    with open(prefix + ".bin", "wb") as handle:
        for st in tracer.states:
            buf = st.buf
            for base in range(0, len(buf), FIELDS):
                if buf[base + 2] >= 0:
                    buf[base + 2] = (buf[base + 2] + offset) / FIELDS
            buf.tofile(handle)
            offset += len(buf)
    configs = {}
    for cfg, info in tracer.configs.items():
        masks = info["masks"] or []
        configs[cfg] = {
            "distinct_raw": len(set(masks)),
            "distinct_canonical": canonical_count(info["tree"], masks) if masks else 0,
            "cache_entries": info["cache_entries"],
        }
    payload = {"names": tracer.names, "extras": tracer.extras, "configs": configs,
               "missing": tracer.missing, **extra}
    with open(prefix + ".json", "w") as handle:
        json.dump(payload, handle)


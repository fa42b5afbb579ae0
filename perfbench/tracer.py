"""The traced run: spans recorded around each layer's public entry points.

:class:`SpanTracer` wraps the entry points in :data:`ENTRY_POINTS` from the
outside (no program code changes), records one span per call -- name,
start, end, parent, request id -- in flat in-memory arrays, and writes them
out when the run ends. :func:`layer_metrics` turns the spans into per-layer
self times and work counts.

A span's self time is its duration minus the time its child spans cover.
Entry points without a layer bucket of their own (the analyzer, attribute
parsing, translog appends) are charged to the bucket of the span that
called them, so ``storage.index_us_per_doc`` includes the analysis and
translog work of indexing while the facade's own attribute parse stays
facade time.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
from array import array
from collections import Counter

import numpy as np

from ruler import clock

#: (module, attribute path, span name, layer bucket). Bucket None means the
#: span inherits its caller's bucket.
ENTRY_POINTS = (
    ("repro.esdb", "ESDB.write", "esdb.write", "esdb.write"),
    ("repro.esdb", "ESDB.bulk_write", "esdb.bulk_write", "esdb.bulk_write"),
    ("repro.esdb", "ESDB.execute_sql", "esdb.execute_sql", "esdb.query"),
    ("repro.routing.policies", "DynamicSecondaryHashRouting.route_write",
     "routing.route_write", "routing.route"),
    ("repro.routing.policies", "DynamicSecondaryHashRouting.query_shards",
     "routing.query_shards", "routing.query_shards"),
    ("repro.balancer.monitor", "WorkloadMonitor.record_write",
     "balancer.monitor.record_write", "balancer.monitor"),
    ("repro.balancer.balancer", "LoadBalancer.rebalance",
     "balancer.rebalance", "balancer.rebalance"),
    ("repro.consensus.protocol", "ConsensusMaster.propose",
     "consensus.propose", "consensus.propose"),
    ("repro.storage.engine", "ShardEngine.index", "storage.index", "storage.index"),
    ("repro.storage.engine", "ShardEngine.bulk_index", "storage.bulk_index",
     "storage.index"),
    ("repro.storage.engine", "ShardEngine.refresh", "storage.refresh",
     "storage.refresh"),
    ("repro.storage.engine", "ShardEngine.maybe_merge", "storage.maybe_merge",
     "storage.merge"),
    ("repro.storage.engine", "merge_segments", "storage.merge_segments",
     "storage.merge"),
    ("repro.storage.engine", "ShardEngine.fetch", "storage.fetch", "storage.fetch"),
    ("repro.storage.engine", "ShardEngine.scan_filter", "storage.scan_filter",
     "storage.scan"),
    ("repro.storage.engine", "ShardEngine.full_scan", "storage.full_scan",
     "storage.scan"),
    ("repro.storage.engine", "ShardEngine.term_postings", "storage.term_postings",
     "storage.postings"),
    ("repro.storage.engine", "ShardEngine.numeric_range", "storage.numeric_range",
     "storage.postings"),
    ("repro.storage.engine", "ShardEngine.subattribute_postings",
     "storage.subattribute_postings", "storage.postings"),
    ("repro.storage.engine", "ShardEngine.text_postings", "storage.text_postings",
     "storage.postings"),
    ("repro.storage.engine", "ShardEngine.composite_search",
     "storage.composite_search", "storage.postings"),
    # Not among the engine's index entry points, but the facade's LIMIT
    # pushdown sorts through it; unwrapped it would count as facade time.
    ("repro.storage.engine", "ShardEngine.top_k", "storage.top_k", "storage.top_k"),
    ("repro.storage.translog", "Translog.append", "storage.translog_append", None),
    ("repro.storage.analysis", "StandardAnalyzer.analyze", "storage.analyze", None),
    # parse_attributes at every import site: the facade imports it from
    # repro.storage.document at call time.
    ("repro.storage.document", "parse_attributes", "storage.parse_attributes", None),
    ("repro.storage.engine", "parse_attributes", "storage.parse_attributes", None),
    ("repro.storage.segment", "parse_attributes", "storage.parse_attributes", None),
    ("repro.query.executor", "parse_attributes", "storage.parse_attributes", None),
    ("repro.esdb", "parse_sql", "query.parse", "query.parse"),
    ("repro.query.xdriver", "Xdriver4ES.translate", "query.rewrite", "query.rewrite"),
    ("repro.query.optimizer", "RuleBasedOptimizer.plan", "query.plan", "query.plan"),
    ("repro.query.executor", "QueryExecutor.execute", "query.execute",
     "query.execute"),
    ("repro.query.aggregator", "ResultAggregator.aggregate_shards",
     "query.aggregate", "query.aggregate"),
    ("repro.cache.result_cache", "CoordinatorResultCache.get", "cache.result_get",
     "cache.lookup"),
    ("repro.cache.result_cache", "CoordinatorResultCache.put", "cache.result_put",
     "cache.lookup"),
    ("repro.cache.request_cache", "ShardRequestCache.get", "cache.request_get",
     "cache.lookup"),
    ("repro.cache.request_cache", "ShardRequestCache.put", "cache.request_put",
     "cache.lookup"),
    ("repro.indexing.frequency", "FrequencyTracker.record_write",
     "indexing.record_write", "indexing.frequency"),
    ("repro.indexing.frequency", "FrequencyTracker.record_query",
     "indexing.record_query", "indexing.frequency"),
    ("repro.obsv.observer", "Observer.record_write", "obsv.record_write",
     "obsv.record"),
    ("repro.obsv.observer", "Observer.record_search", "obsv.record_search",
     "obsv.record"),
    ("repro.obsv.observer", "Observer.roll", "obsv.roll", "obsv.roll"),
    ("repro.telemetry.timeseries", "TimeSeriesStore.sample", "telemetry.sample",
     "telemetry.sample"),
)


def _uses_seqscan(node) -> bool:
    """Whether a plan tree contains a sequential-scan filter operator."""
    if type(node).__name__ == "SequentialScanFilter":
        return True
    if not dataclasses.is_dataclass(node):
        return False
    for item in dataclasses.fields(node):
        value = getattr(node, item.name)
        children = value if isinstance(value, tuple) else (value,)
        if any(_uses_seqscan(child) for child in children):
            return True
    return False


def _note_fetch(tracer, args, kwargs, result):
    tracer.counts["docs_fetched"] += len(args[1])


def _note_merge(tracer, args, kwargs, result):
    tracer.counts["merge_docs_rewritten"] += sum(s.live_count for s in args[0])


def _note_refresh(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["refreshes_sealed"] += 1


def _note_plan(tracer, args, kwargs, result):
    tracer.counts["plans"] += 1
    if _uses_seqscan(result.root):
        tracer.counts["seqscan_plans"] += 1


def _note_bulk_write(tracer, args, kwargs, result):
    tracer.counts["bulk_docs"] += len(result.items)


def _note_query(tracer, args, kwargs, result):
    tracer.queries.append(
        (tracer.current_request, result.subqueries, result.total_hits, len(result.rows))
    )


def _note_propose_abort(tracer, exc):
    if type(exc).__name__ == "ConsensusAborted":
        tracer.counts["consensus_aborts"] += 1


NOTES = {
    "storage.fetch": _note_fetch,
    "storage.merge_segments": _note_merge,
    "storage.refresh": _note_refresh,
    "query.plan": _note_plan,
    "esdb.bulk_write": _note_bulk_write,
    "esdb.execute_sql": _note_query,
}
RAISE_NOTES = {"consensus.propose": _note_propose_abort}


class SpanTracer:
    """Records spans around :data:`ENTRY_POINTS` while installed. Use a new
    tracer for each traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.buckets: list[str | None] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.queries: list[tuple] = []
        self._stack: list[int] = []
        self._requests = 0
        self._originals: list[tuple[object, str, object]] = []

    @property
    def current_request(self) -> int:
        return self.request[self._stack[-1]] if self._stack else -1

    def _name_id(self, name: str, bucket: str | None) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.buckets.append(bucket)
        return self._name_ids[name]

    def _wrap(self, name: str, bucket: str | None, fn):
        name_id = self._name_id(name, bucket)
        note = NOTES.get(name)
        raise_note = RAISE_NOTES.get(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(names)
            names.append(name_id)
            parents.append(parent)
            if parent < 0:
                tracer._requests += 1
                requests.append(tracer._requests)
            else:
                requests.append(requests[parent])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                if raise_note is not None:
                    raise_note(tracer, exc)
                stack.pop()
                raise
            ends[index] = clock()
            if note is not None:
                note(tracer, args, kwargs, result)
            stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, bucket in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, bucket, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")

    # -- analysis ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        """Write the spans (numpy arrays plus the name table) to *path*."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, **self.arrays())
        with open(path + ".names.json", "w") as out:
            json.dump({"names": self.names, "buckets": self.buckets}, out)


class Profile:
    """Call counts and per-bucket self time of one trace."""

    def __init__(self, tracer: SpanTracer) -> None:
        spans = tracer.arrays()
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        # Parents precede their children, so one forward pass resolves
        # inherited buckets and each span's root.
        bucket = [""] * len(name)
        root = np.empty(len(name), dtype=np.int64)
        for index, (n, p) in enumerate(zip(name.tolist(), parent.tolist())):
            own = tracer.buckets[n]
            bucket[index] = own if own is not None else (bucket[p] if p >= 0 else "other")
            root[index] = root[p] if p >= 0 else index
        self.bucket_self: Counter = Counter()
        for b, t in zip(bucket, self_time.tolist()):
            self.bucket_self[b] += t
        self.calls = self._count(tracer, name)
        query_root = tracer._name_ids.get("esdb.execute_sql", -1)
        self.write_side_calls = self._count(tracer, name[name[root] != query_root])
        aggregate_id = tracer._name_ids.get("query.aggregate", -1)
        self.fanned_requests = set(spans["request"][name == aggregate_id].tolist())

    @staticmethod
    def _count(tracer: SpanTracer, names: np.ndarray) -> Counter:
        ids, counts = np.unique(names, return_counts=True)
        return Counter({tracer.names[n]: int(c) for n, c in zip(ids, counts)})


#: Every per-layer metric of the traced run, with its unit. Units not in
#: TIME_UNITS are exact counts or ratios of counts: they repeat exactly for
#: a given seed, which the determinism check relies on.
LAYER_METRICS = {
    "routing.route_us": "us",
    "routing.query_shards_us": "us",
    "routing.flash_tenant_shards": "count",
    "routing.rules_committed": "count",
    "balancer.rebalance_ms": "ms",
    "balancer.monitor_us": "us",
    "consensus.propose_ms": "ms",
    "consensus.commits": "count",
    "consensus.aborts": "count",
    "storage.index_us_per_doc": "us/doc",
    "storage.attr_parses_per_doc": "1/doc",
    "storage.analyze_calls_per_doc": "1/doc",
    "storage.translog_appends_per_doc": "1/doc",
    "storage.refresh_ms": "ms",
    "storage.refreshes": "count",
    "storage.merge_ms": "ms",
    "storage.merges": "count",
    "storage.merge_docs_rewritten_per_doc": "1/doc",
    "storage.segments_at_end": "count",
    "storage.postings_us_per_query": "us/query",
    "storage.scan_ms_per_query": "ms/query",
    "storage.fetch_us_per_query": "us/query",
    "storage.top_k_us_per_query": "us/query",
    "storage.docs_fetched_per_query": "1/query",
    "query.parse_us": "us",
    "query.rewrite_us": "us",
    "query.plan_us": "us",
    "query.execute_ms": "ms/query",
    "query.aggregate_us": "us",
    "query.subqueries_per_query": "1/query",
    "query.rows_matched_per_row_returned": "ratio",
    "query.seqscan_plan_share": "ratio",
    "cache.result_hit_ratio": "ratio",
    "cache.result_lookups": "count",
    "cache.request_hit_ratio": "ratio",
    "cache.request_lookups": "count",
    "cache.filter_hit_ratio": "ratio",
    "cache.filter_lookups": "count",
    "cache.evictions": "count",
    "cache.lookup_us_per_query": "us/query",
    "indexing.frequency_us_per_op": "us",
    "obsv.record_us_per_op": "us",
    "obsv.roll_ms": "ms",
    "telemetry.timeseries_sample_ms": "ms",
    "telemetry.timeseries_samples": "count",
    "esdb.write_self_us": "us",
    "esdb.bulk_self_us_per_doc": "us/doc",
    "esdb.query_self_us": "us",
    "bench.docs": "count",
    "bench.statements": "count",
    "bench.fanout_statements": "count",
    "bench.trace_overhead_pct": "%",
    "failed_ops_frac": "ratio",
}
TIME_UNITS = frozenset({"us", "ms", "us/doc", "us/query", "ms/query", "%"})


def _per(total: float, base: float, scale: float = 1.0) -> float:
    return total / base * scale if base else 0.0


def layer_metrics(tracer: SpanTracer, state: dict) -> dict[str, float]:
    """Per-layer metrics of one traced measured phase. *state* carries what
    the spans cannot show: ``docs``, ``statements``, the ``cache`` counter
    deltas per level, and end-of-phase readings of the instance."""
    profile = Profile(tracer)
    own, calls, write_side = profile.bucket_self, profile.calls, profile.write_side_calls
    counts = tracer.counts
    docs, statements = state["docs"], state["statements"]
    fanned = [q for q in tracer.queries if q[0] in profile.fanned_requests]
    fan = len(fanned)
    returned = sum(q[3] for q in fanned)
    cache = state["cache"]
    metrics = {
        "routing.route_us": _per(own["routing.route"], calls["routing.route_write"], 1e6),
        "routing.query_shards_us": _per(
            own["routing.query_shards"], calls["routing.query_shards"], 1e6
        ),
        "routing.flash_tenant_shards": state["flash_tenant_shards"],
        "routing.rules_committed": state["rules"],
        "balancer.rebalance_ms": _per(
            own["balancer.rebalance"], calls["balancer.rebalance"], 1e3
        ),
        "balancer.monitor_us": _per(
            own["balancer.monitor"], calls["balancer.monitor.record_write"], 1e6
        ),
        "consensus.propose_ms": _per(
            own["consensus.propose"], calls["consensus.propose"], 1e3
        ),
        "consensus.commits": calls["consensus.propose"] - counts["consensus_aborts"],
        "consensus.aborts": counts["consensus_aborts"],
        "storage.index_us_per_doc": _per(own["storage.index"], docs, 1e6),
        "storage.attr_parses_per_doc": _per(write_side["storage.parse_attributes"], docs),
        "storage.analyze_calls_per_doc": _per(write_side["storage.analyze"], docs),
        "storage.translog_appends_per_doc": _per(calls["storage.translog_append"], docs),
        "storage.refresh_ms": _per(
            own["storage.refresh"], counts["refreshes_sealed"], 1e3
        ),
        "storage.refreshes": counts["refreshes_sealed"],
        "storage.merge_ms": _per(own["storage.merge"], calls["storage.merge_segments"], 1e3),
        "storage.merges": calls["storage.merge_segments"],
        "storage.merge_docs_rewritten_per_doc": _per(counts["merge_docs_rewritten"], docs),
        "storage.segments_at_end": state["segments"],
        "storage.postings_us_per_query": _per(own["storage.postings"], fan, 1e6),
        "storage.scan_ms_per_query": _per(own["storage.scan"], fan, 1e3),
        "storage.fetch_us_per_query": _per(own["storage.fetch"], fan, 1e6),
        "storage.top_k_us_per_query": _per(own["storage.top_k"], fan, 1e6),
        "storage.docs_fetched_per_query": _per(counts["docs_fetched"], fan),
        "query.parse_us": _per(own["query.parse"], calls["query.parse"], 1e6),
        "query.rewrite_us": _per(own["query.rewrite"], calls["query.rewrite"], 1e6),
        "query.plan_us": _per(own["query.plan"], calls["query.plan"], 1e6),
        "query.execute_ms": _per(own["query.execute"], fan, 1e3),
        "query.aggregate_us": _per(own["query.aggregate"], calls["query.aggregate"], 1e6),
        "query.subqueries_per_query": _per(sum(q[1] for q in fanned), fan),
        "query.rows_matched_per_row_returned": _per(sum(q[2] for q in fanned), returned),
        "query.seqscan_plan_share": _per(counts["seqscan_plans"], counts["plans"]),
        "cache.evictions": sum(level[2] for level in cache.values()),
        "cache.lookup_us_per_query": _per(own["cache.lookup"], statements, 1e6),
        "indexing.frequency_us_per_op": _per(
            own["indexing.frequency"],
            calls["indexing.record_write"] + calls["indexing.record_query"],
            1e6,
        ),
        "obsv.record_us_per_op": _per(
            own["obsv.record"],
            calls["obsv.record_write"] + calls["obsv.record_search"],
            1e6,
        ),
        "obsv.roll_ms": _per(own["obsv.roll"], calls["obsv.roll"], 1e3),
        "telemetry.timeseries_sample_ms": _per(
            own["telemetry.sample"], calls["telemetry.sample"], 1e3
        ),
        "telemetry.timeseries_samples": calls["telemetry.sample"],
        "esdb.write_self_us": _per(own["esdb.write"], calls["esdb.write"], 1e6),
        "esdb.bulk_self_us_per_doc": _per(own["esdb.bulk_write"], counts["bulk_docs"], 1e6),
        "esdb.query_self_us": _per(own["esdb.query"], calls["esdb.execute_sql"], 1e6),
        "bench.docs": docs,
        "bench.statements": statements,
        "bench.fanout_statements": fan,
        "bench.trace_overhead_pct": state["trace_overhead_pct"],
        "failed_ops_frac": state["failed_ops_frac"],
    }
    for level in ("result", "request", "filter"):
        hits, misses, _ = cache[level]
        metrics[f"cache.{level}_hit_ratio"] = _per(hits, hits + misses)
        metrics[f"cache.{level}_lookups"] = hits + misses
    return metrics

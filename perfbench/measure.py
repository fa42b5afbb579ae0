"""Measured runs: untraced (end-to-end metrics) and traced (per-layer).

Import after :func:`run.import_program` has put the program on the path.
"""

from __future__ import annotations

from pathlib import Path

from inputs import FLASH_TENANT
from oracle import Corpus
from ruler import clock, median, quantile, samples_needed, settled_rss_bytes
from tracer import LAYER_METRICS, TIME_UNITS, SpanTracer, layer_metrics
from workloads import (
    STATEMENTS_PER_SECOND,
    TRACE_STATEMENTS,
    IngestSpike,
    MixedReadWrite,
    Phase,
    QueryDashboard,
    clear_caches,
    read_your_writes_sweep,
    shard_skew,
)

#: Set-ups per run: setup_s is their median.
SETUP_REPEATS = 3
OUT_DIR = Path(".perfbench_out")

#: End-to-end metrics (every workload reports each) and their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "tenant_query_p50_ms": "ms",
    "tenant_query_p99_ms": "ms",
    "shard_skew_max_mean": "ratio",
    "mem_mb": "MB",
}

#: Per workload: what ``ops_per_s`` counts, and the per-class names of the
#: latency percentiles in the report line -- (name, class, percentile).
REPORT_NAMES = {
    "ingest_spike": (
        "ingest_docs_per_s",
        [("bulk_p50_ms", "bulk", 50), ("bulk_p95_ms", "bulk", 95),
         ("sweep_query_p50_ms", "sweep_query", 50),
         ("sweep_query_p99_ms", "sweep_query", 99)],
    ),
    "query_dashboard": (
        "queries_per_s",
        [("tenant_query_p50_ms", "tenant_query", 50),
         ("tenant_query_p99_ms", "tenant_query", 99),
         ("scan_query_p50_ms", "scan_query", 50),
         ("scan_query_p95_ms", "scan_query", 95)],
    ),
    "mixed_rw": (
        "mixed_ops_per_s",
        [("write_p50_us", "write", 50), ("write_p95_us", "write", 95),
         ("write_p99_us", "write", 99),
         ("tenant_query_p50_ms", "tenant_query", 50),
         ("tenant_query_p99_ms", "tenant_query", 99)],
    ),
}


def percentile(samples: list[float], percent: int, scale: float = 1e3) -> float:
    """The *percent* percentile of *samples* (seconds) times *scale* (ms by
    default); a tail needs ten samples beyond it."""
    if percent > 50 and len(samples) < samples_needed(percent):
        raise RuntimeError(
            f"{len(samples)} samples cannot support p{percent} "
            f"(needs {samples_needed(percent)})"
        )
    return quantile(samples, percent / 100.0) * scale


class Run:
    """One invocation: the workload's phases and what they measured."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.phases: list[Phase] = []
        self.setups: list[float] = []
        self.mem_bytes = 0
        self.skew = 0.0
        self.layers: dict | None = None

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    @property
    def mismatches(self) -> list[str]:
        return [m for p in self.phases for m in p.mismatches]

    def pooled(self, name: str) -> list[float]:
        return [s for p in self.phases for s in p.samples.get(name, ())]

    def measured(self) -> float:
        return sum(p.elapsed for p in self.phases)

    def timed_setup(self):
        began = clock()
        db, preloaded = self.workload.setup()
        self.setups.append(clock() - began)
        return db, preloaded

    def end_to_end(self) -> tuple[dict, dict]:
        """(contract metrics, report line with per-class names and sample
        counts)."""
        workload = self.workload
        ops = sum(p.ops for p in self.phases)
        main = self.pooled(workload.main_class)
        tenant = self.pooled(workload.tenant_class)
        metrics = {
            "setup_s": median(self.setups),
            "ops_per_s": ops / self.measured(),
            "op_p50_ms": percentile(main, 50),
            "op_p95_ms": percentile(main, 95),
            "tenant_query_p50_ms": percentile(tenant, 50),
            "tenant_query_p99_ms": percentile(tenant, 99),
            "shard_skew_max_mean": self.skew,
            "mem_mb": self.mem_bytes / 2**20,
        }
        throughput, latencies = REPORT_NAMES[workload.name]
        report = {
            "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": len(self.setups)},
            throughput: {"value": metrics["ops_per_s"], "unit": "1/s", "samples": ops},
        }
        for name, cls, percent in latencies:
            samples = self.pooled(cls)
            unit = name.rsplit("_", 1)[1]
            report[name] = {
                "value": percentile(samples, percent, 1e6 if unit == "us" else 1e3),
                "unit": unit,
                "samples": len(samples),
            }
        report["failed_ops_frac"] = {
            "value": self.failed / max(self.attempted, 1),
            "unit": "ratio",
            "samples": self.attempted,
        }
        report["shard_skew_max_mean"] = {"value": self.skew, "unit": "ratio", "samples": 1}
        report["mem_mb"] = {"value": metrics["mem_mb"], "unit": "MB", "samples": 1}
        statements = sum(p.statements for p in self.phases)
        if statements:
            report["statement_repeat_share"] = {
                "value": sum(p.repeated_statements for p in self.phases) / statements,
                "unit": "ratio",
                "samples": statements,
            }
        return metrics, report


def check_preload(expected: list, acknowledged: list, phase: Phase) -> None:
    if len(acknowledged) != len(expected):
        phase.failed += len(expected) - len(acknowledged)
        phase.mismatches.append(
            f"set-up acknowledged {len(acknowledged)} of {len(expected)} documents"
        )


# -- untraced runs -----------------------------------------------------------------
def run_writes(workload, seconds: float) -> Run:
    """Write workloads: cycles of set-up and measured phase on fresh
    instances, while another cycle brings the measured time closer to
    *seconds*. Every cycle runs identical inputs, so each must end with the
    first cycle's shard layout. The read-your-writes sweep runs after the
    first cycle, and after every cycle where its latencies are the
    workload's tenant-query class."""
    run = Run(workload)
    rss_before = settled_rss_bytes()
    layout = None
    while not run.phases or run.measured() * (1 + 0.5 / len(run.phases)) < seconds:
        db, preloaded = run.timed_setup()
        phase = Phase()
        check_preload(workload.preload, preloaded, phase)
        acknowledged = workload.measure(db, phase, preloaded)
        run.phases.append(phase)
        if layout is None:
            run.mem_bytes = settled_rss_bytes() - rss_before
            layout = db.shard_doc_counts()
            run.skew = shard_skew(db)
        elif db.shard_doc_counts() != layout:
            phase.mismatches.append("shard layout differs from the first cycle's")
        if workload.tenant_class == "sweep_query" or len(run.phases) == 1:
            corpus = Corpus(preloaded + acknowledged)
            phase.samples["sweep_query"] = read_your_writes_sweep(db, corpus, phase)
        db.close()
    while len(run.setups) < SETUP_REPEATS:
        db, preloaded = run.timed_setup()
        check_preload(workload.preload, preloaded, run.phases[-1])
        db.close()
    return run


def run_queries(workload, seconds: float) -> Run:
    """query_dashboard: SETUP_REPEATS segments, each a fresh set-up, the
    warm-up and 1/SETUP_REPEATS of the measured time, continuing one
    statement stream. Spreading the measured time over the run averages
    over host-speed swings better than one block would."""
    run = Run(workload)
    rss_before = settled_rss_bytes()
    position = 0
    for segment in range(SETUP_REPEATS):
        db, preloaded = run.timed_setup()
        phase = Phase()
        check_preload(workload.preload, preloaded, phase)
        workload.warm(db, phase)
        position += workload.run_statements(
            db, workload.stream[position:], phase, seconds / SETUP_REPEATS
        )
        run.phases.append(phase)
        if segment == 0:
            run.mem_bytes = settled_rss_bytes() - rss_before
            run.skew = shard_skew(db)
        db.close()
        del db
    return run


# -- traced runs -----------------------------------------------------------------------
def cache_counters(db) -> dict:
    metrics = db.telemetry.metrics
    return {
        level: (
            metrics.value("cache_hits_total", level=level),
            metrics.value("cache_misses_total", level=level),
            metrics.value("cache_evictions_total", level=level),
        )
        for level in ("result", "request", "filter")
    }


def instance_state(db, caches_before: dict) -> dict:
    """Exact end-of-phase readings that tracing must not change."""
    after = cache_counters(db)
    return {
        "shard_docs": db.shard_doc_counts(),
        "segments": sum(engine.segment_count() for engine in db.engines.values()),
        "rules": len(getattr(db.policy, "rules", ())),
        "flash_tenant_shards": db.tenant_fanout(FLASH_TENANT),
        "cache": {
            level: tuple(a - b for a, b in zip(after[level], caches_before[level]))
            for level in after
        },
    }


def traced_call(function):
    """Call *function* with a new span tracer installed; returns the tracer
    and the call's result."""
    tracer = SpanTracer()
    tracer.install()
    try:
        result = function()
    finally:
        tracer.uninstall()
    return tracer, result


def trace_writes(workload, seconds: float, seed: int) -> Run:
    """Pairs of (untraced, traced) cycles on identical inputs until *seconds*
    of measured time; per-layer metrics come from the first traced cycle."""
    run = Run(workload)
    overheads = []
    while not overheads or run.measured() < seconds:
        states, elapsed = [], []
        for traced in (False, True):
            db, preloaded = workload.setup()
            phase = Phase()
            check_preload(workload.preload, preloaded, phase)
            before = cache_counters(db)
            measure = lambda: workload.measure(db, phase, preloaded)  # noqa: E731
            if traced:
                tracer, acknowledged = traced_call(measure)
            else:
                acknowledged = measure()
            run.phases.append(phase)
            states.append(instance_state(db, before))
            elapsed.append(phase.elapsed)
            if len(run.phases) == 1:
                read_your_writes_sweep(db, Corpus(preloaded + acknowledged), phase)
            db.close()
        if states[0] != states[1]:
            phase.mismatches.append("the traced cycle ended in another state than the untraced one")
        overheads.append((elapsed[1] - elapsed[0]) / elapsed[0] * 100.0)
        finish_layers(run, tracer, states[1], phase, seed)
    run.layers["bench.trace_overhead_pct"] = median(overheads)
    return run


def trace_queries(workload, seconds: float, seed: int) -> Run:
    """query_dashboard: one set-up, then pairs of (untraced, traced) passes
    over the same statements, each from empty caches plus the warm-up."""
    run = Run(workload)
    db, preloaded = workload.setup()
    statements = workload.stream[:TRACE_STATEMENTS]
    overheads = []
    while not overheads or run.measured() < seconds:
        states, elapsed = [], []
        for traced in (False, True):
            phase = Phase()
            if not run.phases:
                check_preload(workload.preload, preloaded, phase)
            clear_caches(db)
            workload.warm(db, phase)
            before = cache_counters(db)
            measure = lambda: workload.run_statements(db, statements, phase, None)  # noqa: E731
            if traced:
                tracer, _ = traced_call(measure)
            else:
                measure()
            run.phases.append(phase)
            states.append(instance_state(db, before))
            elapsed.append(phase.elapsed)
        if states[0] != states[1]:
            phase.mismatches.append("the traced pass ended in another state than the untraced one")
        overheads.append((elapsed[1] - elapsed[0]) / elapsed[0] * 100.0)
        finish_layers(run, tracer, states[1], phase, seed)
    db.close()
    run.layers["bench.trace_overhead_pct"] = median(overheads)
    return run


def finish_layers(run: Run, tracer: SpanTracer, state: dict, phase: Phase, seed: int) -> None:
    """Per-layer metrics of one traced phase. The first traced phase's are
    reported and its spans written out; later ones must repeat its counts."""
    layers = layer_metrics(
        tracer,
        {
            "docs": phase.docs,
            "statements": phase.statements,
            "cache": state["cache"],
            "segments": state["segments"],
            "rules": state["rules"],
            # query_dashboard has no flash tenant.
            "flash_tenant_shards": state["flash_tenant_shards"] if phase.docs else 0,
            "trace_overhead_pct": 0.0,
            "failed_ops_frac": run.failed / max(run.attempted, 1),
        },
    )
    if run.layers is None:
        run.layers = layers
        tracer.write(str(OUT_DIR / f"spans-{run.workload.name}-seed{seed}.npz"))
        return
    for name, unit in LAYER_METRICS.items():
        if unit not in TIME_UNITS and layers[name] != run.layers[name]:
            phase.mismatches.append(
                f"count {name} differs between traced phases: "
                f"{layers[name]} vs {run.layers[name]}"
            )


def make_workload(name: str, seed: int, seconds: float):
    """Generate the workload's inputs (before any timer starts)."""
    if name == "ingest_spike":
        return IngestSpike(seed)
    if name == "mixed_rw":
        return MixedReadWrite(seed)
    return QueryDashboard(
        seed, max(int(STATEMENTS_PER_SECOND * seconds), TRACE_STATEMENTS)
    )


def execute(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict, dict]:
    """Run one workload; returns the run, its metrics (name -> value and
    unit) and the report line."""
    workload = make_workload(name, seed, seconds)
    writes = name != "query_dashboard"
    if trace:
        run = (trace_writes if writes else trace_queries)(workload, seconds, seed)
        metrics = {
            key: {"value": run.layers[key], "unit": unit} for key, unit in LAYER_METRICS.items()
        }
        report = {}
    else:
        run = (run_writes if writes else run_queries)(workload, seconds)
        values, report = run.end_to_end()
        metrics = {
            key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()
        }
    report["workload"] = dict(workload.record)
    return run, metrics, report

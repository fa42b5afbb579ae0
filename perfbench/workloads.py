"""The three workloads: inputs, set-up, the measured phase and its checks.

Every workload is a single client in a closed loop (the next operation is
sent when the previous one returns) against the default ``EsdbConfig`` on
:data:`TOPOLOGY`. Inputs are generated in the constructor, before any timer
starts; :meth:`setup` builds a loaded instance (the ``setup_s`` cost) and
the measured phase runs against it.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass, field

from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig

from inputs import (
    FLASH_SHARE,
    FLASH_TENANT,
    LOGICAL_RATE,
    NUM_TENANTS,
    SCAN_TEMPLATES,
    THETA,
    DocumentFactory,
    ScanStatements,
    Zipf,
    tenant_count,
    tenant_recent,
    tenant_status,
)
from oracle import Corpus, VisibleWindow
from ruler import clock

#: Sized for a 2-CPU box: 4 nodes, 32 primary shards, no replicas.
TOPOLOGY = dict(num_nodes=4, num_shards=32, replicas_per_shard=0)
#: Documents per ``bulk_write`` call, the size WriteClient/replay_trace use.
BULK_DOCS = 128

#: The write workloads start from a loaded cluster: a quiet lead-in of
#: PRELOAD_DOCS spread over PRELOAD_SECONDS logical seconds, long enough for
#: the rules the balancer commits for the Zipf-hot sellers (effective 5
#: logical seconds after commit) to be in force when the measured phase
#: starts.
PRELOAD_DOCS = 8_000
PRELOAD_SECONDS = 6.0
INGEST_DOCS = 40_000
MIXED_DOCS = 24_000
#: One tenant read after every READ_EVERY writes in mixed_rw; once the
#: flash tenant is live, every FLASH_READ_EVERY-th read goes to it. Reads
#: alternate between the two tenant templates.
READ_EVERY = 10
FLASH_READ_EVERY = 5

CORPUS_DOCS = 20_000
#: Tenant statements draw from the TENANT_POOL most popular sellers (Zipf
#: over their ranks), two templates each: a working set that fits the caches.
TENANT_POOL = 100
#: Every SCAN_EVERY-th statement is a scan, cycling through the templates;
#: the others alternate between the two tenant templates. Fixed shares keep
#: the latency mix the same in every run.
SCAN_EVERY = 5
#: Statements generated per requested second: about three times what a
#: 2-CPU box runs, so the stream never runs out.
STATEMENTS_PER_SECOND = 1_500
#: Statements in one traced pass of query_dashboard (after the warm-up).
TRACE_STATEMENTS = 2_500


def new_instance() -> ESDB:
    return ESDB(EsdbConfig(topology=ClusterTopology(**TOPOLOGY)))


@dataclass
class Phase:
    """What one measured phase did and saw."""

    elapsed: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    docs: int = 0
    statements: int = 0
    repeated_statements: int = 0

    def sample(self, name: str) -> list:
        return self.samples.setdefault(name, [])

    def fail(self, what: str) -> None:
        self.failed += 1
        if len([m for m in self.mismatches if m.startswith("failed")]) < 3:
            self.mismatches.append(f"failed {what}: {traceback.format_exc(limit=3)}")


class Ticker:
    """Fires once per whole logical second of the instance's clock."""

    def __init__(self, now: float) -> None:
        self.next = math.floor(now) + 1

    def due(self, now: float) -> bool:
        if now < self.next:
            return False
        self.next = math.floor(now) + 1
        return True


def bulk_load(db: ESDB, docs: list[dict], phase: Phase | None = None) -> list[dict]:
    """``bulk_write`` *docs* in BULK_DOCS batches with a rebalance round per
    logical second; returns the acknowledged documents. With *phase*, each
    batch's latency is sampled as ``bulk``."""
    acknowledged = []
    ticker = Ticker(docs[0]["created_time"])
    results = []
    for start in range(0, len(docs), BULK_DOCS):
        batch = docs[start : start + BULK_DOCS]
        began = clock()
        result = db.bulk_write(batch)
        if phase is not None:
            phase.sample("bulk").append(clock() - began)
        results.append((batch, result))
        if ticker.due(db.now):
            db.rebalance()
    for batch, result in results:
        for doc, item in zip(batch, result.items):
            if item.ok:
                acknowledged.append(doc)
            elif phase is not None:
                phase.failed += 1
                phase.mismatches.append(f"bulk item {doc['transaction_id']}: {item.error!r}")
    return acknowledged


def shard_skew(db: ESDB) -> float:
    """Documents on the fullest shard over the mean (the paper's balance
    metric); 1.0 is perfectly even."""
    counts = list(db.shard_doc_counts().values())
    return max(counts) / (sum(counts) / len(counts))


def read_your_writes_sweep(db: ESDB, corpus: Corpus, phase: Phase) -> list[float]:
    """Every tenant's COUNT(*) must equal its acknowledged writes, across
    every rule commit (Algorithm 2). Returns each query's latency."""
    latencies = []
    total = 0
    for tenant in sorted(set(range(1, NUM_TENANTS + 1)) | set(corpus.by_tenant)):
        statement = tenant_count(tenant)
        phase.attempted += 1
        began = clock()
        try:
            result = db.execute_sql(statement.sql)
        except Exception:
            phase.fail(statement.sql)
            continue
        latencies.append(clock() - began)
        mismatch = corpus.check(statement, result)
        if mismatch:
            phase.mismatches.append(f"read-your-writes: {mismatch}")
        total += len(corpus.by_tenant.get(tenant, ()))
    if total != len(corpus.docs) or db.doc_count() != len(corpus.docs):
        phase.mismatches.append(
            f"read-your-writes: {db.doc_count()} searchable documents, "
            f"{len(corpus.docs)} acknowledged"
        )
    return latencies


class Workload:
    name = ""
    #: Latency class reported as ``op_p50_ms`` / ``op_p95_ms``.
    main_class = ""
    #: Latency class reported as ``tenant_query_p50_ms`` / ``..._p99_ms``.
    tenant_class = "tenant_query"
    #: The workload record printed with every result: sizes, skew, pacing.
    record: dict = {}
    #: Documents every set-up loads before the measured phase.
    preload: list[dict]

    def setup(self) -> tuple[ESDB, list[dict]]:
        """A fresh instance loaded with :attr:`preload` and refreshed (the
        ``setup_s`` cost); returns it and the acknowledged documents."""
        db = new_instance()
        acknowledged = bulk_load(db, self.preload)
        db.refresh()
        return db, acknowledged


class IngestSpike(Workload):
    """Bulk ingest while a flash tenant ramps up (Fig 19's kickoff)."""

    name = "ingest_spike"
    main_class = "bulk"
    tenant_class = "sweep_query"
    record = {
        "preload_docs": PRELOAD_DOCS,
        "docs": INGEST_DOCS,
        "bulk_docs": BULK_DOCS,
        "tenants": NUM_TENANTS,
        "theta": THETA,
        "flash_tenant": FLASH_TENANT,
        "flash_share": FLASH_SHARE,
        "flash_from_doc": INGEST_DOCS // 3,
        "logical_rate": LOGICAL_RATE,
        "statement_repeat_share": 0.0,
    }

    def __init__(self, seed: int) -> None:
        factory = DocumentFactory(seed)
        self.preload = factory.stream(
            PRELOAD_DOCS, 0.0, PRELOAD_DOCS / PRELOAD_SECONDS
        )
        self.docs = factory.stream(
            INGEST_DOCS, PRELOAD_SECONDS, LOGICAL_RATE, flash_from=INGEST_DOCS // 3
        )

    def measure(self, db: ESDB, phase: Phase, preloaded: list[dict]) -> list[dict]:
        """Ingest the spike stream; the final refresh is part of ingesting.
        Returns the acknowledged documents."""
        began = clock()
        acknowledged = bulk_load(db, self.docs, phase)
        db.refresh()
        phase.elapsed = clock() - began
        phase.ops = phase.docs = len(self.docs)
        phase.attempted += len(self.docs)
        return acknowledged


class MixedReadWrite(Workload):
    """Per-document writes with tenant reads mixed in, NRT refreshes."""

    name = "mixed_rw"
    main_class = "write"
    record = {
        "preload_docs": PRELOAD_DOCS,
        "docs": MIXED_DOCS,
        "reads": MIXED_DOCS // READ_EVERY,
        "tenants": NUM_TENANTS,
        "theta": THETA,
        "flash_tenant": FLASH_TENANT,
        "flash_share": FLASH_SHARE,
        "flash_from_doc": MIXED_DOCS // 3,
        "flash_read_share": 1 / FLASH_READ_EVERY,
        "logical_rate": LOGICAL_RATE,
        "refresh_and_rebalance": "once per logical second",
    }

    def __init__(self, seed: int) -> None:
        factory = DocumentFactory(seed)
        self.preload = factory.stream(
            PRELOAD_DOCS, 0.0, PRELOAD_DOCS / PRELOAD_SECONDS
        )
        flash_from = MIXED_DOCS // 3
        docs = factory.stream(
            MIXED_DOCS, PRELOAD_SECONDS, LOGICAL_RATE, flash_from=flash_from
        )
        readers = Zipf(NUM_TENANTS, THETA, random.Random(seed + 6))
        self.ops: list = []
        for position, doc in enumerate(docs):
            self.ops.append(doc)
            if (position + 1) % READ_EVERY:
                continue
            read = position // READ_EVERY
            if position >= flash_from and read % FLASH_READ_EVERY == 0:
                tenant = FLASH_TENANT
            else:
                tenant = readers.sample()
            self.ops.append((tenant_recent, tenant_count)[read % 2](tenant))
        self.docs = docs

    def measure(self, db: ESDB, phase: Phase, preloaded: list[dict]) -> list[dict]:
        """Run the write/read stream, then a final (untimed) refresh.
        Returns the acknowledged documents."""
        window = VisibleWindow(preloaded)
        writes, reads = phase.sample("write"), phase.sample("tenant_query")
        issued = []
        acknowledged = []
        ticker = Ticker(db.now)
        began = clock()
        for op in self.ops:
            if type(op) is dict:
                start = clock()
                try:
                    db.write(op)
                except Exception:
                    phase.fail(f"write {op['transaction_id']}")
                    continue
                writes.append(clock() - start)
                window.acknowledge(op)
                acknowledged.append(op)
                if ticker.due(op["created_time"]):
                    db.refresh()
                    window.refreshed()
                    db.rebalance()
            else:
                snapshot = window.snapshot(op.params[0])
                start = clock()
                try:
                    result = db.execute_sql(op.sql)
                except Exception:
                    phase.fail(op.sql)
                    continue
                reads.append(clock() - start)
                issued.append((op, result, snapshot))
        phase.elapsed = clock() - began
        db.refresh()
        phase.ops = len(writes) + len(reads)
        phase.attempted += len(self.ops)
        phase.docs = len(self.docs)
        phase.statements = len(issued)
        for statement, result, snapshot in issued:
            mismatch = window.check(statement, result, snapshot)
            if mismatch:
                phase.mismatches.append(mismatch)
        return acknowledged


class QueryDashboard(Workload):
    """Read-only dashboards over a preloaded corpus: repeated tenant
    statements plus fresh cross-tenant scans."""

    name = "query_dashboard"
    main_class = "scan_query"
    record = {
        "corpus_docs": CORPUS_DOCS,
        "tenants": NUM_TENANTS,
        "theta": THETA,
        "tenant_pool": TENANT_POOL,
        "tenant_templates": ["recent", "status"],
        "scan_share": 1 / SCAN_EVERY,
        "scan_templates": list(SCAN_TEMPLATES),
        "logical_rate": LOGICAL_RATE,
    }

    def __init__(self, seed: int, statements: int) -> None:
        self.preload = DocumentFactory(seed).stream(CORPUS_DOCS, 0.0, LOGICAL_RATE)
        self.corpus = Corpus(self.preload, scans=True)
        self.warmup = [
            make(tenant)
            for tenant in range(1, TENANT_POOL + 1)
            for make in (tenant_recent, tenant_status)
        ]
        sellers = Zipf(TENANT_POOL, THETA, random.Random(seed + 8))
        scans = ScanStatements(seed, CORPUS_DOCS / LOGICAL_RATE)
        self.stream = []
        for position in range(statements):
            if position % SCAN_EVERY == SCAN_EVERY - 1:
                template = SCAN_TEMPLATES[position // SCAN_EVERY % len(SCAN_TEMPLATES)]
                self.stream.append(scans.make(template))
            else:
                make = (tenant_recent, tenant_status)[position % 2]
                self.stream.append(make(sellers.sample()))

    def run_statements(
        self, db: ESDB, statements, phase: Phase, seconds: float | None
    ) -> int:
        """Run *statements* in order until *seconds* of measured time (all
        of them when None). Each answer is checked against the corpus as it
        arrives, outside the timed call, so no result is held. Returns how
        many statements were issued."""
        seen = {statement.sql for statement in self.warmup}
        issued = 0
        for statement in statements:
            if seconds is not None and phase.elapsed >= seconds:
                break
            issued += 1
            phase.attempted += 1
            start = clock()
            try:
                result = db.execute_sql(statement.sql)
            except Exception:
                phase.fail(statement.sql)
                continue
            latency = clock() - start
            phase.elapsed += latency
            phase.sample(
                "tenant_query" if statement.tenant_scoped else "scan_query"
            ).append(latency)
            phase.ops += 1
            phase.statements += 1
            if statement.sql in seen:
                phase.repeated_statements += 1
            seen.add(statement.sql)
            mismatch = self.corpus.check(statement, result)
            if mismatch:
                phase.mismatches.append(mismatch)
        return issued

    def warm(self, db: ESDB, phase: Phase) -> None:
        """Run every tenant statement once, so the timed phase meets warm
        caches, as a dashboard that has been open for a while would."""
        for statement in self.warmup:
            try:
                result = db.execute_sql(statement.sql)
            except Exception:
                phase.fail(statement.sql)
                continue
            mismatch = self.corpus.check(statement, result)
            if mismatch:
                phase.mismatches.append(mismatch)


def clear_caches(db: ESDB) -> None:
    """Empty every query-cache level, so two passes start from equal state."""
    for cache in (db.result_cache, db.request_cache):
        if cache is not None:
            cache.clear()
    for engine in db.engines.values():
        if engine.filter_cache is not None:
            engine.filter_cache.clear()

"""Tests of the benchmark itself: the oracle must not be vacuous, the ruler
must count tails right, and traced runs must repeat their counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import inputs  # noqa: E402
import measure  # noqa: E402
import ruler  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import Corpus, VisibleWindow  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    """A small refreshed instance and the corpus it was loaded with."""
    docs = inputs.DocumentFactory(7).stream(600, 0.0, inputs.LOGICAL_RATE)
    db = workloads.new_instance()
    acknowledged = workloads.bulk_load(db, docs)
    db.refresh()
    assert len(acknowledged) == len(docs)
    return db, Corpus(docs, scans=True)


def hottest(corpus: Corpus) -> int:
    return max(corpus.by_tenant, key=lambda t: len(corpus.by_tenant[t]))


def test_checker_accepts_right_answers(loaded):
    db, corpus = loaded
    tenant = hottest(corpus)
    scans = inputs.ScanStatements(3, len(corpus.docs) / inputs.LOGICAL_RATE)
    statements = [
        inputs.tenant_recent(tenant),
        inputs.tenant_status(tenant),
        inputs.tenant_count(tenant),
    ] + [scans.make(template) for template in inputs.SCAN_TEMPLATES * 5]
    for statement in statements:
        assert corpus.check(statement, db.execute_sql(statement.sql)) is None


def test_checker_rejects_a_wrong_expected_answer(loaded):
    db, corpus = loaded
    tenant = hottest(corpus)
    dropped = corpus.by_tenant[tenant][-1]
    wrong = Corpus([doc for doc in corpus.docs if doc is not dropped], scans=True)
    for statement in (inputs.tenant_recent(tenant), inputs.tenant_count(tenant)):
        assert wrong.check(statement, db.execute_sql(statement.sql)) is not None
    # A float sum off by more than the tolerance is caught too.
    shifted = [dict(doc, amount=doc["amount"] + 0.01) if doc is dropped else doc
               for doc in corpus.docs]
    statement = inputs.tenant_status(tenant)
    assert Corpus(shifted).check(statement, db.execute_sql(statement.sql)) is not None


def test_quoted_int_tenant_literal_fails_the_check(loaded):
    db, corpus = loaded
    tenant = hottest(corpus)
    for right in (inputs.tenant_recent(tenant), inputs.tenant_count(tenant)):
        quoted = replace(
            right,
            sql=right.sql.replace(f"tenant_id = {tenant}", f"tenant_id = '{tenant}'"),
        )
        assert quoted.sql != right.sql
        assert corpus.check(quoted, db.execute_sql(quoted.sql)) is not None


def test_visible_window_bounds():
    docs = inputs.DocumentFactory(1).stream(6, 0.0, 1.0)
    for doc in docs:
        doc["tenant_id"] = 5
    window = VisibleWindow(docs[:3])
    window.acknowledge(docs[3])
    window.acknowledge(docs[4])
    snapshot = window.snapshot(5)
    assert snapshot == (3, 5)

    class Result:
        def __init__(self, rows):
            self.rows = tuple(rows)

    count = inputs.tenant_count(5)
    recent = inputs.tenant_recent(5, k=2)
    assert window.check(count, Result([{"c": 4}]), snapshot) is None
    assert window.check(count, Result([{"c": 2}]), snapshot) is not None
    assert window.check(count, Result([{"c": 6}]), snapshot) is not None
    # Newest refreshed rows, or newer unrefreshed ones, are both allowed.
    newest_refreshed = [dict(docs[2]), dict(docs[1])]
    assert window.check(recent, Result(newest_refreshed), snapshot) is None
    assert window.check(recent, Result([dict(docs[4]), dict(docs[3])]), snapshot) is None
    # Skipping a refreshed row, returning an unwritten one, or a wrong order fail.
    assert window.check(recent, Result([dict(docs[2]), dict(docs[0])]), snapshot)
    assert window.check(recent, Result([dict(docs[5]), dict(docs[4])]), snapshot)
    assert window.check(recent, Result(newest_refreshed[::-1]), snapshot)


def test_tail_percentile_needs_ten_samples_beyond():
    assert ruler.samples_needed(95) == 200
    assert ruler.samples_needed(99) == 1000
    assert ruler.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    with pytest.raises(RuntimeError):
        measure.percentile([0.001] * 150, 95)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a traced run takes seconds."""
    for name, value in {
        "PRELOAD_DOCS": 1_200,
        "INGEST_DOCS": 3_000,
        "MIXED_DOCS": 2_000,
        "CORPUS_DOCS": 2_000,
        "TRACE_STATEMENTS": 300,
        "STATEMENTS_PER_SECOND": 100,
        "NUM_TENANTS": 300,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(inputs, "NUM_TENANTS", 300)
    monkeypatch.setattr(
        measure, "OUT_DIR", Path(__file__).resolve().parent.parent / ".perfbench_out"
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_runs_repeat_every_count(small, name):
    first, metrics, _ = measure.execute(name, 11, 0.01, trace=True)
    again, repeat, _ = measure.execute(name, 11, 0.01, trace=True)
    assert not first.mismatches and not again.mismatches
    assert set(metrics) == set(tracer.LAYER_METRICS)
    counts = [key for key, unit in tracer.LAYER_METRICS.items()
              if unit not in tracer.TIME_UNITS]
    assert {k: metrics[k]["value"] for k in counts} == {
        k: repeat[k]["value"] for k in counts
    }
    assert metrics["failed_ops_frac"]["value"] == 0

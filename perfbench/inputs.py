"""Seeded input generation for the benchmark workloads.

Everything the program under test sees is made here, from the run's seed,
before any timer starts: transaction-log documents (the paper's §6.1
template) and SQL text. The generator is the benchmark's own code, so a
change to ``repro.workload`` cannot change what the benchmark feeds in.

Tenant ids are the Zipf ranks themselves (rank 1 is the hottest seller) and
the flash tenant has a fixed id, so the same tenants are hot under every
seed; a seed only changes which documents and statements are drawn.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

NUM_TENANTS = 10_000
THETA = 1.0
#: A mid-popularity seller that becomes the Single's-Day flash tenant.
FLASH_TENANT = 777
FLASH_SHARE = 0.30
#: Logical documents per second of ``created_time``: near the measured
#: single-process write throughput, so the once-per-logical-second work
#: (time-series sampling, balancer windows, explicit refreshes) fires about
#: once per wall-clock second, as it would in production.
LOGICAL_RATE = 4000.0
SUB_ATTRIBUTES = 1500
SUB_ATTRIBUTES_PER_ROW = 20

TABLE = "transaction_logs"
TITLE_WORDS = (
    "red blue black cotton silk leather wireless portable vintage classic "
    "mini pro max shirt dress phone case lamp chair book mug watch bag shoe "
    "jacket toy kit set premium eco handmade"
).split()


class Zipf:
    """Ranks 1..n drawn with weight ``(1/k)^theta`` by inverse CDF."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        weights = [k ** -theta for k in range(1, n + 1)]
        total = sum(weights)
        self._cumulative = list(itertools.accumulate(w / total for w in weights))
        self._cumulative[-1] = 1.0
        self._rng = rng

    def sample(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random()) + 1


class DocumentFactory:
    """Transaction-log documents with unique ids and creation times."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.tenants = Zipf(NUM_TENANTS, THETA, random.Random(seed + 1))
        self._subattrs = Zipf(SUB_ATTRIBUTES, 1.0, random.Random(seed + 2))
        self._next_id = 1

    def make(self, created_time: float, tenant_id: int | None = None) -> dict:
        rng = self._rng
        if tenant_id is None:
            tenant_id = self.tenants.sample()
        names = sorted(
            {self._subattrs.sample() for _ in range(SUB_ATTRIBUTES_PER_ROW)}
        )
        doc = {
            "transaction_id": self._next_id,
            "tenant_id": tenant_id,
            "created_time": created_time,
            "status": rng.randrange(4),
            "group": rng.randint(1, 1000),
            "buyer_id": rng.randint(1, 10_000_000),
            "amount": round(rng.uniform(1.0, 5000.0), 2),
            "quantity": rng.randint(1, 10),
            "auction_title": " ".join(rng.choices(TITLE_WORDS, k=4)),
            "buyer_nickname": f"buyer_{rng.randint(1, 99999)}",
            "seller_nickname": f"seller_{tenant_id}",
            "attributes": ";".join(
                f"attr_{name:04d}:v{rng.randrange(10)}" for name in names
            ),
        }
        self._next_id += 1
        return doc

    def stream(
        self,
        count: int,
        start_time: float,
        rate: float,
        flash_from: int | None = None,
    ) -> list[dict]:
        """*count* documents spaced ``1/rate`` logical seconds apart from
        *start_time*. From position *flash_from* on, each document belongs
        to the flash tenant with probability :data:`FLASH_SHARE`."""
        docs = []
        for i in range(count):
            tenant = None
            if flash_from is not None and i >= flash_from:
                if self._rng.random() < FLASH_SHARE:
                    tenant = FLASH_TENANT
            docs.append(self.make(start_time + i / rate, tenant))
        return docs


# -- SQL -----------------------------------------------------------------------
@dataclass(frozen=True)
class Statement:
    """One SQL text plus the parameters the reference model answers it from.

    ``shape`` names the question: ``recent`` (a tenant's newest *k* rows),
    ``status`` (a tenant's count and amount sum per status), ``count`` (a
    tenant's row count), or one of :data:`SCAN_TEMPLATES`.
    """

    sql: str
    shape: str
    params: tuple

    @property
    def tenant_scoped(self) -> bool:
        return self.shape in ("recent", "status", "count")


def tenant_recent(tenant: int, k: int = 10) -> Statement:
    # Tenant ids are ints: a quoted literal would match no row at all.
    return Statement(
        f"SELECT * FROM {TABLE} WHERE tenant_id = {tenant} "
        f"ORDER BY created_time DESC LIMIT {k}",
        "recent",
        (tenant, k),
    )


def tenant_status(tenant: int) -> Statement:
    return Statement(
        f"SELECT status, COUNT(*), SUM(amount) FROM {TABLE} "
        f"WHERE tenant_id = {tenant} GROUP BY status",
        "status",
        (tenant,),
    )


def tenant_count(tenant: int) -> Statement:
    return Statement(
        f"SELECT COUNT(*) FROM {TABLE} WHERE tenant_id = {tenant}", "count", (tenant,)
    )


SCAN_TEMPLATES = ("range_scan", "group_by", "attr", "match")


class ScanStatements:
    """Cross-tenant statements with fresh parameters: every text is new
    within a run, so no cache level can answer one from an earlier one."""

    def __init__(self, seed: int, span: float) -> None:
        """*span*: the logical seconds the corpus covers, for time bounds."""
        self.span = span
        self._rng = random.Random(seed + 3)
        self._attrs = Zipf(40, 1.0, random.Random(seed + 4))
        self._seen: set[str] = set()

    def _amount_range(self, width: float) -> tuple[float, float]:
        low = round(self._rng.uniform(1.0, 5000.0 - width), 2)
        return low, round(low + width, 2)

    def make(self, template: str) -> Statement:
        for _ in range(1000):
            statement = self._draw(template)
            if statement.sql not in self._seen:
                self._seen.add(statement.sql)
                return statement
        raise RuntimeError(f"{template!r} ran out of fresh parameters")

    def _draw(self, template: str) -> Statement:
        rng = self._rng
        if template == "range_scan":
            quantity = rng.randint(1, 10)
            low, high = self._amount_range(400.0)
            sql = (
                f"SELECT COUNT(*) FROM {TABLE} WHERE quantity = {quantity} "
                f"AND amount BETWEEN {low} AND {high}"
            )
            return Statement(sql, template, (quantity, low, high))
        if template == "group_by":
            low, high = self._amount_range(50.0)
            sql = (
                f"SELECT status, COUNT(*), AVG(amount) FROM {TABLE} "
                f"WHERE amount BETWEEN {low} AND {high} GROUP BY status"
            )
            return Statement(sql, template, (low, high))
        if template == "attr":
            name = f"attr_{self._attrs.sample():04d}"
            value = f"v{rng.randrange(10)}"
            status = rng.randrange(4)
            before = round(rng.uniform(0.5, self.span), 3)
            sql = (
                f"SELECT * FROM {TABLE} WHERE ATTR({name}) = '{value}' "
                f"AND status = {status} AND created_time <= {before} "
                f"ORDER BY created_time DESC LIMIT 10"
            )
            return Statement(sql, template, (name, value, status, before, 10))
        if template == "match":
            word = rng.choice(TITLE_WORDS)
            low, high = self._amount_range(250.0)
            sql = (
                f"SELECT COUNT(*), SUM(amount) FROM {TABLE} "
                f"WHERE MATCH(auction_title, '{word}') AND amount BETWEEN {low} AND {high}"
            )
            return Statement(sql, template, (word, low, high))
        raise ValueError(f"unknown scan template {template!r}")

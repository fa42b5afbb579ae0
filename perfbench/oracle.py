"""The correctness oracle: a reference model built from the benchmark's own
generated documents, and the checks every answer must pass.

Two kinds of reference:

* :class:`Corpus` answers a statement exactly, for a frozen set of
  acknowledged documents (the read-only workload, and the read-your-writes
  sweep after a write workload's final refresh).
* :class:`VisibleWindow` bounds an answer while writes are still arriving:
  a write is searchable only after a refresh, so a tenant read may see
  anything between "acknowledged before the last explicit refresh" and
  "acknowledged so far".

Every check returns ``None`` when the answer is right and a one-line
description of the mismatch otherwise.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

#: Relative tolerance for float SUM/AVG: the program may add in another order.
FLOAT_RTOL = 1e-9


def _close(actual, expected) -> bool:
    if expected is None or actual is None:
        return actual is expected
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=1e-9)
    return actual == expected


def _ids(rows) -> list:
    return [row.get("transaction_id") for row in rows]


def _values(row) -> list:
    return list(row.values())


class Corpus:
    """Exact answers over a fixed list of documents."""

    def __init__(self, docs: list[dict], scans: bool = False) -> None:
        """*scans* builds the column arrays and term lists that cross-tenant
        statements need; tenant-scoped checks never use them."""
        self.docs = docs
        self.by_id = {doc["transaction_id"]: doc for doc in docs}
        self.by_tenant: dict[int, list[dict]] = defaultdict(list)
        for doc in docs:
            self.by_tenant[doc["tenant_id"]].append(doc)
        self._columns: dict = {}
        if scans:
            columns = {
                "amount": np.array([d["amount"] for d in docs], dtype=np.float64),
                "quantity": np.array([d["quantity"] for d in docs], dtype=np.int64),
                "status": np.array([d["status"] for d in docs], dtype=np.int64),
                "created": np.array([d["created_time"] for d in docs], dtype=np.float64),
                "words": defaultdict(list),
                "attrs": defaultdict(list),
            }
            for position, doc in enumerate(docs):
                for word in set(doc["auction_title"].split()):
                    columns["words"][word].append(position)
                for fragment in doc["attributes"].split(";"):
                    key, _, value = fragment.partition(":")
                    columns["attrs"][(key, value)].append(position)
            self._columns = columns

    def _column(self, name: str):
        if not self._columns:
            raise ValueError("cross-tenant statements need Corpus(..., scans=True)")
        return self._columns[name]

    def _mask(self, rows: list[int]) -> np.ndarray:
        mask = np.zeros(len(self.docs), dtype=bool)
        mask[rows] = True
        return mask

    def _amount_between(self, low: float, high: float) -> np.ndarray:
        return (self._column("amount") >= low) & (self._column("amount") <= high)

    def _newest(self, mask: np.ndarray, k: int) -> list:
        positions = np.flatnonzero(mask)
        order = np.argsort(-self._column("created")[positions], kind="stable")[:k]
        return [self.docs[p]["transaction_id"] for p in positions[order]]

    def expected(self, statement):
        """The exact answer: a list of transaction ids for row-returning
        statements, a list of row value-lists for aggregates."""
        shape, params = statement.shape, statement.params
        if shape == "recent":
            tenant, k = params
            docs = sorted(
                self.by_tenant.get(tenant, ()),
                key=lambda d: d["created_time"],
                reverse=True,
            )
            return [doc["transaction_id"] for doc in docs[:k]]
        if shape == "status":
            groups: dict[int, list] = {}
            for doc in self.by_tenant.get(params[0], ()):
                group = groups.setdefault(doc["status"], [0, 0.0])
                group[0] += 1
                group[1] += doc["amount"]
            return [[s, c, total] for s, (c, total) in sorted(groups.items())]
        if shape == "count":
            return [[len(self.by_tenant.get(params[0], ()))]]
        if shape == "range_scan":
            quantity, low, high = params
            mask = (self._column("quantity") == quantity) & self._amount_between(low, high)
            return [[int(mask.sum())]]
        if shape == "group_by":
            mask = self._amount_between(*params)
            amount, statuses = self._column("amount"), self._column("status")
            rows = []
            for status in range(4):
                selected = amount[mask & (statuses == status)]
                if len(selected):
                    rows.append([status, len(selected), float(selected.mean())])
            return rows
        if shape == "attr":
            name, value, status, before, k = params
            mask = self._mask(self._column("attrs").get((name, value), []))
            mask &= (self._column("status") == status) & (self._column("created") <= before)
            return self._newest(mask, k)
        if shape == "match":
            word, low, high = params
            mask = self._mask(self._column("words").get(word, [])) & self._amount_between(
                low, high
            )
            count = int(mask.sum())
            return [[count, float(self._column("amount")[mask].sum()) if count else None]]
        raise ValueError(f"no reference for shape {shape!r}")

    def check(self, statement, result) -> str | None:
        """Compare one query result with the exact reference answer."""
        expected = self.expected(statement)
        rows = list(result.rows)
        if statement.shape in ("recent", "attr"):
            return check_rows(rows, expected, self.by_id, statement)
        if len(rows) != len(expected):
            return (
                f"{statement.sql!r}: {len(rows)} rows, expected {len(expected)}"
            )
        for row, want in zip(rows, expected):
            got = _values(row)
            if len(got) != len(want) or not all(map(_close, got, want)):
                return f"{statement.sql!r}: row {got}, expected {want}"
        return None


def check_rows(rows: list, expected_ids: list, by_id: dict, statement) -> str | None:
    """Row-returning statements: the exact ids in order, each row equal to
    the document that was written."""
    got = _ids(rows)
    if got != expected_ids:
        return f"{statement.sql!r}: ids {got[:12]}, expected {expected_ids[:12]}"
    for row in rows:
        if dict(row) != by_id[row["transaction_id"]]:
            return f"{statement.sql!r}: row {row['transaction_id']} differs from the written document"
    return None


class VisibleWindow:
    """Bounds on what a tenant read may return while writes arrive.

    :meth:`acknowledge` records each acknowledged write in order;
    :meth:`refreshed` marks an explicit refresh, after which every write
    acknowledged so far must be visible. A read takes a :meth:`snapshot`
    of its tenant when it is issued and is checked against it later: each
    tenant's write list only grows, so the snapshot's two lengths name the
    "must be visible" and "may be visible" prefixes.
    """

    def __init__(self, docs: list[dict] = ()) -> None:
        self.by_id: dict = {}
        self._position: dict = {}
        self._written: dict[int, list[dict]] = defaultdict(list)
        self._visible_floor: dict[int, int] = {}
        for doc in docs:
            self.acknowledge(doc)
        self.refreshed()

    def acknowledge(self, doc: dict) -> None:
        """Record an acknowledged write; writes arrive in creation order."""
        written = self._written[doc["tenant_id"]]
        self._position[doc["transaction_id"]] = len(written)
        self.by_id[doc["transaction_id"]] = doc
        written.append(doc)

    def refreshed(self) -> None:
        self._visible_floor = {t: len(docs) for t, docs in self._written.items()}

    def snapshot(self, tenant: int) -> tuple[int, int]:
        return self._visible_floor.get(tenant, 0), len(self._written.get(tenant, ()))

    def check(self, statement, result, snapshot: tuple[int, int]) -> str | None:
        tenant = statement.params[0]
        floor, written_so_far = snapshot
        written = self._written.get(tenant, [])
        rows = list(result.rows)
        if statement.shape == "count":
            if len(rows) != 1 or len(rows[0]) != 1:
                return f"{statement.sql!r}: expected one COUNT row, got {rows!r}"
            count = _values(rows[0])[0]
            if not floor <= count <= written_so_far:
                return (
                    f"{statement.sql!r}: count {count} outside "
                    f"[{floor}, {written_so_far}]"
                )
            return None
        if statement.shape != "recent":
            raise ValueError(f"no bounded check for shape {statement.shape!r}")
        k = statement.params[1]
        if len(rows) > k:
            return f"{statement.sql!r}: {len(rows)} rows for LIMIT {k}"
        times = []
        for row in rows:
            row_id = row.get("transaction_id")
            doc = self.by_id.get(row_id)
            if (
                doc is None
                or doc["tenant_id"] != tenant
                or self._position[row_id] >= written_so_far
                or dict(row) != doc
            ):
                return (
                    f"{statement.sql!r}: row {row_id} was not written for "
                    f"tenant {tenant} before the read"
                )
            times.append(row["created_time"])
        if times != sorted(times, reverse=True):
            return f"{statement.sql!r}: rows not in created_time DESC order"
        # Written before the last refresh => must be visible: none of those
        # newer than the oldest returned row (or any at all, when fewer than
        # LIMIT rows came back) may be missing. They are the newest part of
        # the refreshed prefix, so walk it from its end.
        returned = {row["transaction_id"] for row in rows}
        cutoff = times[-1] if len(rows) == k else -math.inf
        for position in range(floor - 1, -1, -1):
            doc = written[position]
            if doc["created_time"] <= cutoff:
                break
            if doc["transaction_id"] not in returned:
                return (
                    f"{statement.sql!r}: refreshed row {doc['transaction_id']} "
                    "missing from the result"
                )
        return None

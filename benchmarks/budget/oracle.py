"""Ops of the budget benchmark and their numpy oracle.

An :class:`Op` is one timed unit of work: one statement, or — for the
``dashboard`` class — one page of four statements issued back to back.
:func:`expected` answers a statement from the generated numpy columns
(never from a second ``repro`` engine) and :func:`rows_match` compares
an engine's rows to it, order-insensitively, floats to 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from datagen import Table

CLASSES = ("point", "filter_agg", "projection", "dashboard")
#: A class median is only reported from this many samples.
MIN_CLASS_SAMPLES = 36

#: The dashboard page: three GROUP BYs and one global aggregate the
#: engine can derive from the first (an MV partial hit once warm).
DASHBOARD_TILES = (
    "SELECT region, COUNT(*), SUM(amount) FROM t GROUP BY region",
    "SELECT cat, COUNT(*), SUM(amount), AVG(price) FROM t GROUP BY cat",
    "SELECT region, cat, SUM(qty), COUNT(*) FROM t GROUP BY region, cat",
    "SELECT COUNT(*), SUM(amount) FROM t",
)

FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One op: its class and the constants of its statement(s)."""

    kind: str
    params: tuple = ()

    def statements(self) -> tuple[str, ...]:
        if self.kind == "point":
            key = self.params[0]
            return (f"SELECT id, amount, note FROM t WHERE id = {key}",)
        if self.kind == "filter_agg":
            x, c = self.params
            return (
                "SELECT SUM(amount), COUNT(*), AVG(price) FROM t "
                f"WHERE amount < {x} AND cat >= {c}",
            )
        if self.kind == "projection":
            return (
                "SELECT id, region, amount, qty, price, a6 FROM t "
                f"WHERE a7 < {self.params[0]}",
            )
        return DASHBOARD_TILES


def make_ops(
    seed: int, count: int, n_rows: int, shares: tuple[int, int, int, int]
) -> list[Op]:
    """``count`` ops whose classes follow ``shares`` (per 20 ops).

    The class pattern is fixed and interleaved, so every prefix of the
    list has the same mix; only the constants come from ``seed``.
    ``filter_agg`` draws its ``(x, c)`` pair from 400 000 without
    replacement, so one signature never repeats within a list, while
    the pair's selectivity stays between a quarter and a half of the
    rows (the class's cost follows its selectivity).  Point keys stay
    below ``n_rows`` — the rows on disk when the list starts.
    """
    if sum(shares) != 20:
        raise ValueError("class shares are given per 20 ops")
    pattern = _interleave(shares)
    rng = np.random.default_rng([seed, 7919])
    n_filter = -(-count * shares[1] // 20) + 1
    pairs = rng.choice(400_000, size=n_filter, replace=False).tolist()
    ops = []
    for i in range(count):
        kind = CLASSES[pattern[i % 20]]
        if kind == "point":
            params = (int(rng.integers(0, n_rows)),)
        elif kind == "filter_agg":
            pair = pairs.pop()
            params = (40_000 + pair // 20, 20 + pair % 20)
        elif kind == "projection":
            params = (int(rng.integers(20_000, 60_000)),)
        else:
            params = ()
        ops.append(Op(kind, params))
    return ops


def _interleave(shares: tuple[int, ...]) -> list[int]:
    """Class indices for 20 slots, each class spread evenly."""
    slots = []
    for cls, share in enumerate(shares):
        slots.extend(((k + 0.5) / share, cls) for k in range(share))
    return [cls for _, cls in sorted(slots)]


# ----------------------------------------------------------------------
# Expected answers.
# ----------------------------------------------------------------------


def expected(op: Op, table: Table) -> list[list[tuple]]:
    """Expected rows of every statement of ``op`` over ``table``."""
    if op.kind == "point":
        k = op.params[0]
        return [
            [
                (
                    k,
                    int(table.column("amount")[k]),
                    table.column("note")[k],
                )
            ]
        ]
    if op.kind == "filter_agg":
        x, c = op.params
        mask = (table.column("amount") < x) & (table.column("cat") >= c)
        count = int(mask.sum())
        if count == 0:
            return [[(None, 0, None)]]
        total = int(table.column("amount")[mask].sum())
        avg = float(table.column("price")[mask].sum()) / count
        return [[(total, count, avg)]]
    if op.kind == "projection":
        idx = np.flatnonzero(table.column("a7") < op.params[0])
        names = ("id", "region", "amount", "qty", "price", "a6")
        return [
            list(zip(*(table.column(n)[idx].tolist() for n in names)))
        ]
    # The page has no constants: its answer only changes with the
    # file, and grouping 80 000 rows costs more than a warm page.
    key = ("dashboard", table.n)
    if key not in table.memo:
        table.memo = {key: _dashboard(table)}
    return table.memo[key]


def _dashboard(table: Table) -> list[list[tuple]]:
    region = table.column("region")
    region_names, region_code = np.unique(region, return_inverse=True)
    cat = table.column("cat")
    amount = table.column("amount")
    qty = table.column("qty")
    price = table.column("price")

    r_count = np.bincount(region_code)
    r_amount = np.bincount(region_code, weights=amount)
    tile1 = [
        (str(name), int(r_count[i]), int(r_amount[i]))
        for i, name in enumerate(region_names)
        if r_count[i]
    ]
    c_count = np.bincount(cat, minlength=100)
    c_amount = np.bincount(cat, weights=amount, minlength=100)
    c_price = np.bincount(cat, weights=price, minlength=100)
    tile2 = [
        (c, int(c_count[c]), int(c_amount[c]), c_price[c] / c_count[c])
        for c in range(100)
        if c_count[c]
    ]
    key = region_code * 100 + cat
    size = len(region_names) * 100
    k_count = np.bincount(key, minlength=size)
    k_qty = np.bincount(key, weights=qty, minlength=size)
    tile3 = [
        (str(region_names[k // 100]), k % 100, int(k_qty[k]), int(k_count[k]))
        for k in np.flatnonzero(k_count).tolist()
    ]
    tile4 = [(int(table.n), int(amount.sum()))]
    return [tile1, tile2, tile3, tile4]


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    """Same multiset of rows; floats compared to 1e-9 relative."""
    if len(got) != len(want):
        return False
    got = sorted(got, key=_sort_key)
    want = sorted(want, key=_sort_key)
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if isinstance(w, float) and isinstance(g, (int, float)):
                if not math.isclose(g, w, rel_tol=FLOAT_RTOL, abs_tol=0.0):
                    return False
            elif g != w:
                return False
    return True


def _sort_key(row: tuple) -> tuple:
    # Floats only ever trail the (unique) key columns, so rounding them
    # for ordering cannot reorder rows that should pair up.
    return tuple(
        (v is None, round(v, 6) if isinstance(v, float) else v) for v in row
    )

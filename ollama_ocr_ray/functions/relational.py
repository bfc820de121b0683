"""Relational operators over the TPC-H-ish tables: grouped aggregation
with partial pre-aggregation, broadcast join, top-k, windowed aggregate.

Float-sum determinism: monetary doubles are scaled to exact integers
(``floor(x*100 + 0.5)``) before summing, so the engine's partial-sum
order and DuckDB's sequential order produce bit-identical results; the
final divide back to doubles is a single identical operation on both
sides.  The SQL oracles mirror the same scaling expressions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _cents(col) -> pa.Array:
    """floor(x*100 + 0.5) as int64 — exactly mirrors the SQL oracle."""
    x = col.to_numpy(zero_copy_only=False)
    return pa.array(np.floor(x * 100.0 + 0.5).astype(np.int64))


def pricing_summary(lineitem):
    """TPC-H Q1-shaped pricing summary.

    Partial aggregation per batch (6 groups max per partial) → tiny
    groupby exchange → finalize.  Never shuffles raw lineitem rows.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": batch.column("l_quantity").cast(pa.int64()),
                "base_cents": pa.array(
                    np.floor(ep * 100.0 + 0.5).astype(np.int64)
                ),
                "disc_dm": pa.array(
                    np.floor(ep * (1.0 - disc) * 10000.0 + 0.5).astype(np.int64)
                ),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_cents", "sum"), ("disc_dm", "sum"),
             ("one", "sum")]
        )

    partials = lineitem.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty_sum", alias_name="sum_qty"),
        Sum("base_cents_sum", alias_name="base_cents"),
        Sum("disc_dm_sum", alias_name="disc_dm"),
        Sum("one_sum", alias_name="count_order"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        sum_qty = batch.column("sum_qty").to_numpy(zero_copy_only=False)
        cents = batch.column("base_cents").to_numpy(zero_copy_only=False)
        dm = batch.column("disc_dm").to_numpy(zero_copy_only=False)
        n = batch.column("count_order").to_numpy(zero_copy_only=False)
        sum_base = cents / 100.0
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pa.array(sum_qty, type=pa.int64()),
                "sum_base_price": pa.array(sum_base),
                "sum_disc_price": pa.array(dm / 10000.0),
                "avg_qty": pa.array(sum_qty / n),
                "avg_price": pa.array(sum_base / n),
                "count_order": pa.array(n, type=pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def top_docs_by_len(docs, k: int = 100):
    """Top-k documents by n_chars (desc), doc_id tie-break — a
    distributed sort + limit (Ray samples a boundary partitioning, only
    the head partitions materialize under the limit)."""
    return docs.sort(
        ["n_chars", "doc_id"], descending=[True, False]
    ).limit(k).select_columns(["doc_id", "n_chars"])


# events_hourly's driver bound on its boundary markers (2 per sorted
# block): its distinct-user correction is not a per-key fold, so it is
# the one boundary fold outside ``folds.exact_segment_fold``.
SESSION_OPEN_CAP = 4_000_000


def events_hourly(events, *, sort_partitions: int | None = None,
                  fan_in: int = 64):
    """Tumbling 1-hour windows per event_type: row count, distinct
    users, exact sum(value) via 1e6 scaling.

    Exact under block splits WITHOUT a hot-path ``groupby`` (ADVICE r3
    medium + measured: Ray's aggregate operator costs ~5-7 s at ~100k
    groups where a plain sort costs ~1 s, BASELINE.md r4).  Plan:

    1. per-batch pre-aggregate to (type, window, user) partials;
    2. ONE sort on the FULL triple — every (type, window, user) group
       is globally contiguous, so a split can only put a group at
       block EDGES;
    3. vectorized block fold: per (type, window) segment sums + a
       distinct-user transition count, PLUS two marker rows per block
       (the first and last rows' triples).  A group spanning k blocks
       appears exactly k times among markers, an unsplit one at most
       once — so per window ``overcount = markers - distinct marker
       users``, computed on the driver from a 2-rows-per-block bounded
       set (capped at ``SESSION_OPEN_CAP`` with a loud error);
    4. repartition tree-reduce merges the per-block window partials
       (sums are mergeable; the transition total minus overcount is
       the exact distinct-user count) — the CLAUDE.md-sanctioned
       fallback for low-cardinality keys, never a sorted-block
       assumption.  The final task holds at most fan_in x windows
       rows.

    The scale path for distinct users stays the HLL partial
    (``sketches.approx_users``); exact is the oracle-checkable variant.
    """
    fold_schema = pa.schema(
        [("event_type", pa.string()), ("window_start", pa.int64()),
         ("user_id", pa.int64()), ("n_events", pa.int64()),
         ("micro", pa.int64()), ("n_users", pa.int64()),
         ("__kind", pa.int8())]
    )
    out_schema = pa.schema(
        [("event_type", pa.string()), ("window_start", pa.timestamp("us")),
         ("n_events", pa.int64()), ("n_users", pa.int64()),
         ("sum_value", pa.float64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        win = pc.floor_temporal(batch.column("ts"), unit="hour").cast(pa.int64())
        v = batch.column("value").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_start": win,
                "user_id": batch.column("user_id"),
                "value_micro": pa.array(
                    np.floor(v * 1e6 + 0.5).astype(np.int64)
                ),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by(["event_type", "window_start", "user_id"]).aggregate(
            [("value_micro", "sum"), ("one", "sum")]
        )

    def fold_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return fold_schema.empty_table()
        batch = batch.combine_chunks()
        idx = pc.sort_indices(
            batch,
            sort_keys=[("event_type", "ascending"),
                       ("window_start", "ascending"),
                       ("user_id", "ascending")],
        )
        batch = batch.take(idx).combine_chunks()
        # dictionary codes so segment detection compares ints, not strings
        et_codes = (
            batch.column("event_type").chunk(0).dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
        )
        win = np.asarray(batch.column("window_start"))
        uid = np.asarray(batch.column("user_id"))
        micro = np.asarray(batch.column("value_micro_sum"))
        cnt = np.asarray(batch.column("one_sum"))
        from .dedup import _segment_bounds

        starts, _ = _segment_bounds(et_codes, win)
        new_user = np.ones(len(uid), dtype=np.int64)
        new_user[1:] = (
            (et_codes[1:] != et_codes[:-1])
            | (win[1:] != win[:-1])
            | (uid[1:] != uid[:-1])
        ).astype(np.int64)
        n = len(uid)
        # markers: the first and last rows' (type, window, user) triples
        # (deduped when the block is one group) — the bounded side data
        # the driver needs to correct boundary-split double counting
        marker_idx = [0] if n == 1 or (
            et_codes[0] == et_codes[-1] and win[0] == win[-1]
            and uid[0] == uid[-1]
        ) else [0, n - 1]
        mi = pa.array(marker_idx, type=pa.int64())
        zeros = np.zeros(len(marker_idx), dtype=np.int64)
        agg = pa.table(
            {
                "event_type": batch.column("event_type").take(pa.array(starts)),
                "window_start": pa.array(win[starts], type=pa.int64()),
                "user_id": pa.nulls(len(starts), type=pa.int64()),
                "n_events": pa.array(np.add.reduceat(cnt, starts),
                                     type=pa.int64()),
                "micro": pa.array(np.add.reduceat(micro, starts),
                                  type=pa.int64()),
                "n_users": pa.array(np.add.reduceat(new_user, starts),
                                    type=pa.int64()),
                "__kind": pa.array(
                    np.zeros(len(starts), dtype=np.int8)
                ),
            }
        ).cast(fold_schema)
        markers = pa.table(
            {
                "event_type": batch.column("event_type").take(mi),
                "window_start": pa.array(win[marker_idx], type=pa.int64()),
                "user_id": pa.array(uid[marker_idx], type=pa.int64()),
                "n_events": pa.array(zeros),
                "micro": pa.array(zeros),
                "n_users": pa.array(zeros),
                "__kind": pa.array(np.ones(len(marker_idx), dtype=np.int8)),
            }
        ).cast(fold_schema)
        return pa.concat_tables([agg, markers])

    rows = events.map_batches(partial, batch_format="pyarrow")
    if sort_partitions:
        # coalesce immediately before the sort (the CLAUDE.md-measured
        # exception: the sort is a barrier anyway, and every sorted
        # block costs one driver dispatch in each downstream pass) —
        # callers set this when the partial output is known-small
        rows = rows.repartition(sort_partitions)
    folded = (
        rows.sort(["event_type", "window_start", "user_id"])
        .map_batches(fold_block, batch_size=None, batch_format="pyarrow",
                     zero_copy_batch=True)
        .materialize()
    )

    def keep(kind: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_columns == 0 or batch.num_rows == 0:
                return fold_schema.empty_table()
            batch = batch.combine_chunks()
            return batch.filter(pc.equal(batch.column("__kind"), kind))
        return fn

    marker_rows = folded.map_batches(
        keep(1), batch_format="pyarrow", zero_copy_batch=True
    ).limit(SESSION_OPEN_CAP + 1).take_all()
    if len(marker_rows) > SESSION_OPEN_CAP:
        raise RuntimeError(
            "events_hourly: boundary-marker set exceeds the driver cap "
            f"({SESSION_OPEN_CAP} rows = 2 per sorted block); raise "
            "target_max_block_size or use sketches.approx_users"
        )
    # per window: overcount = marker rows - distinct marker triples
    seen: dict = {}
    counts: dict = {}
    for r in marker_rows:
        w = (r["event_type"], r["window_start"])
        counts[w] = counts.get(w, 0) + 1
        seen.setdefault(w, set()).add(r["user_id"])
    overcount = {w: counts[w] - len(seen[w]) for w in counts
                 if counts[w] > len(seen[w])}

    def local_sum(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return fold_schema.empty_table()
        batch = batch.combine_chunks()
        t = batch.select(["event_type", "window_start", "n_events",
                          "micro", "n_users"])
        g = t.group_by(["event_type", "window_start"]).aggregate(
            [("n_events", "sum"), ("micro", "sum"), ("n_users", "sum")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "window_start": g.column("window_start"),
                "user_id": pa.nulls(g.num_rows, type=pa.int64()),
                "n_events": g.column("n_events_sum"),
                "micro": g.column("micro_sum"),
                "n_users": g.column("n_users_sum"),
                "__kind": pa.array(np.zeros(g.num_rows, dtype=np.int8)),
            }
        ).cast(fold_schema)

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return out_schema.empty_table()
        merged = local_sum(batch).combine_chunks()
        et = merged.column("event_type").to_pylist()
        win = merged.column("window_start").to_numpy(zero_copy_only=False)
        users = merged.column("n_users").to_numpy(
            zero_copy_only=False
        ).copy()
        if overcount:
            corr = np.array(
                [overcount.get((e, int(w)), 0) for e, w in zip(et, win)],
                dtype=np.int64,
            )
            users -= corr
        return pa.table(
            {
                "event_type": merged.column("event_type"),
                "window_start": merged.column("window_start")
                .cast(pa.timestamp("us")),
                "n_events": merged.column("n_events"),
                "n_users": pa.array(users, type=pa.int64()),
                "sum_value": pa.array(
                    merged.column("micro").to_numpy(zero_copy_only=False)
                    / 1e6,
                    type=pa.float64(),
                ),
            }
        ).cast(out_schema)

    # repartition tree-reduce over the per-block window partials (the
    # low-cardinality-key fallback; the final task sees <= fan_in x
    # windows pre-merged rows).  The mid level only pays for itself
    # when there are more folded blocks than fan_in.
    agg = folded.map_batches(keep(0), batch_format="pyarrow",
                             zero_copy_batch=True)
    if folded.num_blocks() > fan_in:
        agg = agg.repartition(fan_in).map_batches(
            local_sum, batch_size=None, batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return agg.repartition(1).map_batches(
        finalize, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )


def order_priority_counts(orders, date_lo: str, date_hi: str):
    """Order counts by priority within a date window — predicate
    pushdown + tiny groupby (TPC-H Q4-shaped, minus the exists)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        d = batch.column("o_orderdate")
        keep = pc.and_(
            pc.greater_equal(d, pa.scalar(np.datetime64(date_lo, "us"))),
            pc.less(d, pa.scalar(np.datetime64(date_hi, "us"))),
        )
        t = batch.filter(keep)
        out = pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "one": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )
        return out.group_by("o_orderpriority").aggregate([("one", "sum")])

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("one_sum", alias_name="order_count"))
    )


def top_suppliers(lineitem, supplier_names: dict, k: int = 10):
    """Revenue per supplier (partial pre-agg inside map_batches) →
    broadcast name join → global top-k.  The shuffle carries one row
    per (batch, suppkey) partial, never raw lineitem."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_suppkey": batch.column("l_suppkey"),
                "rev_dm": pa.array(
                    np.floor(ep * (1.0 - disc) * 10000.0 + 0.5).astype(np.int64)
                ),
            }
        )
        return t.group_by("l_suppkey").aggregate([("rev_dm", "sum")])

    agg = (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("rev_dm_sum", alias_name="rev_dm"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        keys = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        names = pa.array(
            [supplier_names.get(int(s), "UNKNOWN") for s in keys],
            type=pa.string(),
        )
        return pa.table(
            {
                "l_suppkey": batch.column("l_suppkey"),
                "s_name": names,
                "revenue": pa.array(
                    batch.column("rev_dm").to_numpy(zero_copy_only=False)
                    / 10000.0
                ),
            }
        )

    return (
        agg.map_batches(finalize, batch_format="pyarrow")
        .sort(["revenue", "l_suppkey"], descending=[True, False])
        .limit(k)
    )


def nation_customer_rollup(customer, nation_names: dict, region_of: dict):
    """Customers per nation with region name and exact acctbal total —
    a two-level broadcast join (nation+region are tiny dimension tables:
    lookup dicts shipped once, no shuffle join, SURVEY.md §2.7)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        t = pa.table(
            {
                "c_nationkey": batch.column("c_nationkey").cast(pa.int32()),
                "bal_cents": _cents(batch.column("c_acctbal")),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("c_nationkey").aggregate(
            [("bal_cents", "sum"), ("one", "sum")]
        )

    agg = (
        customer.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(
            Sum("bal_cents_sum", alias_name="cents"),
            Sum("one_sum", alias_name="n_customers"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        keys = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": pa.array(
                    [nation_names.get(int(x), "UNKNOWN") for x in keys]
                ),
                "r_name": pa.array(
                    [region_of.get(int(x), "UNKNOWN") for x in keys]
                ),
                "n_customers": batch.column("n_customers").cast(pa.int64()),
                "total_acctbal": pa.array(
                    batch.column("cents").to_numpy(zero_copy_only=False) / 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def asof_last_order(events, orders_by_cust: dict):
    """As-of join: each event → the most recent order date of the same
    customer at or before the event timestamp (NULL when none).

    Ray Data has no as-of join primitive; this is the broadcast
    composition from SURVEY.md §2.7: the small side (per-customer sorted
    order-date arrays) ships to every task once, each batch does
    vectorized binary searches.  Partitioning assumption: the orders
    side fits in a broadcast object (per-key arrays); a large right side
    would switch to a hash-partitioned merge with the same per-key
    searchsorted body inside ``groupby(user).map_groups``.
    """

    def lookup(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        users = batch.column("user_id").to_numpy(zero_copy_only=False)
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = np.empty(len(users), dtype=np.int64)
        valid = np.zeros(len(users), dtype=bool)
        for i, (u, t) in enumerate(zip(users, ts)):
            dates = orders_by_cust.get(int(u))
            if dates is None:
                continue
            j = np.searchsorted(dates, t, side="right") - 1
            if j >= 0:
                out[i] = dates[j]
                valid[i] = True
        dates_arr = pa.array(
            np.where(valid, out, 0), type=pa.int64(), mask=~valid
        ).cast(pa.timestamp("us"))
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "last_order_date": dates_arr,
            }
        )

    return events.map_batches(lookup, batch_format="pyarrow")


def asof_last_order_partitioned(events, orders):
    """Co-partitioned as-of join (VERDICT r1 #3): the orders side is a
    FACT table, so instead of materializing it driver-side (as the
    broadcast ``asof_last_order`` above does, kept as the small-side
    reference), both sides union into keyed rows and ONE sort exchange
    co-locates each customer's orders with their events.  The per-block
    merge is a vectorized grouped forward-fill: after a block-local
    (key, ts, side) sort, ``maximum.accumulate`` over order-row
    positions gives every event its latest at-or-before order in O(n),
    no per-key Python loop.  Orders sort before events at equal ts, so
    a same-instant order counts (at-or-before semantics, ties with the
    DuckDB oracle's ``o_orderdate <= ts``).

    Exact under hot-key block splits: the fill runs through
    ``folds.exact_segment_fold`` keyed on the customer, so a customer
    whose keyed rows split across sorted blocks (the first or last key
    of each block holding them) is filled once over all its rows.

    Reference behavior generalized: the reference has no joins at all;
    this is the training-data-pipeline operator suite (SURVEY §2.8).
    """
    keyed_schema = pa.schema(
        [("k", pa.int64()), ("side", pa.int8()), ("ts", pa.int64()),
         ("event_id", pa.int64())]
    )

    def order_rows(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        n = len(batch)
        return pa.table(
            {
                "k": batch.column("o_custkey").cast(pa.int64()),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "ts": batch.column("o_orderdate").cast(pa.int64()),
                "event_id": pa.nulls(n, type=pa.int64()),
            }
        ).cast(keyed_schema)

    def event_rows(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        n = len(batch)
        return pa.table(
            {
                "k": batch.column("user_id").cast(pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int8)),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
            }
        ).cast(keyed_schema)

    keyed = orders.map_batches(
        order_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        events.map_batches(
            event_rows, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    out_schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()),
         ("last_order_date", pa.timestamp("us"))]
    )

    def asof_fill(batch: pa.Table) -> pa.Table:
        """Vectorized grouped forward-fill over keyed rows: the per-key
        fold."""
        if batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        idx = pc.sort_indices(
            batch,
            sort_keys=[("k", "ascending"), ("ts", "ascending"),
                       ("side", "ascending")],
        )
        batch = batch.take(idx).combine_chunks()
        k = np.asarray(batch.column("k"))
        side = np.asarray(batch.column("side"))
        ts = np.asarray(batch.column("ts"))
        n = len(k)
        # grouped forward-fill: position of the latest order row at or
        # before each row; valid only when it belongs to the same key
        pos = np.where(side == 0, np.arange(n), -1)
        last_pos = np.maximum.accumulate(pos)
        evt = side == 1
        lp = last_pos[evt]
        found = lp >= 0
        same = np.zeros(len(lp), dtype=bool)
        same[found] = k[evt][found] == k[lp[found]]
        dates = np.where(same, ts[np.maximum(lp, 0)], 0)
        return pa.table(
            {
                "event_id": batch.column("event_id").filter(pa.array(evt)),
                "user_id": pa.array(k[evt]),
                "last_order_date": pa.array(
                    dates, type=pa.int64(), mask=~same
                ).cast(pa.timestamp("us")),
            }
        ).cast(out_schema)

    from .folds import exact_segment_fold

    return exact_segment_fold(
        keyed.sort("k"), key_cols=["k"], fold=asof_fill,
        raw_schema=keyed_schema, out_schema=out_schema,
    )


def build_orders_by_cust(orders_table: pa.Table) -> dict:
    """Driver-side small-side build for asof_last_order: custkey →
    ascending int64(us) order-date array (ray.put once on real
    clusters)."""
    cust = orders_table.column("o_custkey").to_numpy(zero_copy_only=False)
    dates = (
        orders_table.column("o_orderdate")
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )
    order = np.lexsort((dates, cust))
    cust, dates = cust[order], dates[order]
    out: dict = {}
    starts = np.flatnonzero(np.concatenate([[True], cust[1:] != cust[:-1]]))
    bounds = np.concatenate([starts, [len(cust)]])
    for i in range(len(starts)):
        out[int(cust[starts[i]])] = dates[bounds[i]:bounds[i + 1]].copy()
    return out


# ``sessionize``'s session rows: int64 timestamps + exact micro sums so
# the merge stays integer-exact; ``chain`` is the boundary fold key.
_SESSION_SCHEMA = pa.schema(
    [("user_id", pa.int64()), ("start_us", pa.int64()),
     ("end_us", pa.int64()), ("n_events", pa.int64()),
     ("micro", pa.int64()), ("chain", pa.int64())]
)


def sessionize(events, gap_minutes: int = 30):
    """Gap-based sessionization per user: a session breaks when the
    inter-event gap exceeds ``gap_minutes``.  Output: one row per
    session.

    Exact under block splits (ADVICE r3 medium).  Session windows form
    a merging semilattice: sessionizing any time-contiguous pieces of a
    user's events, then gap-merging the resulting intervals, yields the
    same sessions as one global pass.  Plan: ONE sort on (user_id, ts)
    makes every block a globally-ordered run; a vectorized block pass
    emits locally-maximal sessions, and ``folds.exact_segment_fold``
    gap-merges them (``_merge_open_sessions``).  Only a block's FIRST
    and LAST session can merge with a neighbouring block (interior
    sessions are separated by a super-gap on both sides within the
    block), so the fold key is (user_id, chain): chain is -1 for those
    two sessions and the session's own start otherwise.  A user whose
    run splits blocks ships at most 2 sessions per block to the
    boundary fold, and re-merging a complete session changes nothing.
    """
    from .folds import exact_segment_fold

    gap_us = gap_minutes * 60 * 1_000_000
    out_schema = pa.schema(
        [("user_id", pa.int64()), ("session_start", pa.timestamp("us")),
         ("session_end", pa.timestamp("us")), ("n_events", pa.int64()),
         ("sum_value", pa.float64())]
    )

    def project(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "ts": batch.column("ts").cast(pa.int64()),
                "value_micro": pa.array(
                    np.floor(v * 1e6 + 0.5).astype(np.int64)
                ),
            }
        )

    def sessions_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return _SESSION_SCHEMA.empty_table()
        batch = batch.combine_chunks()
        idx = pc.sort_indices(
            batch, sort_keys=[("user_id", "ascending"), ("ts", "ascending")]
        )
        batch = batch.take(idx).combine_chunks()
        k = np.asarray(batch.column("user_id"))
        ts = np.asarray(batch.column("ts"))
        micro = np.asarray(batch.column("value_micro"))
        n = len(k)
        brk = np.ones(n, dtype=bool)
        brk[1:] = (k[1:] != k[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
        starts = np.flatnonzero(brk)
        ends = np.concatenate([starts[1:], [n]])
        chain = ts[starts]
        chain[[0, -1]] = -1
        return pa.table(
            {
                "user_id": pa.array(k[starts], type=pa.int64()),
                "start_us": pa.array(ts[starts], type=pa.int64()),
                "end_us": pa.array(ts[ends - 1], type=pa.int64()),
                "n_events": pa.array(ends - starts, type=pa.int64()),
                "micro": pa.array(np.add.reduceat(micro, starts),
                                  type=pa.int64()),
                "chain": pa.array(chain, type=pa.int64()),
            }
        ).cast(_SESSION_SCHEMA)

    def merge_to_output(sessions: pa.Table) -> pa.Table:
        merged = _merge_open_sessions(sessions, gap_us)
        return pa.table(
            {
                "user_id": merged.column("user_id"),
                "session_start": merged.column("start_us").cast(
                    pa.timestamp("us")),
                "session_end": merged.column("end_us").cast(
                    pa.timestamp("us")),
                "n_events": merged.column("n_events"),
                "sum_value": pa.array(
                    merged.column("micro").to_numpy(zero_copy_only=False)
                    / 1e6, type=pa.float64(),
                ),
            }
        ).cast(out_schema)

    sessions = (
        events.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True)
        .sort(["user_id", "ts"])
        .map_batches(sessions_block, batch_size=None, batch_format="pyarrow",
                     zero_copy_batch=True)
    )
    return exact_segment_fold(
        sessions, key_cols=["user_id", "chain"], fold=merge_to_output,
        raw_schema=_SESSION_SCHEMA, out_schema=out_schema,
    )


def _merge_open_sessions(sessions: pa.Table, gap_us: int) -> pa.Table:
    """Gap-merge session intervals in one vectorized pass: rows in the
    ``sessionize`` session schema, the same rows merged out.  Intervals
    of one user are disjoint and, once sorted by start, adjacent ones
    merge iff the gap is within threshold — interval merging is
    associative, so this closes every cross-block chain regardless of
    how many blocks a user spanned."""
    if sessions.num_rows == 0:
        return _SESSION_SCHEMA.empty_table()
    user, start, end, n_ev, micro = (
        sessions.column(c).to_numpy(zero_copy_only=False)
        for c in ("user_id", "start_us", "end_us", "n_events", "micro")
    )
    order = np.lexsort((start, user))
    user, start, end = user[order], start[order], end[order]
    n_ev, micro = n_ev[order], micro[order]
    brk = np.ones(len(user), dtype=bool)
    brk[1:] = (user[1:] != user[:-1]) | ((start[1:] - end[:-1]) > gap_us)
    s = np.flatnonzero(brk)
    e = np.concatenate([s[1:], [len(user)]])
    return pa.table(
        {
            "user_id": pa.array(user[s], type=pa.int64()),
            "start_us": pa.array(start[s], type=pa.int64()),
            "end_us": pa.array(end[e - 1], type=pa.int64()),
            "n_events": pa.array(np.add.reduceat(n_ev, s), type=pa.int64()),
            "micro": pa.array(np.add.reduceat(micro, s), type=pa.int64()),
            "chain": pa.array(start[s], type=pa.int64()),
        }
    ).cast(_SESSION_SCHEMA)


PRICE_BANDS = [
    ("budget", 0.0, 925.0),
    ("mid", 925.0, 950.0),
    ("premium", 950.0, 975.0),
    ("luxury", 975.0, 1e18),
]


def band_join_parts(part):
    """Range (band) join: each part row joins the price band whose
    [lo, hi) interval contains p_retailprice.  Ray Data has no range-join
    primitive; the small side is a sorted boundary array broadcast to
    every task and the probe is one vectorized ``searchsorted`` per
    batch (SURVEY §2.7 pattern) — no shuffle.  Output: parts per band +
    exact price total."""
    from ray.data.aggregate import Sum

    bounds = np.array([b[1] for b in PRICE_BANDS], dtype=np.float64)
    names = np.array([b[0] for b in PRICE_BANDS], dtype=object)

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        price = batch.column("p_retailprice").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(bounds, price, side="right") - 1
        idx = np.clip(idx, 0, len(names) - 1)
        t = pa.table(
            {
                "band": pa.array(names[idx], type=pa.string()),
                "cents": _cents(batch.column("p_retailprice")),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("band").aggregate([("cents", "sum"), ("one", "sum")])

    agg = (
        part.map_batches(partial, batch_format="pyarrow")
        .groupby("band")
        .aggregate(
            Sum("cents_sum", alias_name="cents"),
            Sum("one_sum", alias_name="n_parts"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table(
            {
                "band": batch.column("band"),
                "n_parts": batch.column("n_parts").cast(pa.int64()),
                "total_price": pa.array(
                    batch.column("cents").to_numpy(zero_copy_only=False)
                    / 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def events_sliding(events, window_minutes: int = 60, slide_minutes: int = 15):
    """Sliding (hopping) windows per event_type: each event lands in
    ``window/slide`` overlapping windows.  The window keys are emitted
    vectorized (np.repeat over the batch — a flat-map, no Python row
    loop), then one groupby exchange aggregates; the multiplication by
    window/slide happens AFTER per-batch pre-aggregation would be
    pointless (keys differ), but the emitted rows are (type, window,
    micro)-partials, never full event payloads."""
    from ray.data.aggregate import Sum

    k = window_minutes // slide_minutes
    slide_us = slide_minutes * 60 * 1_000_000
    win_us = window_minutes * 60 * 1_000_000

    def expand(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        micro = np.floor(v * 1e6 + 0.5).astype(np.int64)
        # the last window containing ts starts at floor(ts/slide)*slide;
        # the k windows [start - i*slide, +win) for i in 0..k-1 contain it
        last_start = (ts // slide_us) * slide_us
        starts = last_start[:, None] - np.arange(k, dtype=np.int64)[None, :] * slide_us
        keep = (ts[:, None] >= starts) & (ts[:, None] < starts + win_us)
        n_rep = keep.sum(axis=1)
        parent = np.repeat(np.arange(len(ts)), n_rep)
        win = starts[keep]
        t = pa.table(
            {
                "event_type": batch.column("event_type").take(pa.array(parent)),
                "window_start": pa.array(win, type=pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "micro": pa.array(micro[parent]),
                "one": pa.array(np.ones(len(parent), dtype=np.int64)),
            }
        )
        return t.group_by(["event_type", "window_start"]).aggregate(
            [("micro", "sum"), ("one", "sum")]
        )

    agg = (
        events.map_batches(expand, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("micro_sum", alias_name="micro"),
            Sum("one_sum", alias_name="n_events"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_start": batch.column("window_start"),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "sum_value": pa.array(
                    batch.column("micro").to_numpy(zero_copy_only=False) / 1e6
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def segment_revenue_join(orders, customer):
    """Per-market-segment order totals with NO driver-side customer
    state (VERDICT r3 #1: customer is fact-proportional — TPC-H 150k
    rows x SF — so a driver-side broadcast dict stops scaling at 100
    TB).  Plan: per-batch pre-aggregate orders to (custkey, cents, n)
    partials, co-partition them with customer's (custkey, segment) via
    ``hash_join`` (one sort exchange over partial rows + two key
    columns), then a tiny per-segment groupby.  Inner-join semantics
    match the SQL oracle."""
    from ray.data.aggregate import Sum

    def order_partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        t = pa.table(
            {
                "c_custkey": batch.column("o_custkey").cast(pa.int64()),
                "cents": _cents(batch.column("o_totalprice")),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("c_custkey").aggregate(
            [("cents", "sum"), ("one", "sum")]
        )

    partials = orders.map_batches(order_partial, batch_format="pyarrow")
    joined = hash_join(
        partials, customer, key="c_custkey",
        left_cols=["cents_sum", "one_sum"], right_cols=["c_mktsegment"],
    )

    def seg_partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.schema(
                [("c_mktsegment", pa.string()), ("cents_sum_sum", pa.int64()),
                 ("one_sum_sum", pa.int64())]
            ).empty_table()
        batch = batch.combine_chunks()
        t = batch.select(["c_mktsegment", "cents_sum", "one_sum"])
        out = t.group_by("c_mktsegment").aggregate(
            [("cents_sum", "sum"), ("one_sum", "sum")]
        )
        return out.select(["c_mktsegment", "cents_sum_sum", "one_sum_sum"])

    agg = (
        joined.map_batches(seg_partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("cents_sum_sum", alias_name="cents"),
            Sum("one_sum_sum", alias_name="n_orders"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "n_orders": batch.column("n_orders").cast(pa.int64()),
                "total_revenue": pa.array(
                    batch.column("cents").to_numpy(zero_copy_only=False)
                    / 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def top_orders_per_segment_join(orders, customer, n: int = 3):
    """Grouped top-N per market segment with NO driver-side customer
    dict (VERDICT r3 #1): co-partition orders' (custkey, orderkey,
    cents) projection with customer via ``hash_join``, then per-batch
    partial top-N per segment so the second exchange carries
    N x segments x blocks rows into the final 5-group sort."""

    def project(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table(
            {
                "c_custkey": batch.column("o_custkey").cast(pa.int64()),
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "cents": _cents(batch.column("o_totalprice")),
            }
        )

    joined = hash_join(
        orders.map_batches(project, batch_format="pyarrow"), customer,
        key="c_custkey", left_cols=["o_orderkey", "cents"],
        right_cols=["c_mktsegment"],
    )

    partial_schema = pa.schema(
        [("c_mktsegment", pa.string()), ("o_orderkey", pa.int64()),
         ("cents", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return partial_schema.empty_table()
        batch = batch.combine_chunks()
        seg = batch.column("c_mktsegment").to_numpy(zero_copy_only=False)
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        out_s, out_k, out_c = [], [], []
        for s in np.unique(seg):
            m = seg == s
            order = np.lexsort((keys[m], -cents[m]))[:n]
            out_s.extend([s] * len(order))
            out_k.extend(keys[m][order].tolist())
            out_c.extend(cents[m][order].tolist())
        return pa.table(
            {
                "c_mktsegment": pa.array(out_s, type=pa.string()),
                "o_orderkey": pa.array(out_k, type=pa.int64()),
                "cents": pa.array(out_c, type=pa.int64()),
            }
        ).cast(partial_schema)

    partials = joined.map_batches(partial, batch_format="pyarrow")

    def final_group(group: pa.Table) -> pa.Table:
        group = group.combine_chunks()
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        keys = group.column("o_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, -cents))[:n]
        return pa.table(
            {
                "c_mktsegment": group.column("c_mktsegment").take(
                    pa.array(order)
                ),
                "rank": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int64)
                ),
                "o_orderkey": pa.array(keys[order], type=pa.int64()),
                "o_totalprice": pa.array(cents[order] / 100.0),
            }
        )

    return partials.groupby("c_mktsegment").map_groups(
        final_group, batch_format="pyarrow"
    )


# --- general large-x-large equi-join ----------------------------------------


def probe_hot_keys(ds, key: str, *, min_rows: int, m: int = 8,
                   cap: int = 1024) -> set:
    """Bounded skew probe: per-block top-``m`` key counts, merged, keys
    whose summed LOWER BOUND exceeds ``min_rows``.  A key hot in truth
    but below every block's top-m can be missed — acceptable by
    design: the probe gates a PERFORMANCE optimization (salting), and
    correctness never depends on it.  Exchange is m x blocks rows;
    the qualifying set is driver-bounded by ``cap`` with a loud error
    (more than ``cap`` keys above ``min_rows`` means the job should
    raise ``min_rows``, not silently salt thousands of keys)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.combine_chunks().select([key])
        counted = t.group_by(key).aggregate([([], "count_all")])
        cnt = counted.column("count_all").to_numpy(zero_copy_only=False)
        if len(cnt) > m:
            keep = np.argpartition(cnt, len(cnt) - m)[len(cnt) - m:]
            counted = counted.take(pa.array(np.sort(keep)))
        return pa.table({"__k": counted.column(key),
                         "cnt": counted.column("count_all").cast(pa.int64())})

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__k").aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(
            lambda b: b.filter(pc.greater(b.column("cnt"), min_rows))
            if b.num_rows else b,
            batch_format="pyarrow")
        .limit(cap + 1).take_all()
    )
    if len(rows) > cap:
        raise RuntimeError(
            f"probe_hot_keys: more than {cap} keys exceed "
            f"min_rows={min_rows}; raise min_rows"
        )
    return {r["__k"] for r in rows}


def hash_join(left, right, *, key: str, left_cols: list[str],
              right_cols: list[str], salt_hot: int = 0,
              hot_min_rows: int = 250_000):
    """Inner equi-join of two LARGE Datasets by co-partitioning: tag
    both sides into one aligned schema, ONE sort exchange on the key,
    then a vectorized per-block merge (cross product inside each key
    segment).  This is the fact-x-fact join primitive the broadcast
    joins (``top_suppliers``) cannot cover — at
    100 TB neither side fits a driver dict.

    Partitioning (round-4 hardening): the merge runs through
    ``folds.exact_segment_fold`` — interior key segments fold per
    block, and a key whose sorted run splits across blocks (one key's
    rows exceeding ``DataContext.target_max_block_size``) routes
    wholly to the residual, which since r5 re-folds DISTRIBUTED
    (hash-partitioned by key) with no cap — so the join is EXACT at
    any skew.  Output guarantee downstream folds may rely on (default
    path only): every key's joined rows live entirely in ONE output
    block (``top_unshipped_orders`` uses this).

    Skew (r5 VERDICT #5): a hot key still SERIALIZES into a single
    merge task and its cross product is quadratic.  ``salt_hot=S``
    turns on degree-adaptive salting (the ``graph.py`` PageRank move,
    generalized): a bounded pre-pass (``probe_hot_keys``) finds keys
    with more than ``hot_min_rows`` LEFT rows; their left rows spread
    over S salt buckets while their RIGHT rows replicate into every
    bucket, so the hot merge parallelizes S-ways and the output
    multiset is exactly the union of per-salt cross products.  Cost:
    one extra bounded scan of the left side + S x right-hot-rows
    replication — use it when the hot key's right side is small (the
    fact-x-dim skew shape); NOTE salting forfeits the one-block-per-
    key output guarantee for the salted keys (each salt group is its
    own segment), so callers relying on per-key locality must keep
    ``salt_hot=0``.  Non-hot keys are byte-identical to the default
    plan either way.  Each side's payload crosses the wire exactly once.
    """
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    ltypes = {f.name: f.type for f in lschema}
    rtypes = {f.name: f.type for f in rschema}
    key_type = ltypes[key]

    hot: set = set()
    nsalt = max(1, int(salt_hot))
    if nsalt > 127:
        # __s is int8; a wrapped salt would silently DUPLICATE hot
        # join rows (right replicas colliding onto reused buckets)
        raise ValueError(
            f"hash_join: salt_hot={salt_hot} exceeds 127; more salts "
            "than that buys nothing over the distributed residual"
        )
    if nsalt > 1:
        hot = probe_hot_keys(left.select_columns([key]), key,
                             min_rows=hot_min_rows)
        if not hot:
            nsalt = 1
    hot_arr = pa.array(sorted(hot), type=key_type) if hot else None

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.combine_chunks()
            n = batch.num_rows
            k = batch.column(key).cast(key_type)
            if nsalt > 1:
                is_hot = pc.is_in(k, value_set=hot_arr).to_numpy(
                    zero_copy_only=False)
            if side == 0:
                # left: spread a hot key's rows across the salt
                # buckets.  Any assignment yields the same output
                # multiset (each left row meets the full replicated
                # right set exactly once), so a cheap block-local
                # round-robin is enough.
                salt = np.zeros(n, dtype=np.int8)
                if nsalt > 1 and is_hot.any():
                    nh = int(is_hot.sum())
                    salt[is_hot] = (np.arange(nh) % nsalt).astype(np.int8)
                cols = {
                    "__k": k,
                    "__s": pa.array(salt),
                    "__side": pa.array(np.full(n, 0, dtype=np.int8)),
                }
                for c in left_cols:
                    cols[c] = batch.column(c)
                for c in right_cols:
                    cols[c] = pa.nulls(n, type=rtypes[c])
                return pa.table(cols)
            # right: replicate hot-key rows into every salt bucket
            salt = np.zeros(n, dtype=np.int8)
            take = None
            if nsalt > 1 and is_hot.any():
                idx = np.arange(n, dtype=np.int64)
                hot_idx = idx[is_hot]
                take = np.concatenate([idx[~is_hot],
                                       np.repeat(hot_idx, nsalt)])
                salt = np.concatenate([
                    np.zeros(n - len(hot_idx), dtype=np.int8),
                    np.tile(np.arange(nsalt, dtype=np.int8),
                            len(hot_idx)),
                ])
            sel = (batch.take(pa.array(take)) if take is not None
                   else batch)
            m = sel.num_rows
            cols = {
                "__k": sel.column(key).cast(key_type),
                "__s": pa.array(salt[:m]),
                "__side": pa.array(np.full(m, 1, dtype=np.int8)),
            }
            for c in left_cols:
                cols[c] = pa.nulls(m, type=ltypes[c])
            for c in right_cols:
                cols[c] = sel.column(c)
            return pa.table(cols)
        return fn

    tagged = left.select_columns([key] + left_cols).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([key] + right_cols).map_batches(
            tag(1), batch_format="pyarrow"
        )
    )

    out_fields = [(key, key_type)] + \
        [(c, ltypes[c]) for c in left_cols] + \
        [(c, rtypes[c]) for c in right_cols]
    out_schema = pa.schema(out_fields)

    def merge_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        from .dedup import _segment_bounds

        starts, ends = _segment_bounds(batch.column("__k"),
                                       batch.column("__s"))
        side = batch.column("__side").to_numpy(zero_copy_only=False)
        l_take, r_take = [], []
        for s, e in zip(starts, ends):
            seg_side = side[s:e]
            li = np.nonzero(seg_side == 0)[0] + s
            ri = np.nonzero(seg_side == 1)[0] + s
            if not len(li) or not len(ri):
                continue  # inner semantics
            l_take.append(np.repeat(li, len(ri)))
            r_take.append(np.tile(ri, len(li)))
        if not l_take:
            return out_schema.empty_table()
        l_idx = pa.array(np.concatenate(l_take), type=pa.int64())
        r_idx = pa.array(np.concatenate(r_take), type=pa.int64())
        cols = {key: batch.column("__k").take(l_idx)}
        for c in left_cols:
            cols[c] = batch.column(c).take(l_idx)
        for c in right_cols:
            cols[c] = batch.column(c).take(r_idx)
        return pa.table(cols).cast(out_schema)

    from .folds import exact_segment_fold

    tagged_schema = pa.schema(
        [("__k", key_type), ("__s", pa.int8()), ("__side", pa.int8())]
        + [(c, ltypes[c]) for c in left_cols]
        + [(c, rtypes[c]) for c in right_cols]
    )
    return exact_segment_fold(
        tagged.sort(["__k", "__s"]),
        key_cols=["__k", "__s"], fold=merge_block,
        raw_schema=tagged_schema, out_schema=out_schema,
    )


def anti_join(left, right, *, key: str, left_cols: list[str]):
    """LEFT-ANTI equi-join by co-partitioning: left rows whose key has
    NO match on the right.  Same single-sort plan and partitioning
    assumption as ``hash_join``; the right side contributes only its
    key column to the exchange, so a billion-row blocklist costs one
    int column of traffic.  This is the apply step of every dedup /
    blocklist pipeline (strip cluster non-representatives, remove
    known-bad doc_ids) — the complement ``hash_join`` can't express.
    """
    lschema = left.schema().base_schema
    ltypes = {f.name: f.type for f in lschema}
    key_type = ltypes[key]

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.combine_chunks()
            n = batch.num_rows
            cols = {
                "__k": batch.column(key).cast(key_type),
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in left_cols:
                cols[c] = (batch.column(c) if side == 0
                           else pa.nulls(n, type=ltypes[c]))
            return pa.table(cols)
        return fn

    tagged = left.select_columns([key] + left_cols).map_batches(
        tag(0), batch_format="pyarrow"
    ).union(
        right.select_columns([key]).map_batches(
            tag(1), batch_format="pyarrow"
        )
    )

    out_schema = pa.schema(
        [(key, key_type)] + [(c, ltypes[c]) for c in left_cols]
    )

    def merge_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        from .dedup import _segment_bounds

        starts, _ = _segment_bounds(batch.column("__k"))
        side = batch.column("__side").to_numpy(zero_copy_only=False)
        seg_of_row = np.searchsorted(
            starts, np.arange(len(side)), side="right"
        ) - 1
        seg_has_right = np.zeros(len(starts), dtype=np.int8)
        np.maximum.at(seg_has_right, seg_of_row, side)
        keep = (side == 0) & (seg_has_right[seg_of_row] == 0)
        idx = pa.array(np.nonzero(keep)[0], type=pa.int64())
        cols = {key: batch.column("__k").take(idx)}
        for c in left_cols:
            cols[c] = batch.column(c).take(idx)
        return pa.table(cols).cast(out_schema)

    from .folds import exact_segment_fold

    tagged_schema = pa.schema(
        [("__k", key_type), ("__side", pa.int8())]
        + [(c, ltypes[c]) for c in left_cols]
    )
    return exact_segment_fold(
        tagged.sort("__k"),
        key_cols=["__k"], fold=merge_block,
        raw_schema=tagged_schema, out_schema=out_schema,
    )


def top_unshipped_orders(orders, lineitem, seg_custkeys, pivot_date: str,
                         k: int = 10):
    """TPC-H Q3 shape: revenue of not-yet-shipped lineitems for orders
    placed before ``pivot_date`` by customers of one market segment.

    Plan: lineitem pre-aggregates revenue per orderkey inside
    ``map_batches`` (the skew-robust move: one row per (batch,
    orderkey) enters the join, so a 10k-line order cannot serialize a
    merge task); orders filter by date + broadcast segment-membership
    (``seg_custkeys`` ships once per task); the two REDUCED sides meet
    in ``hash_join``; the join's sort already co-locates equal
    orderkeys, so the revenue fold is local per block (no second
    exchange) and per-block top-k bounds the final sort's input.
    Revenue in integer cents, floor(x*100+0.5) per item, matching the
    SQL oracle exactly.
    """
    pivot = np.datetime64(pivot_date, "us")
    keyarr = np.unique(np.asarray(list(seg_custkeys), dtype=np.int64))

    def orders_filter(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        keep = pc.less(batch.column("o_orderdate"), pa.scalar(pivot))
        t = batch.filter(keep)
        ck = t.column("o_custkey").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(ck, keyarr)))
        return t.select(["o_orderkey", "o_orderdate", "o_orderpriority"])

    def lineitem_partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        keep = pc.greater(batch.column("l_shipdate"), pa.scalar(pivot))
        t = batch.filter(keep)
        ep = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        part = pa.table(
            {
                "o_orderkey": t.column("l_orderkey"),
                "rev_cents": pa.array(
                    np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )
        agg = part.group_by("o_orderkey").aggregate([("rev_cents", "sum")])
        return agg.select(["o_orderkey", "rev_cents_sum"]).rename_columns(
            ["o_orderkey", "rev_cents"]
        )

    of = orders.map_batches(orders_filter, batch_format="pyarrow")
    lf = lineitem.map_batches(lineitem_partial, batch_format="pyarrow")
    joined = hash_join(
        of, lf, key="o_orderkey",
        left_cols=["o_orderdate", "o_orderpriority"], right_cols=["rev_cents"],
    )

    def agg_topk_block(batch: pa.Table) -> pa.Table:
        """hash_join's sort co-locates equal orderkeys in one block, so
        the revenue fold is LOCAL-exact — no second groupby exchange —
        and the block's top-k bounds the final sort's input to
        k x blocks rows."""
        if batch.num_columns == 0:
            return pa.schema(
                [("o_orderkey", pa.int64()),
                 ("o_orderdate", pa.timestamp("us")),
                 ("o_orderpriority", pa.string()),
                 ("revenue_cents", pa.int64())]
            ).empty_table()
        batch = batch.combine_chunks()
        agg = batch.group_by(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).aggregate([("rev_cents", "sum")]).rename_columns(
            ["o_orderkey", "o_orderdate", "o_orderpriority", "revenue_cents"]
        ).combine_chunks()
        rev = agg.column("revenue_cents").to_numpy(zero_copy_only=False)
        keys = agg.column("o_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, -rev))[:k]
        return agg.take(pa.array(order, type=pa.int64()))

    return (
        joined.map_batches(agg_topk_block, batch_size=None,
                           batch_format="pyarrow", zero_copy_batch=True)
        .sort(["revenue_cents", "o_orderkey"], descending=[True, False])
        .limit(k)
    )

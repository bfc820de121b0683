"""Tests for the second-wave operator suite: multimodal stub stages,
as-of join, sessionization, n-gram-Jaccard dedup, IVF ANN, quality
scoring, and the new relational rollups."""

import numpy as np
import pyarrow as pa
import pytest

from ollama_ocr_ray.functions import dedup, relational, similarity
from ollama_ocr_ray.functions.text import quality_score_batch
from ollama_ocr_ray.stages.media import (
    FEATURE_DIM,
    FeatureExtractor,
    media_feature_pipeline,
    synth_media_table,
)


def _collect(ds):
    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables)


# --- media stages -----------------------------------------------------------


def test_synth_media_deterministic():
    a = synth_media_table(["m1", "m2"])
    b = synth_media_table(["m1", "m2"])
    assert a.equals(b)
    assert a.column("payload")[0].as_py() != a.column("payload")[1].as_py()


def test_feature_extractor_shape_and_determinism():
    t = synth_media_table(["a", "b"])
    f1 = FeatureExtractor()(t)
    f2 = FeatureExtractor()(t)
    v1 = f1.column("feature")[0].as_py()
    assert len(v1) == FEATURE_DIM
    assert f1.equals(f2)
    # unit-normalized
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-5


def test_media_pipeline_actor_pool(ray_session):
    import ray.data as rd

    media = rd.from_arrow(synth_media_table([f"m{i}" for i in range(100)]))
    out = _collect(media_feature_pipeline(media, batch_size=16,
                                          concurrency=(1, 2)))
    assert out.num_rows == 100
    # distributed result equals the single-process stage output
    local = FeatureExtractor()(synth_media_table([f"m{i}" for i in range(100)]))
    got = dict(zip(out.column("media_ref").to_pylist(),
                   [tuple(v) for v in out.column("feature").to_pylist()]))
    want = dict(zip(local.column("media_ref").to_pylist(),
                    [tuple(v) for v in local.column("feature").to_pylist()]))
    assert got == want


# --- as-of join -------------------------------------------------------------


def test_asof_last_order(ray_session):
    import ray.data as rd

    def us(day):  # day number → timestamp[us] int
        return np.datetime64(f"2024-01-{day:02d}", "us")

    orders = pa.table(
        {
            "o_custkey": pa.array([1, 1, 2], type=pa.int64()),
            "o_orderdate": pa.array([us(5), us(10), us(7)]),
        }
    )
    by_cust = relational.build_orders_by_cust(orders)
    events = pa.table(
        {
            "event_id": pa.array([100, 101, 102, 103], type=pa.int64()),
            "user_id": pa.array([1, 1, 2, 3], type=pa.int64()),
            "ts": pa.array([us(4), us(12), us(7), us(9)]),
        }
    )
    out = _collect(
        relational.asof_last_order(rd.from_arrow(events), by_cust)
    ).to_pylist()
    by_event = {r["event_id"]: r["last_order_date"] for r in out}
    assert by_event[100] is None          # before any order
    assert str(by_event[101]).startswith("2024-01-10")  # latest ≤ ts
    assert str(by_event[102]).startswith("2024-01-07")  # same-day inclusive
    assert by_event[103] is None          # unknown customer


# --- sessionize -------------------------------------------------------------


def test_sessionize_gap_splits(ray_session):
    import ray.data as rd

    base = np.datetime64("2024-03-01T00:00:00", "us")
    mins = [0, 10, 20, 120, 125, 300]  # sessions: [0,10,20], [120,125], [300]
    events = pa.table(
        {
            "user_id": pa.array([7] * len(mins), type=pa.int64()),
            "ts": pa.array([base + np.timedelta64(m, "m") for m in mins]),
            "value": pa.array([1.0] * len(mins)),
        }
    )
    out = _collect(relational.sessionize(rd.from_arrow(events), gap_minutes=30))
    rows = sorted(out.to_pylist(), key=lambda r: r["session_start"])
    assert [r["n_events"] for r in rows] == [3, 2, 1]
    assert rows[0]["sum_value"] == 3.0

    # empty input: no sessions, and still the five output columns
    empty = relational.sessionize(rd.from_arrow(events.slice(0, 0)))
    assert empty.count() == 0
    assert empty.schema().names == ["user_id", "session_start",
                                    "session_end", "n_events", "sum_value"]


def test_merge_open_sessions_chain():
    # a user whose locally-maximal sessions span THREE consecutive
    # blocks must collapse to one session; a super-gap user stays split
    gap_us = 30 * 60 * 1_000_000
    m = 60 * 1_000_000  # one minute in us
    rows = pa.Table.from_pylist([
        {"user_id": 1, "start_us": 0, "end_us": 10 * m,
         "n_events": 2, "micro": 2_000_000, "chain": -1},
        {"user_id": 1, "start_us": 20 * m, "end_us": 40 * m,
         "n_events": 3, "micro": 3_000_000, "chain": -1},
        {"user_id": 1, "start_us": 60 * m, "end_us": 65 * m,
         "n_events": 1, "micro": 1_000_000, "chain": -1},
        {"user_id": 2, "start_us": 0, "end_us": 5 * m,
         "n_events": 1, "micro": 500_000, "chain": -1},
        {"user_id": 2, "start_us": 100 * m, "end_us": 105 * m,
         "n_events": 1, "micro": 500_000, "chain": -1},
    ], schema=relational._SESSION_SCHEMA)
    out = relational._merge_open_sessions(rows, gap_us).to_pylist()
    u1 = [r for r in out if r["user_id"] == 1]
    assert len(u1) == 1
    assert u1[0]["start_us"] == 0 and u1[0]["end_us"] == 65 * m
    assert u1[0]["n_events"] == 6 and u1[0]["micro"] == 6_000_000
    assert len([r for r in out if r["user_id"] == 2]) == 2
    assert relational._merge_open_sessions(rows.slice(0, 0),
                                           gap_us).num_rows == 0


def test_sessionize_exact_when_user_run_splits_blocks(ray_session,
                                                     monkeypatch):
    import ray.data as rd

    from ollama_ocr_ray.functions import folds

    # ADVICE r3 medium: sort on (user_id, ts) range-partitions by the
    # COMPOSITE key, so one hot user's events land across many sorted
    # blocks.  The old per-block fold emitted one bogus session per
    # fragment; the open-session merge must reassemble exactly one.
    base = np.datetime64("2024-03-01T00:00:00", "us")
    n_hot = 5000
    hot_ts = [base + np.timedelta64(5 * i, "m") for i in range(n_hot)]
    # control user: three well-separated sessions of 2 events each
    ctl_ts = [base + np.timedelta64(m, "m")
              for m in (0, 5, 200, 205, 400, 405)]
    events = pa.table(
        {
            "user_id": pa.array([1] * n_hot + [2] * len(ctl_ts),
                                type=pa.int64()),
            "ts": pa.array(hot_ts + ctl_ts),
            "value": pa.array([1.0] * (n_hot + len(ctl_ts))),
        }
    )
    ds = rd.from_arrow(events).repartition(20)
    # the driver residual fold, then the distributed one
    for driver_max in (folds.DRIVER_RESIDUAL_MAX, 0):
        monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", driver_max)
        out = _collect(relational.sessionize(ds, gap_minutes=30)).to_pylist()
        hot = [r for r in out if r["user_id"] == 1]
        assert len(hot) == 1
        assert hot[0]["n_events"] == n_hot
        assert hot[0]["sum_value"] == float(n_hot)
        ctl = sorted((r for r in out if r["user_id"] == 2),
                     key=lambda r: r["session_start"])
        assert [r["n_events"] for r in ctl] == [2, 2, 2]


def test_events_hourly_exact_when_group_splits_blocks(ray_session,
                                                     monkeypatch):
    # one hot (type, window, user) group scattered over 20 input blocks
    # emits one partial row per block; the sort may split those equal
    # triples across output blocks, and the triple-keyed segment fold
    # must keep the distinct-user count exact (ADVICE r3 medium)
    import ray.data as rd

    from ollama_ocr_ray.functions import folds

    base = np.datetime64("2024-03-01T10:00:00", "us")
    n = 2000
    tbl = pa.table(
        {
            "event_type": pa.array(["a"] * n + ["b"] * 3),
            "ts": pa.array(
                [base + np.timedelta64(i % 60, "m") for i in range(n)]
                + [base] * 3
            ),
            "user_id": pa.array([1] * n + [7, 8, 9], type=pa.int64()),
            "value": pa.array([0.5] * (n + 3)),
        }
    )
    # the driver residual fold, then the distributed one
    for driver_max in (folds.DRIVER_RESIDUAL_MAX, 0):
        monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", driver_max)
        out = relational.events_hourly(
            rd.from_arrow(tbl).repartition(20)
        ).take_all()
        by = {r["event_type"]: r for r in out}
        assert len(out) == 2
        assert by["a"]["n_events"] == n and by["a"]["n_users"] == 1
        assert by["a"]["sum_value"] == n * 0.5
        assert by["b"]["n_events"] == 3 and by["b"]["n_users"] == 3
        assert by["b"]["sum_value"] == 1.5

    # empty input: no windows, and still the five output columns
    empty = relational.events_hourly(rd.from_arrow(tbl.slice(0, 0)))
    assert empty.count() == 0
    assert empty.schema().names == ["event_type", "window_start",
                                    "n_events", "n_users", "sum_value"]


def test_keep_min_and_droplist_exact_under_hot_key_splits(ray_session,
                                                          monkeypatch):
    """One text duplicated across 20 input blocks: its sorted hash /
    fingerprint run can split across blocks, and both keep-min dedup
    folds must still keep exactly the global-min doc_id (round-4
    hardening of the ADVICE r3 class)."""
    import ray.data as rd

    from ollama_ocr_ray.functions import folds
    from ollama_ocr_ray.functions.dedup import exact_droplist
    from ollama_ocr_ray.functions.prep import dedup_keep_min

    n_hot = 4000
    rows = pa.table(
        {
            "doc_id": pa.array(list(range(10, 10 + n_hot)) + [1, 2],
                               type=pa.int64()),
            "text": pa.array(["the same hot boilerplate text"] * n_hot
                             + ["unique one", "unique two"]),
        }
    )
    ds = rd.from_arrow(rows).repartition(20)
    # keep-min over an annotated-shaped table with a hot fingerprint
    ann = pa.table(
        {
            "doc_id": pa.array(list(range(10, 10 + n_hot)) + [1, 2],
                               type=pa.int64()),
            "fingerprint": pa.array(["hotfp"] * n_hot + ["fpA", "fpB"]),
            "n_chars": pa.array([5] * (n_hot + 2), type=pa.int64()),
        }
    )
    # the driver residual fold, then the distributed one
    for driver_max in (folds.DRIVER_RESIDUAL_MAX, 0):
        monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", driver_max)
        dropped = sorted(
            r["doc_id"] for r in _collect(exact_droplist(ds)).to_pylist()
        )
        # every hot doc except the global min (10) is dropped, uniques
        # kept
        assert dropped == list(range(11, 10 + n_hot))

        kept = sorted(
            (r["fingerprint"], r["doc_id"])
            for r in _collect(
                dedup_keep_min(rd.from_arrow(ann).repartition(20))
            ).to_pylist()
        )
        assert kept == [("fpA", 1), ("fpB", 2), ("hotfp", 10)]


def test_dedup_keep_min_empty_input(ray_session):
    """An upstream gate can drop EVERY document (seen at 1M-doc volume
    with a stopword-free synthetic corpus): the fold path then sees a
    schema-less empty dataset and must return empty with the annotate
    schema intact, not crash on ``folded.schema()``."""
    import ray.data as rd

    from ollama_ocr_ray.functions.prep import dedup_keep_min

    ann = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "fingerprint": pa.array(["fpA", "fpB"]),
            "n_chars": pa.array([5, 5], type=pa.int64()),
        }
    )
    from ollama_ocr_ray.functions.prep import ANNOTATE_SCHEMA

    empty = rd.from_arrow(ann).filter(lambda r: False)
    # without a fallback schema: empty and schema-less, but no crash
    out = dedup_keep_min(empty)
    assert out.count() == 0
    # runner path: the known annotate schema keeps downstream typed
    typed = dedup_keep_min(empty, empty_schema=ANNOTATE_SCHEMA)
    assert typed.count() == 0
    assert typed.schema().names == ANNOTATE_SCHEMA.names


def test_exact_segment_fold_unit(ray_session, monkeypatch):
    """Direct unit test of the boundary-routing helper: a key spanning
    two blocks (deterministic via union of single-block datasets) folds
    once in the residual pass, never per fragment, also with an empty
    block between its halves; the r5 distributed residual path (forced
    via DRIVER_RESIDUAL_MAX=0) gives identical results; an empty
    dataset stays empty."""
    import ray.data as rd

    from ollama_ocr_ray.functions import folds
    from ollama_ocr_ray.functions.folds import exact_segment_fold

    raw = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    out = pa.schema([("k", pa.int64()), ("total", pa.int64()),
                     ("frags", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        from ollama_ocr_ray.functions.dedup import _segment_bounds

        if t.num_rows == 0:
            return out.empty_table()
        t = t.combine_chunks()
        starts, ends = _segment_bounds(t.column("k"))
        v = t.column("k").to_numpy(zero_copy_only=False)
        vals = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table(
            {"k": pa.array(v[starts], type=pa.int64()),
             "total": pa.array(np.add.reduceat(vals, starts),
                               type=pa.int64()),
             "frags": pa.array(np.ones(len(starts), dtype=np.int64))}
        ).cast(out)

    # block 1: keys 1,2,2 — block 2: keys 2,3 (key 2 spans the blocks)
    b1 = pa.table({"k": pa.array([1, 2, 2], type=pa.int64()),
                   "v": pa.array([10, 1, 2], type=pa.int64())})
    b2 = pa.table({"k": pa.array([2, 3], type=pa.int64()),
                   "v": pa.array([4, 30], type=pa.int64())})
    ds = rd.from_arrow(b1).union(rd.from_arrow(b2))
    # the same split key with an empty block between its two halves
    gapped = rd.from_arrow(b1).union(
        rd.from_arrow(raw.empty_table())).union(rd.from_arrow(b2))

    def folded(d):
        return {r["k"]: (r["total"], r["frags"])
                for r in exact_segment_fold(
                    d, key_cols=["k"], fold=fold, raw_schema=raw,
                    out_schema=out).take_all()}

    got = folded(ds)
    # every key folded exactly once, split key summed across fragments
    assert got == {1: (10, 1), 2: (7, 1), 3: (30, 1)}
    assert folded(gapped) == got

    # DRIVER_RESIDUAL_MAX=0 forces the DISTRIBUTED residual pass
    # (hash-exchange by key + one sort+fold task per partition):
    # identical output.
    monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", 0)
    assert folded(ds) == got
    assert folded(gapped) == got

    # multi-partition distributed residual: many blocks, every block a
    # single-key boundary segment (all rows raw), one residual row per
    # task so the exchange fans out to multiple fold tasks; exact
    # totals and one fold per key are still required.
    monkeypatch.setattr(folds, "RESIDUAL_ROWS_PER_TASK", 1)
    blocks = [pa.table({"k": pa.array([i // 3], type=pa.int64()),
                        "v": pa.array([i], type=pa.int64())})
              for i in range(30)]
    wide = rd.from_arrow(blocks[0])
    for b in blocks[1:]:
        wide = wide.union(rd.from_arrow(b))
    expect = {k: (sum(range(3 * k, 3 * k + 3)), 1) for k in range(10)}
    assert folded(wide) == expect

    empty = rd.from_arrow(raw.empty_table())
    assert exact_segment_fold(
        empty, key_cols=["k"], fold=fold, raw_schema=raw,
        out_schema=out).count() == 0


def test_exact_segment_fold_hot_key_distributed(ray_session, monkeypatch):
    """The r4 scale-killer scenario: ONE hot key whose sorted run spans
    MANY blocks, residual far above the driver bound — the old driver-only
    path would refuse at the cap; the r5 distributed pass must fold the
    hot key exactly once (all its rows hash to one partition task) and
    keep every key's output in one block."""
    import ray.data as rd

    from ollama_ocr_ray.functions import folds
    from ollama_ocr_ray.functions.dedup import _segment_bounds
    from ollama_ocr_ray.functions.folds import exact_segment_fold

    raw = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    out = pa.schema([("k", pa.int64()), ("total", pa.int64()),
                     ("frags", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out.empty_table()
        t = t.combine_chunks()
        starts, _ = _segment_bounds(t.column("k"))
        ks = t.column("k").to_numpy(zero_copy_only=False)
        vals = t.column("v").to_numpy(zero_copy_only=False)
        return pa.table(
            {"k": pa.array(ks[starts], type=pa.int64()),
             "total": pa.array(np.add.reduceat(vals, starts),
                               type=pa.int64()),
             "frags": pa.array(np.ones(len(starts), dtype=np.int64))}
        ).cast(out)

    # globally sorted layout: 30 all-hot blocks (key 5, 2k rows each =
    # 60k residual rows) followed by one block of 30 cold keys whose
    # interior segments fold in-block.
    n_blocks, per_block = 30, 2000
    hot = pa.table({"k": pa.array([5] * (n_blocks * per_block),
                                  type=pa.int64()),
                    "v": pa.array(range(n_blocks * per_block),
                                  type=pa.int64())})
    hot_blocks = [hot.slice(i * per_block, per_block)
                  for i in range(n_blocks)]
    cold = pa.table({"k": pa.array([1000 + i for i in range(n_blocks)
                                    for _ in range(3)], type=pa.int64()),
                     "v": pa.array([7, 8, 9] * n_blocks,
                                   type=pa.int64())})
    ds = rd.from_arrow(hot_blocks[0])
    for b in hot_blocks[1:]:
        ds = ds.union(rd.from_arrow(b))
    ds = ds.union(rd.from_arrow(cold))
    monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", 1000)
    monkeypatch.setattr(folds, "RESIDUAL_ROWS_PER_TASK", 8192)
    got = {r["k"]: (r["total"], r["frags"])
           for r in exact_segment_fold(
               ds, key_cols=["k"], fold=fold, raw_schema=raw,
               out_schema=out).take_all()}
    n_hot = n_blocks * per_block
    assert got[5] == (n_hot * (n_hot - 1) // 2, 1)
    for i in range(n_blocks):
        assert got[1000 + i] == (24, 1)
    assert len(got) == 1 + n_blocks


def test_knn_join_matches_numpy(ray_session, tie_corpus):
    """Exact k-NN self-join over block-pair groups equals a single
    dense numpy pass, ranks and ties included: on random vectors, and
    on a corpus whose ids 0-29 repeat one vector (ties at the k-th
    place go to the smaller neighbor id)."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    n, d, k = 120, 16, 4
    mat = rng.normal(size=(n, d))
    emb = pa.table(
        {"vec_id": pa.array(np.arange(n), type=pa.int64()),
         "embedding": pa.array([row.tolist() for row in mat])}
    )
    for mat, emb in ((mat, emb), tie_corpus):
        n = len(mat)
        out = _collect(
            similarity.knn_join(rd.from_arrow(emb).repartition(6),
                                k=k, n_blocks=3)
        ).to_pylist()
        assert len(out) == n * k
        mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = mn @ mn.T
        np.fill_diagonal(sims, -np.inf)
        by_q: dict = {}
        for r in out:
            by_q.setdefault(r["q_id"], []).append((r["rank"], r["n_id"]))
        for q in range(n):
            want = np.lexsort((np.arange(n), -sims[q]))[:k].tolist()
            got = [nid for _, nid in sorted(by_q[q])]
            assert got == want


def test_joins_exact_under_hot_key_splits(ray_session):
    """A join key with thousands of left rows spans many sorted
    blocks; fragments without the right-side row would previously emit
    nothing (hash_join) or wrongly keep rows (anti_join).  Boundary
    routing must keep both exact (round-4 hardening)."""
    import ray.data as rd

    n = 3000
    left = pa.table(
        {"k": pa.array([5] * n + [1, 2], type=pa.int64()),
         "a": pa.array(list(range(n)) + [100, 200], type=pa.int64())}
    )
    right = pa.table(
        {"k": pa.array([5, 1, 3], type=pa.int64()),
         "b": pa.array(["hot", "one", "three"])}
    )
    out = relational.hash_join(
        rd.from_arrow(left).repartition(20), rd.from_arrow(right),
        key="k", left_cols=["a"], right_cols=["b"],
    ).take_all()
    assert len(out) == n + 1
    assert sum(1 for r in out if r["k"] == 5 and r["b"] == "hot") == n
    assert any(r["k"] == 1 and r["a"] == 100 and r["b"] == "one"
               for r in out)

    kept = relational.anti_join(
        rd.from_arrow(left).repartition(20), rd.from_arrow(right),
        key="k", left_cols=["a"],
    ).take_all()
    # every hot row and k=1 drop; only k=2 survives
    assert [(r["k"], r["a"]) for r in kept] == [(2, 200)]


def test_asof_partitioned_exact_under_hot_key_splits(ray_session,
                                                    monkeypatch):
    """A customer with thousands of keyed rows spans many sorted
    blocks; the boundary-key merge (driver or distributed) must still
    give every event its true at-or-before order (round-4 hardening)."""
    import ray.data as rd

    from ollama_ocr_ray.functions import folds

    def us(day):
        return np.datetime64(f"2024-01-{day:02d}", "us")

    n = 3000
    orders = pa.table(
        {
            "o_custkey": pa.array([1] * n + [2], type=pa.int64()),
            # hot customer orders on days 1..27 cycling
            "o_orderdate": pa.array([us(1 + (i % 27)) for i in range(n)]
                                    + [us(5)]),
        }
    )
    events = pa.table(
        {
            "event_id": pa.array(list(range(n)) + [90001, 90002],
                                 type=pa.int64()),
            "user_id": pa.array([1] * n + [2, 3], type=pa.int64()),
            "ts": pa.array([us(28)] * n + [us(4), us(9)]),
        }
    )
    # the driver residual fold, then the distributed one
    for driver_max in (folds.DRIVER_RESIDUAL_MAX, 0):
        monkeypatch.setattr(folds, "DRIVER_RESIDUAL_MAX", driver_max)
        out = _collect(
            relational.asof_last_order_partitioned(
                rd.from_arrow(events).repartition(10),
                rd.from_arrow(orders).repartition(10),
            )
        ).to_pylist()
        assert len(out) == n + 2
        by_event = {r["event_id"]: r["last_order_date"] for r in out}
        # hot user's events at day 28: latest order is day 27
        assert all(
            str(by_event[i]).startswith("2024-01-27") for i in range(n)
        )
        assert by_event[90001] is None          # before user 2's order
        assert by_event[90002] is None          # unknown user


# --- n-gram Jaccard dedup ---------------------------------------------------


def test_ngram_dup_pairs_planted(ray_session):
    import ray.data as rd

    near = "the quick brown fox jumps over the lazy dog again and again"
    rows = [
        {"doc_id": 1, "text": near},
        {"doc_id": 2, "text": near + " tail"},        # near-dup of 1
        {"doc_id": 3, "text": "completely different content about ships"},
        {"doc_id": 4, "text": near},                   # exact dup of 1
    ]
    ds = rd.from_items(rows)
    out = _collect(dedup.ngram_dup_pairs(ds, threshold=0.5))
    pairs = {(r["a_id"], r["b_id"]) for r in out.to_pylist()}
    assert (1, 2) in pairs
    assert (1, 4) in pairs
    assert not any(3 in p for p in pairs)
    # no duplicate pair rows across bands
    assert len(pairs) == out.num_rows


# --- IVF ANN ----------------------------------------------------------------


def test_ivf_ann_recall(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(0)
    n, dim = 400, 16
    mat = rng.normal(size=(n, dim))
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(n), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat.astype(np.float32)],
                                  type=pa.list_(pa.float32())),
        }
    )
    qm = mat[:3]
    qids = np.array([0, 1, 2], dtype=np.int64)
    ds = rd.from_arrow(emb)
    exact = _collect(similarity.knn_cosine(ds, qm, qids, k=10)).to_pylist()
    approx = _collect(
        similarity.ivf_ann(rd.from_arrow(emb), qm, qids, mat, k=10,
                           nlist=8, nprobe=4)
    ).to_pylist()
    for q in (0, 1, 2):
        want = {r["vec_id"] for r in exact if r["q_id"] == q}
        got = {r["vec_id"] for r in approx if r["q_id"] == q}
        recall = len(want & got) / len(want)
        assert recall >= 0.5, f"q{q} recall {recall}"
        assert q in got  # the vector itself always lands in its own probe


# --- quality score ----------------------------------------------------------


def test_quality_score_values():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["the cat, the dog.", ""]),
        }
    )
    out = quality_score_batch(t).to_pylist()
    assert out[0]["n_punct"] == 2
    assert out[0]["n_chars"] == 17
    # 'the' twice of 4 tokens
    assert out[0]["stop_ratio"] == 0.5
    assert out[1]["n_chars"] == 0 and out[1]["quality_score"] == 0.0


# --- O3: span-offset predicate pushdown -------------------------------------


def test_offset_range_selection(ray_session):
    """--page N analog: restrict extraction to an offset window; docs
    remain present (sentinel) even when all their spans fall outside."""
    import ray.data as rd

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.oracle import extract_document
    from ollama_ocr_ray.pipelines.extract import auto_pipeline

    table = synth.gen_table(30, seed=4)
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused",
                           offset_range=(0, 1), ocr_concurrency=2)
    got = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["order"])
                      for s in r["spans"]]
        for r in __import__("pyarrow").concat_tables(
            list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
        ).to_pylist()
    }
    assert set(got) == set(table.column("doc_id").to_pylist())
    for doc in table.to_pylist():
        doc0 = dict(doc, spans=[s for s in doc["spans"] if s["offset"] < 1])
        want = extract_document(doc0)
        assert got[doc["doc_id"]] == [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in want["spans"]
        ]


def test_corpus_summary_aggregate(ray_session):
    import ray.data as rd

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.pipelines.extract import auto_pipeline, corpus_summary

    table = synth.gen_table(25, seed=2)
    _, stats = auto_pipeline(rd.from_arrow(table), plan="fused",
                             with_stats=True, ocr_concurrency=2)
    row = corpus_summary(stats)
    assert row["docs"] == 25
    assert row["spans"] > 0 and row["chars"] > 0


# --- HLL sketch -------------------------------------------------------------


def test_hll_accuracy_and_merge():
    from ollama_ocr_ray.functions.sketches import hll_estimate, hll_registers

    vals = (np.arange(20000, dtype=np.int64) * 7919) + 3
    est = hll_estimate(hll_registers(vals))
    assert abs(est - 20000) / 20000 < 0.05
    # mergeability: max of partials == sketch of union
    a = hll_registers(vals[:12000])
    b = hll_registers(vals[8000:])
    assert abs(hll_estimate(np.maximum(a, b)) - est) < 1e-9


def test_approx_distinct_vs_exact(ray_session):
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import approx_distinct

    rng = np.random.RandomState(1)
    n = 5000
    t = pa.table(
        {
            "event_type": pa.array(rng.choice(["a", "b"], size=n)),
            "user_id": pa.array(rng.randint(0, 800, size=n), type=pa.int64()),
        }
    )
    out = _collect(approx_distinct(rd.from_arrow(t), "event_type", "user_id"))
    exact = {
        k: len({u for e, u in zip(t.column("event_type").to_pylist(),
                                  t.column("user_id").to_pylist()) if e == k})
        for k in ("a", "b")
    }
    for r in out.to_pylist():
        err = abs(r["approx_distinct"] - exact[r["event_type"]])
        assert err / exact[r["event_type"]] < 0.05


# --- broadcast media-sidecar lookup (SURVEY 2.7) -----------------------------


def test_media_store_broadcast_lookup(ray_session):
    """With a sidecar store the transcript keys on payload bytes (two
    refs with identical bytes transcribe identically) and a missing ref
    becomes an inline error span.  The store ships once via ray.put,
    resolved inside the actors."""
    import ray
    import ray.data as rd

    from ollama_ocr_ray.pipelines.extract import auto_pipeline
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA

    doc = {
        "doc_id": "m1",
        "spans": [
            {"kind": "media", "text": "", "media_ref": "s3://a", "offset": 0},
            {"kind": "media", "text": "", "media_ref": "s3://b", "offset": 1},
            {"kind": "media", "text": "", "media_ref": "s3://missing",
             "offset": 2},
        ],
    }
    table = pa.Table.from_pylist([doc], schema=DOCUMENTS_SCHEMA)
    store = ray.put({"s3://a": b"same-bytes", "s3://b": b"same-bytes"})

    def spans(ds):
        t = pa.concat_tables(
            list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
        )
        return [
            (s["kind"], s["text"]) for s in t.to_pylist()[0]["spans"]
        ]

    got = spans(auto_pipeline(rd.from_arrow(table), plan="fused",
                              media_store=store, ocr_concurrency=2)[1])
    assert got[0] == got[1]                           # same bytes, same text
    assert got[0][0] == "ocr"
    assert got[2][0] == "error" and "media not found" in got[2][1]


def test_ngram_band_exchange_carries_no_text(ray_session):
    """VERDICT r1 #2 done-criterion: the LSH band exchange must shuffle
    only (bucket, doc_id) — never the document text (round 1 amplified
    text 16x through the band groupby)."""
    import ray.data as rd

    rows = [{"doc_id": i, "text": f"document number {i} body text"}
            for i in range(8)]
    band = dedup.ngram_band_rows(rd.from_items(rows))
    cols = set(band.schema().names)
    assert cols == {"bucket", "doc_id"}


def test_asof_partitioned_matches_broadcast(ray_session):
    """The co-partitioned as-of merge must agree with the broadcast
    binary-search variant row for row (including never-ordered users
    and equal-timestamp at-or-before ties)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(11)
    n_ev, n_ord = 400, 150
    ev_t = pa.table({
        "event_id": pa.array(np.arange(n_ev), type=pa.int64()),
        "user_id": pa.array(rng.integers(1, 40, n_ev), type=pa.int64()),
        "ts": pa.array(rng.integers(0, 10_000, n_ev) * 1_000_000,
                       type=pa.int64()).cast(pa.timestamp("us")),
    })
    # include an exact tie: order date == event ts for user 1
    od = rng.integers(0, 10_000, n_ord) * 1_000_000
    oc = rng.integers(1, 30, n_ord)  # users 30..39 never order
    oc[0], od[0] = 1, ev_t.column("ts")[0].cast(pa.int64()).as_py()
    ord_t = pa.table({
        "o_custkey": pa.array(oc, type=pa.int64()),
        "o_orderdate": pa.array(od, type=pa.int64()).cast(pa.timestamp("us")),
    })
    want = {
        r["event_id"]: r["last_order_date"]
        for r in _collect(relational.asof_last_order(
            rd.from_arrow(ev_t), relational.build_orders_by_cust(ord_t)
        )).to_pylist()
    }
    got = {
        r["event_id"]: r["last_order_date"]
        for r in _collect(relational.asof_last_order_partitioned(
            rd.from_arrow(ev_t).repartition(5),
            rd.from_arrow(ord_t).repartition(3),
        )).to_pylist()
    }
    assert got == want


def test_embedding_near_dup_blocked_exact(ray_session):
    """Block-pair all-pairs must equal the driver-side exact answer."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(3)
    n, dim = 300, 16
    mat = rng.normal(size=(n, dim))
    mat[50] = mat[10] + rng.normal(scale=0.05, size=dim)   # planted dup
    mat[200] = mat[120] + rng.normal(scale=0.05, size=dim)
    t = pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              type=pa.list_(pa.float64())),
    })
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mn @ mn.T
    iu, ju = np.triu_indices(n, k=1)
    hit = sims[iu, ju] >= 0.7
    want = set(zip(iu[hit].tolist(), ju[hit].tolist()))
    out = _collect(similarity.embedding_near_dup_blocked(
        rd.from_arrow(t).repartition(5), threshold=0.7, n_blocks=4))
    got = set(zip(out.column("a_id").to_pylist(), out.column("b_id").to_pylist()))
    assert got == want and (10, 50) in got and (120, 200) in got


def test_hash_join_inner_semantics(ray_session):
    import ray.data as rd

    left = rd.from_items([
        {"k": 1, "lv": "a"}, {"k": 1, "lv": "b"},
        {"k": 2, "lv": "c"}, {"k": 3, "lv": "d"},   # 3 absent on right
    ])
    right = rd.from_items([
        {"k": 1, "rv": 10}, {"k": 1, "rv": 20},     # dup key: cross product
        {"k": 2, "rv": 30}, {"k": 9, "rv": 99},     # 9 absent on left
    ])
    out = relational.hash_join(
        left, right, key="k", left_cols=["lv"], right_cols=["rv"]
    ).to_pandas()
    got = set(map(tuple, out[["k", "lv", "rv"]].itertuples(index=False)))
    assert got == {
        (1, "a", 10), (1, "a", 20), (1, "b", 10), (1, "b", 20),
        (2, "c", 30),
    }


def test_hash_join_hot_key_salted(ray_session):
    """r5 VERDICT #5 forced test: a 10^6-row hot key joins EXACTLY on
    both plans — the default path (hot key routes wholly to the r5
    distributed residual, no cap to trip) and the salted path
    (salt_hot spreads the hot merge across salt buckets with the
    right side replicated).  Both must agree with the closed form."""
    import ray.data as rd

    n_hot = 1_000_000
    hot_left = rd.range(n_hot).map_batches(
        lambda b: pa.table({
            "k": pa.array(np.full(len(b["id"]), 7, dtype=np.int64)),
            "v": pa.array(b["id"], type=pa.int64())}),
        batch_format="numpy")
    cold_left = rd.from_arrow(pa.table({
        "k": pa.array([100 + i for i in range(50) for _ in range(2)],
                      type=pa.int64()),
        "v": pa.array([1, 2] * 50, type=pa.int64())}))
    left = hot_left.union(cold_left)
    right = rd.from_arrow(pa.table({
        "k": pa.array([7, 7] + [100 + i for i in range(50)],
                      type=pa.int64()),
        "w": pa.array([10, 20] + [5] * 50, type=pa.int64())}))

    # the skew probe sees the hot key and not the cold ones
    from ollama_ocr_ray.functions.relational import probe_hot_keys
    assert probe_hot_keys(left, "k", min_rows=100_000) == {7}
    assert probe_hot_keys(cold_left, "k", min_rows=100_000) == set()

    exp_rows = 2 * n_hot + 2 * 50
    exp_v = 2 * (n_hot * (n_hot - 1) // 2) + 50 * (1 + 2)
    exp_w = 30 * n_hot + 50 * 2 * 5
    for salt in (0, 8):
        out = relational.hash_join(
            left, right, key="k", left_cols=["v"], right_cols=["w"],
            salt_hot=salt, hot_min_rows=100_000)
        sums = out.sum(["v", "w"])
        assert out.count() == exp_rows, salt
        assert sums["sum(v)"] == exp_v and sums["sum(w)"] == exp_w, salt
        cold = sorted(
            (r["k"], r["v"], r["w"])
            for r in out.filter(lambda r: r["k"] >= 100).take_all())
        assert cold == sorted(
            [(100 + i, 1, 5) for i in range(50)]
            + [(100 + i, 2, 5) for i in range(50)]), salt

    # int8 salt column: more than 127 salts would wrap and silently
    # duplicate hot rows — must refuse loudly
    with pytest.raises(ValueError, match="salt_hot.*127"):
        relational.hash_join(cold_left, right, key="k", left_cols=["v"],
                             right_cols=["w"], salt_hot=300)


def test_top_unshipped_matches_duckdb(ray_session):
    import duckdb

    from ollama_ocr_ray import queries

    sf = "/root/testdata/sf0.001"
    res = queries.queries()["top_unshipped"](sf).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "lineitem", "customer"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf}/{t}.parquet')"
        )
    odf = con.execute(queries.oracle_sql()["top_unshipped"]).df()
    cols = list(res.columns)
    res = res.sort_values(cols).reset_index(drop=True)
    odf = odf[cols].sort_values(cols).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(res, odf, check_dtype=False)


def test_prep_corpus_gate_and_dedup(ray_session):
    import ray.data as rd

    from ollama_ocr_ray.functions.prep import prep_corpus

    good = "the cat and the dog, in a house of art."
    rows = [
        {"doc_id": 1, "text": good},
        {"doc_id": 2, "text": good},            # exact dup: dropped
        {"doc_id": 3, "text": "zzz qqq xxx"},   # no stopwords/punct: gated
        {"doc_id": 4, "text": "of the and a in, to them all."},
    ]
    out = prep_corpus(rd.from_items(rows), quality_threshold=0.01) \
        .to_pandas()
    assert sorted(out["doc_id"]) == [1, 4]
    assert "text" not in out.columns  # scalars only past the annotate stage
    assert set(out.columns) == {"doc_id", "pred_lang", "n_chars",
                                "quality_score", "fingerprint"}


def test_sample_keys_exact_vs_python_int():
    """The vectorized hash chain is bit-identical to exact Python-int
    arithmetic (the contract the HUGEINT SQL oracle recomputes)."""
    import numpy as np

    from ollama_ocr_ray.functions.sampling import (SAMPLE_MULT,
                                                   sample_keys)
    from ollama_ocr_ray.functions.text import _FP_MOD

    ids = np.array([0, 1, 7, 12345, 2**40, 2**53 - 1], dtype=np.uint64)
    seed = 9176
    got = sample_keys(ids, seed)
    for i, x in enumerate(ids.tolist()):
        h1 = ((x + 1) * SAMPLE_MULT + seed) % _FP_MOD
        want = (h1 * h1 + h1) % _FP_MOD
        assert int(got[i]) == want


def test_sample_stratified_partition_independent(ray_session):
    """Same sample regardless of block layout; k per stratum bounded;
    rn ordering matches (sample_key, doc_id)."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import sample_stratified

    def rows(onb):
        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id", "lang"], override_num_blocks=onb,
        )
        out = sample_stratified(ds, stratum_col="lang", k=5, seed=3).take_all()
        return sorted((r["lang"], r["rn"], r["doc_id"], r["sample_key"])
                      for r in out)

    a, b = rows(2), rows(9)
    assert a == b and len(a) > 0
    per_lang = {}
    for lang, rn, _, _ in a:
        per_lang.setdefault(lang, []).append(rn)
    for lang, rns in per_lang.items():
        assert rns == list(range(1, len(rns) + 1)) and len(rns) <= 5


def test_scrub_pii_planted():
    """The synthetic corpus contains no PII (the driver gate only
    proves passthrough), so plant some: emails redact first, then
    phone-like runs — and an email's digits never double-count."""
    import pyarrow as pa

    from ollama_ocr_ray.functions.text import scrub_pii_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array([
                "mail a.b+c@example.org or x@y.co now",
                "call +1 (415) 555-0199 or 020 7946 0958 today",
                "no pii here",
            ]),
        }
    )
    out = scrub_pii_batch(batch).to_pylist()
    assert out[0]["n_emails"] == 2 and out[0]["n_phones"] == 0
    assert out[0]["clean_text"] == "mail <EMAIL> or <EMAIL> now"
    assert out[1]["n_emails"] == 0 and out[1]["n_phones"] == 2
    assert out[1]["clean_text"] == "call <PHONE> or <PHONE> today"
    assert out[2]["clean_text"] == "no pii here"


def test_pack_block_properties():
    """Next-fit-decreasing block packing: every doc exactly once,
    capacity respected for non-overflow packs, oversized docs solo."""
    import numpy as np
    import pyarrow as pa

    from ollama_ocr_ray.functions.packing import pack_block

    rng = np.random.default_rng(3)
    texts = [" ".join("tok" for _ in range(int(k)))
             for k in rng.integers(0, 120, size=60)]
    texts.append(" ".join("tok" for _ in range(5000)))  # oversized
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })
    out = pack_block(batch, capacity=100).to_pylist()
    assert sorted(r["doc_id"] for r in out) == list(range(len(texts)))
    loads = {}
    for r in out:
        loads.setdefault(r["pack_id"], []).append(r)
    for rows in loads.values():
        if any(r["overflow"] for r in rows):
            assert len(rows) == 1
        else:
            assert sum(r["n_tokens"] for r in rows) <= 100


def test_pack_invariants_gate(ray_session):
    import ray.data as rd

    from ollama_ocr_ray.functions.packing import pack_invariants

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"],
                         override_num_blocks=4)
    got = pack_invariants(ds, capacity=512).to_pylist()[0]
    assert got["n_docs"] > 0
    assert got["all_docs_packed_once"] is True
    assert got["capacity_respected"] is True
    assert got["pack_count_within_2x"] is True


def test_pack_invariants_catch_cross_block_duplicates(ray_session):
    """Duplicate doc_ids ACROSS blocks (corrupt input that would also
    collide pack-key spaces) fail the exactly-once gate (review fix:
    the in-block-only check passed them silently)."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions.packing import pack_invariants

    t = pa.table({
        "doc_id": pa.array(list(range(50)), type=pa.int64()),
        "text": pa.array(["some tokens here"] * 50),
    })
    dup = rd.from_arrow(t).union(rd.from_arrow(t))
    got = pack_invariants(dup, capacity=64).to_pylist()[0]
    assert got["n_docs"] == 100
    assert got["all_docs_packed_once"] is False


def test_mix_by_rate_thresholds(ray_session):
    """Rate-based mixing: bp=10000 keeps everything, bp=0 keeps
    nothing, intermediate rates keep a deterministic stable subset at
    roughly the requested fraction."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import mix_by_rate

    n = 4000
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "source": pa.array(
            ["all", "none", "half", "rest"][i % 4] for i in range(n)
        ),
    })
    rates = {"all": 10000, "none": 0, "half": 5000}
    out1 = mix_by_rate(rd.from_arrow(t), rates_bp=rates, default_bp=2500,
                       seed=5).take_all()
    out2 = mix_by_rate(rd.from_arrow(t), rates_bp=rates, default_bp=2500,
                       seed=5).take_all()
    assert sorted(r["doc_id"] for r in out1) == \
        sorted(r["doc_id"] for r in out2)  # deterministic
    by_src = {}
    for r in out1:
        by_src[r["source"]] = by_src.get(r["source"], 0) + 1
    assert by_src["all"] == n // 4
    assert "none" not in by_src
    assert abs(by_src["half"] - n // 8) < n // 16
    assert abs(by_src["rest"] - n // 16) < n // 20
    # a different seed draws a different (same-sized-ish) subset
    out3 = mix_by_rate(rd.from_arrow(t), rates_bp=rates, default_bp=2500,
                       seed=6).take_all()
    assert sorted(r["doc_id"] for r in out3) != \
        sorted(r["doc_id"] for r in out1)


def test_select_token_budget_matches_bruteforce(ray_session):
    """Token-budget selection vs a local brute force over a tie-heavy
    corpus (5 templates shared by 400 docs across 20 blocks — equal
    quality_score runs WILL span sorted blocks): the doc_id tiebreak
    makes the order total, so block boundaries cannot change the
    selected set.  Also the budget edges: 0 selects nothing, >= total
    selects everything."""
    import ray.data as rd

    from ollama_ocr_ray.functions.selection import select_token_budget
    from ollama_ocr_ray.functions.text import (quality_score_batch,
                                               token_stats_batch)

    templates = [
        "the quick value of a market, and a signal in the data.",
        "alpha beta gamma delta market signal report data",
        "the and of a in to the and of a in to",
        "one two three four five six seven eight nine ten!",
        "a report; the value, and a metric of the model.",
    ]
    n = 400
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(n)), type=pa.int64()),
            "text": pa.array([templates[i % 5] for i in range(n)]),
            "lang": pa.array(["en"] * n),
        }
    )
    # local brute force on the same kernels
    q = quality_score_batch(docs).column("quality_score").to_numpy(
        zero_copy_only=False
    )
    toks = token_stats_batch(docs.select(["doc_id", "text"])).column(
        "n_tokens"
    ).to_numpy(zero_copy_only=False)
    order = sorted(range(n), key=lambda i: (-q[i], i))
    budget = int(toks.sum()) // 3

    def brute(b):
        run, keep = 0, set()
        for i in order:
            run += int(toks[i])
            if run > b:
                break
            keep.add(i)
        return keep

    ds = rd.from_arrow(docs).repartition(20)
    got = {
        r["doc_id"]
        for r in _collect(select_token_budget(ds, budget)).to_pylist()
    }
    assert got == brute(budget) and 0 < len(got) < n

    assert select_token_budget(ds, 0).count() == 0
    assert select_token_budget(ds, int(toks.sum())).count() == n
    # empty input: typed empty result
    empty = rd.from_arrow(docs).filter(lambda r: False)
    out = select_token_budget(empty, 100)
    assert out.count() == 0


def test_lm_familiarity_matches_bruteforce(ray_session):
    """Bigram-LM coverage vs a local brute force, with a vocab cut that
    actually bites (vocab_size=3 over 6 distinct bigrams) and a tie at
    the cut boundary (two bigrams with equal count — the (count DESC,
    bigram ASC) order must pick deterministically).  Also 0- and
    1-token docs (n_bigrams = 0, familiarity 0)."""
    from collections import Counter

    import ray.data as rd

    from ollama_ocr_ray.functions.lm import lm_familiarity

    texts = [
        "a b a b c",        # bigrams: a b, b a, a b, b c
        "a b c d",          # a b, b c, c d
        "x y x y",          # x y, y x, x y
        "d a",              # d a
        "solo",             # 1 token -> 0 bigrams
        "",                 # empty
        "  a   b  ",        # padding: same bigram as 'a b'
    ]
    docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    # local brute force
    grams_per_doc = []
    for t in texts:
        toks = [w for w in t.lower().split() if w]
        grams_per_doc.append(
            [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        )
    counts = Counter(g for gs in grams_per_doc for g in gs)
    model = set(
        sorted(counts, key=lambda g: (-counts[g], g))[:3]
    )
    ds = rd.from_arrow(docs).repartition(3)
    out = {
        r["doc_id"]: r
        for r in _collect(lm_familiarity(ds, vocab_size=3)).to_pylist()
    }
    assert len(out) == len(texts)
    for i, gs in enumerate(grams_per_doc):
        seen = sum(g in model for g in gs)
        assert out[i]["n_bigrams"] == len(gs)
        assert out[i]["n_seen"] == seen
        want_bp = (10_000 * seen) // len(gs) if gs else 0
        assert out[i]["familiarity_bp"] == want_bp
    assert out[4]["n_bigrams"] == 0 and out[4]["familiarity_bp"] == 0


def test_dup_substring_stats_matches_bruteforce(ray_session):
    """Duplicated-window mass vs a local brute force over a corpus with
    a HOT shared prefix (60 docs share one 30-char boilerplate line —
    its window segments split across the 20 sort blocks, exercising the
    exact_segment_fold residual), plus unique docs and short docs."""
    import ray.data as rd

    from ollama_ocr_ray.functions.dedup import dup_substring_stats

    k = 12
    boiler = "SUBSCRIBE TO OUR NEWSLETTER TODAY "
    texts = []
    for i in range(60):                     # hot boilerplate + unique tail
        texts.append(boiler + f"unique tail number {i} with words")
    for i in range(20):                     # cross-doc shared prefix too
        texts.append(f"completely distinct body {i} " * 3)
    texts += ["short", ""]                  # below k -> no windows
    docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )

    def windows(t):
        return {t[i:i + k] for i in range(len(t) - k + 1)} \
            if len(t) >= k else set()

    wsets = [windows(t) for t in texts]
    from collections import Counter
    owner_counts = Counter()
    for ws in wsets:
        owner_counts.update(ws)
    want = {
        i: sum(owner_counts[w] >= 2 for w in ws)
        for i, ws in enumerate(wsets)
        if sum(owner_counts[w] >= 2 for w in ws) > 0
    }

    ds = rd.from_arrow(docs).repartition(20)
    got = {
        r["doc_id"]: r["n_dup"]
        for r in _collect(dup_substring_stats(ds, k=k)).to_pylist()
    }
    assert got == want
    assert all(i in got for i in range(60))      # hot docs all flagged
    assert 80 not in got and 81 not in got       # below-k docs: no windows


def test_chunk_documents_matches_bruteforce(ray_session):
    """Overlapping-window chunking vs a local brute force: exact chunk
    text/length at every boundary shape (multiple of stride, shorter
    than size, shorter than overlap, exactly size, empty, unicode)."""
    import ray.data as rd

    from ollama_ocr_ray.functions.chunks import chunk_documents

    size, overlap = 10, 3
    stride = size - overlap
    texts = [
        "abcdefghijklmnopqrstuvwxyz",   # 26: chunks at 0,7,14,21
        "abcdefghij",                    # exactly size
        "abcdefg",                       # exactly stride
        "ab",                            # below overlap
        "",                              # empty -> no chunks
        "héllo wörld ünïcode tail!!",    # unicode codepoints
        "x" * 21,                        # 3 chunks, last = size
    ]
    docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts)}
    )
    want = []
    for i, t in enumerate(texts):
        for j, st in enumerate(range(0, max(len(t), 0), stride)):
            if st >= len(t):
                break
            want.append((i, j, t[st:st + size], min(size, len(t) - st)))
    ds = rd.from_arrow(docs).repartition(3)
    out = _collect(chunk_documents(ds, size=size, overlap=overlap))
    got = sorted(
        (r["doc_id"], r["chunk_idx"], r["chunk_text"], r["n_chunk_chars"])
        for r in out.to_pylist()
    )
    assert got == sorted(want)

    with pytest.raises(ValueError):
        chunk_documents(ds, size=5, overlap=5)


def test_cap_per_group_exact_under_splits(ray_session):
    """Per-group cap vs brute force with ONE hot group spanning ~20
    blocks (its sorted run must split, exercising the
    exact_segment_fold residual) plus groups below/at/above k."""
    import ray.data as rd

    from ollama_ocr_ray.functions.selection import cap_per_group

    rows = []
    for i in range(400):                       # hot group
        rows.append(("hot", i, float(i % 7)))
    for g, n in (("small", 3), ("exact", 5), ("big", 40)):
        for i in range(n):
            rows.append((g, 1000 + len(rows), float(i % 3)))
    t = pa.table(
        {
            "grp": pa.array([r[0] for r in rows]),
            "id": pa.array([r[1] for r in rows], type=pa.int64()),
            "score": pa.array([r[2] for r in rows], type=pa.float64()),
        }
    )
    k = 5
    want = set()
    by_grp = {}
    for g, i, s in rows:
        by_grp.setdefault(g, []).append((-s, i))
    for g, lst in by_grp.items():
        for _, i in sorted(lst)[:k]:
            want.add((g, i))

    ds = rd.from_arrow(t).repartition(20)
    out = cap_per_group(ds, group_col="grp",
                        order_cols=["score", "id"],
                        descending=[True, False], k=k)
    got = {(r["grp"], r["id"]) for r in _collect(out).to_pylist()}
    assert got == want
    assert sum(1 for g, _ in got if g == "hot") == k
    assert sum(1 for g, _ in got if g == "small") == 3


def test_dedup_keep_best_prefers_quality_over_min_id(ray_session):
    """Keep-best exact dedup: within a duplicate group the HIGHEST
    quality copy wins (doc_id only breaks exact quality ties) — the
    testdata has no exact dups, so this is where the semantics vs
    dedup_apply (keep-min-id) are actually exercised."""
    import ray.data as rd

    from ollama_ocr_ray.functions.dedup import dedup_keep_best

    rich = "the value of a market, and a signal in the data; truly."
    poor = "market signal data report value metric model growth"
    texts, langs = [], []
    # group A: 30 copies of the same text -> tie on quality, min id wins
    for _ in range(30):
        texts.append(rich); langs.append("en")
    # group B: unique docs
    for i in range(10):
        texts.append(poor + f" {i}"); langs.append("de")
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    ds = rd.from_arrow(docs).repartition(8)
    got = sorted(
        r["doc_id"]
        for r in _collect(dedup_keep_best(ds)).to_pylist()
    )
    # group A collapses to its min id (identical text = identical
    # quality, so the doc_id tiebreak applies); B survives whole
    assert got == [0] + list(range(30, 40))

    # now make the copies differ in quality via distinct texts that
    # share a group ONLY through exact equality: append two exact
    # copies of a LOW quality text and one HIGH quality text -- the
    # high one is a different group; equality is exact, so only
    # bitwise-equal texts compete
    docs2 = pa.table(
        {
            "doc_id": pa.array([100, 101, 102], type=pa.int64()),
            "text": pa.array([poor, poor, rich]),
            "lang": pa.array(["en"] * 3),
            "n_chars": pa.array([len(poor), len(poor), len(rich)],
                                type=pa.int64()),
        }
    )
    got2 = sorted(
        r["doc_id"]
        for r in _collect(dedup_keep_best(rd.from_arrow(docs2))).to_pylist()
    )
    assert got2 == [100, 102]


def test_quantile_gate_matches_bruteforce(ray_session):
    """Per-group median gate vs brute force, including a group where
    every value ties (all pass: v >= median == v) and odd/even sizes."""
    import ray.data as rd

    from ollama_ocr_ray.functions.selection import quantile_gate

    rows = []
    for i, v in enumerate([10, 20, 30, 40, 50]):        # odd group
        rows.append(("en", i, v))
    for i, v in enumerate([1, 2, 3, 4]):                # even group
        rows.append(("de", 100 + i, v))
    for i in range(6):                                  # all-ties group
        rows.append(("fr", 200 + i, 7))
    t = pa.table(
        {
            "lang": pa.array([r[0] for r in rows]),
            "doc_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "n_chars": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )
    import math

    def disc_median(vals):
        vals = sorted(vals)
        return vals[max(1, math.ceil(len(vals) * 0.5)) - 1]

    by = {}
    for g, i, v in rows:
        by.setdefault(g, []).append(v)
    med = {g: disc_median(vs) for g, vs in by.items()}
    want = {i for g, i, v in rows if v >= med[g]}

    ds = rd.from_arrow(t).repartition(4)
    got = {
        r["doc_id"]
        for r in _collect(
            quantile_gate(ds, value_col="n_chars", by="lang", q=0.5)
        ).to_pylist()
    }
    assert got == want
    assert {200 + i for i in range(6)} <= got          # ties all pass


def test_semdedup_clustered_planted_triples(ray_session):
    """Clustered SemDeDup on planted near-identical triples: every
    within-triple pair found (recall 1.0 — near-identical vectors
    co-assign), no false pairs (precision 1 vs the exact plan), and
    the droplist/anti-join apply keeps exactly one vector per triple."""
    import ray.data as rd

    from ollama_ocr_ray.functions import relational, similarity

    rng = np.random.RandomState(3)
    dim, groups, singles = 16, 12, 60
    base = rng.standard_normal((groups, dim))
    vecs = [base[g] + 0.003 * rng.standard_normal(dim)
            for g in range(groups) for _ in range(3)]
    vecs += list(rng.standard_normal((singles, dim)))
    mat = np.asarray(vecs, dtype=np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat],
                                  type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(t).repartition(6)
    clus = similarity.semdedup_pairs_clustered(
        ds, threshold=0.9, sample_matrix=mat.astype(np.float64),
        n_clusters=8,
    )
    got = {(r["a_id"], r["b_id"]) for r in _collect(clus).to_pylist()}
    want = set()
    for g in range(groups):
        a, b, c = 3 * g, 3 * g + 1, 3 * g + 2
        want |= {(a, b), (a, c), (b, c)}
    assert got == want

    # apply: drop every b_id -> one survivor per triple + all singles
    drop = clus.map_batches(
        lambda b: pa.table({"vec_id": b.column("b_id")}),
        batch_format="pyarrow",
    )
    kept = relational.anti_join(
        ds.map_batches(
            lambda b: pa.table({"vec_id": b.column("vec_id")}),
            batch_format="pyarrow",
        ),
        drop, key="vec_id", left_cols=[],
    )
    ids = {r["vec_id"] for r in _collect(kept).to_pylist()}
    assert ids == {3 * g for g in range(groups)} | set(
        range(3 * groups, 3 * groups + singles)
    )


def test_heavy_hitters_exact_zipf_pruning(ray_session):
    """Exact top-k under a Zipf-ish planted vocabulary, small m, many
    blocks — the candidate prune must never drop a true heavy hitter,
    and ties at the k-th slot break (cnt DESC, token ASC)."""
    import collections

    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import heavy_hitters_exact

    rng = np.random.RandomState(11)
    vocab = [f"w{i:04d}" for i in range(3000)]
    # Zipf weights; token i drawn ~ 1/(i+1)
    w = 1.0 / np.arange(1, len(vocab) + 1)
    w /= w.sum()
    docs = []
    for _ in range(400):
        toks = rng.choice(vocab, size=60, p=w)
        docs.append(" ".join(toks))
    t = pa.table({"text": pa.array(docs)})

    counter = collections.Counter()
    for d in docs:
        counter.update(d.split())
    want = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:15]

    # m must certify the cut: slack = ceil(N/m) has to sit below the
    # k-th lower bound (N = 24k tokens, true count_15 ~ 186 -> m=512
    # gives slack 47; m=32 legitimately raises the cut<=0 certificate)
    ds = rd.from_arrow(t).repartition(10)
    got = [
        (r["token"], r["cnt"])
        for r in _collect(heavy_hitters_exact(ds, k=15, m=512)).to_pylist()
    ]
    assert got == want
    with pytest.raises(ValueError, match="unseen|increase m"):
        heavy_hitters_exact(ds, k=15, m=32).materialize()


def test_heavy_hitters_refuses_flat_distribution(ray_session):
    """A near-uniform vocabulary with a tiny m cannot prove the
    candidate cut fits the driver-bounded prefix — the operator must
    raise loudly, never return a silently-approximate top-k."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import heavy_hitters_exact

    docs = [" ".join(f"t{i:03d}" for i in range(j, j + 50))
            for j in range(0, 400, 5)]
    ds = rd.from_arrow(pa.table({"text": pa.array(docs)})).repartition(8)
    with pytest.raises(ValueError, match="increase m|tokens visible"):
        heavy_hitters_exact(ds, k=3, m=4).materialize()


def test_decon_bloom_lossless_under_high_fpr(ray_session):
    """Bloom-pruned decontamination == exact decontamination even with
    a deliberately tiny filter (high false-positive rate): FPs are
    discarded by the exact verify, FNs are impossible."""
    import ray.data as rd

    from ollama_ocr_ray.functions.contamination import (
        decontaminate,
        decontaminate_bloom,
    )

    rng = np.random.RandomState(5)
    vocab = [f"v{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(300):
        ids.append(i)
        texts.append(" ".join(rng.choice(vocab, size=20)))
    # plant real contamination: every 10th non-eval doc quotes an
    # eval doc's opening phrase (>= one shared word-3-gram)
    for i in range(10, 300, 10):
        if i % 7 != 0:
            texts[i] = " ".join(texts[7].split()[:5]) + " " + texts[i]
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(6)

    def rows(out):
        return sorted(
            (r["doc_id"], r["n_overlap"]) for r in _collect(out).to_pylist()
        )

    exact = rows(decontaminate(ds, eval_mod=7, k=3))
    pruned = rows(decontaminate_bloom(ds, eval_mod=7, k=3, bits=1 << 8,
                                      n_hashes=2))
    assert pruned == exact
    assert len(exact) > 0  # the planted overlap actually exercises it


def test_hash_split_deterministic_disjoint_exhaustive(ray_session):
    """Every doc lands in exactly one split; assignment is invariant
    under repartitioning; fractions land near 90/5/5; bad basis points
    raise."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import hash_split

    ids = np.arange(20_000, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids)})

    def assignment(n_parts):
        ds = rd.from_arrow(t).repartition(n_parts)
        return {
            r["doc_id"]: r["split"]
            for r in _collect(hash_split(ds, seed=3141)).to_pylist()
        }

    a4, a13 = assignment(4), assignment(13)
    assert a4 == a13                       # partitioning-invariant
    assert set(a4) == set(ids.tolist())    # exhaustive, one row per doc
    from collections import Counter

    frac = Counter(a4.values())
    assert abs(frac["train"] / 20_000 - 0.90) < 0.01
    assert abs(frac["val"] / 20_000 - 0.05) < 0.005
    assert abs(frac["test"] / 20_000 - 0.05) < 0.005

    with pytest.raises(ValueError, match="sum to 10000"):
        hash_split(rd.from_arrow(t),
                   splits=(("a", 5000), ("b", 4000)))


def test_kll_quantiles_accuracy_and_merge(ray_session):
    """KLL sketch rank error stays inside ~2/k on skewed continuous
    data, across different partitionings (merge path), including a
    heavy-tailed lognormal and a group small enough to be exact."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import approx_quantiles_kll

    rng = np.random.RandomState(17)
    vals_a = rng.lognormal(0.0, 2.0, size=50_000)   # heavy tail
    vals_b = rng.standard_normal(120)               # tiny: exact
    t = pa.table(
        {
            "g": pa.array(["a"] * len(vals_a) + ["b"] * len(vals_b)),
            "v": pa.array(np.concatenate([vals_a, vals_b]),
                          type=pa.float64()),
        }
    )
    qs = (0.5, 0.9, 0.99)

    def rank_err(sorted_vals, v, q):
        r = np.searchsorted(sorted_vals, v, side="right")
        return abs(r / len(sorted_vals) - q)

    sa, sb = np.sort(vals_a), np.sort(vals_b)
    for n_parts in (3, 16):
        ds = rd.from_arrow(t).repartition(n_parts)
        rows = {
            r["g"]: r
            for r in _collect(
                approx_quantiles_kll(ds, "g", "v", qs=qs)
            ).to_pylist()
        }
        for q in qs:
            name = f"p{q * 100:g}".replace(".", "_")
            assert rank_err(sa, rows["a"][name], q) <= 0.03, (n_parts, q)
            # group b fits inside one compactor: exact rank
            assert rank_err(sb, rows["b"][name], q) <= 1 / len(sb) + 1e-9


def test_kll_merge_block_order_invariant(ray_session):
    """r5 VERDICT #7: for a FIXED partitioning (same block contents),
    the merged sketch must be bit-identical no matter which order the
    blocks reach the merge — the canonical (level, value) sort inside
    the merge removes the executor's arrival-order nondeterminism."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import approx_quantiles_kll

    rng = np.random.RandomState(23)
    blocks = [pa.table({"g": pa.array(["x"] * 4000),
                        "v": pa.array(rng.lognormal(0, 2, 4000),
                                      type=pa.float64())})
              for _ in range(6)]

    def run(order):
        ds = rd.from_arrow(blocks[order[0]])
        for i in order[1:]:
            ds = ds.union(rd.from_arrow(blocks[i]))
        [row] = approx_quantiles_kll(ds, "g", "v").take_all()
        return row

    a = run([0, 1, 2, 3, 4, 5])
    b = run([5, 3, 1, 4, 2, 0])
    assert a == b  # bit-identical quantiles, not merely within-bound


def test_index_dedup_matches_batch_exact(ray_session):
    """Two-phase actor-index dedup == the batch exchange plan: same
    winners (global min doc_id), same multiplicities, regardless of
    which block offers first."""
    import ray.data as rd

    from ollama_ocr_ray.functions.dedup import exact_dedup
    from ollama_ocr_ray.state.dedup_index import DedupIndex, ingest_dedup

    rng = np.random.RandomState(23)
    texts = [f"unique document {i}" for i in range(200)]
    # plant dup groups spanning the id space (so winners cross blocks)
    for i in range(0, 200, 7):
        texts[i] = f"dup group {i % 3}"
    t = pa.table(
        {
            "doc_id": pa.array(rng.permutation(200).astype(np.int64)),
            "text": pa.array(texts),
        }
    )
    ds = rd.from_arrow(t).repartition(9)
    want = {
        (r["doc_id"], r["n_dups"])
        for r in _collect(exact_dedup(ds)).to_pylist()
    }
    got = {
        (r["doc_id"], r["n_dups"])
        for r in _collect(ingest_dedup(ds, DedupIndex(n_shards=3)))
                 .to_pylist()
    }
    assert got == want


def test_index_dedup_incremental_seal(ray_session):
    """The incremental contract: after seal(), new copies of old
    content DROP even with a smaller doc_id; genuinely new content
    survives; dups within the new ingest resolve to their own min."""
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import DedupIndex, ingest_dedup

    index = DedupIndex(n_shards=2)
    a = pa.table(
        {
            "doc_id": pa.array([100, 101, 102], type=pa.int64()),
            "text": pa.array(["old news", "old story", "old view"]),
        }
    )
    kept_a = {
        r["doc_id"]
        for r in _collect(
            ingest_dedup(rd.from_arrow(a).repartition(2), index)
        ).to_pylist()
    }
    assert kept_a == {100, 101, 102}
    assert index.seal() == 3

    b = pa.table(
        {
            # 5 < 100 but "old news" is sealed -> 5 must DROP
            "doc_id": pa.array([5, 6, 7, 8], type=pa.int64()),
            "text": pa.array(
                ["old news", "fresh take", "fresh take", "brand new"]
            ),
        }
    )
    kept_b = {
        (r["doc_id"], r["n_dups"])
        for r in _collect(
            ingest_dedup(rd.from_arrow(b).repartition(2), index)
        ).to_pylist()
    }
    assert kept_b == {(6, 2), (8, 1)}


def test_heavy_hitters_refuses_unseen_heavy_hitter(ray_session):
    """Review counterexample: a token dropped from EVERY block's top-m
    (rotating decoys outrank it per block) can still be the true #1 —
    the certificate must detect cut <= 0 under truncation and raise,
    never return a silently wrong top-k."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import heavy_hitters_exact

    blocks = []
    for b in range(40):
        toks = []
        for d in range(4):                 # per-block decoys, count 10
            toks += [f"a{(b * 4 + d) % 15:02d}"] * 10
        toks += ["xx"] * 9                 # the hidden global #1
        blocks.append(" ".join(toks))
    ds = rd.from_arrow(pa.table({"text": pa.array(blocks)})) \
           .repartition(40)
    with pytest.raises(ValueError, match="unseen|increase m"):
        heavy_hitters_exact(ds, k=3, m=4).materialize()
    # with an adequate m the same input is answered exactly
    got = [
        (r["token"], r["cnt"])
        for r in _collect(heavy_hitters_exact(ds, k=1, m=64)).to_pylist()
    ]
    assert got == [("xx", 360)]


def test_heavy_hitters_empty_input(ray_session):
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import heavy_hitters_exact

    ds = rd.from_arrow(pa.table({"text": pa.array([], type=pa.string())}))
    out = _collect(heavy_hitters_exact(ds, k=5, m=8))
    assert out.num_rows == 0


def test_exact_top_counts_df_vocab(ray_session):
    """The r5 tfidf vocabulary path: exact_top_counts over per-block
    DOCUMENT-frequency partials.  A Zipf-ish df corpus with vocab > k
    exercises the candidate-cut path; the result must equal the brute
    top-k by (df DESC, token ASC).  A vocab < k corpus with
    allow_fewer returns the full exact vocabulary."""
    from collections import defaultdict

    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import exact_top_counts
    from ollama_ocr_ray.functions.text import vocab_df_partial

    def df_partial(batch):
        out = vocab_df_partial(batch)
        return pa.table({"token": out.column("token"),
                         "cnt": out.column("df")})

    # token ti appears in every doc with doc_id % (i+1) == 0 → df is
    # Zipf-ish (t0 in all docs, t39 in 1/40 of docs), 40-token vocab
    n_docs, n_vocab, k = 400, 40, 10
    texts = [" ".join(f"t{i:02d}" for i in range(n_vocab)
                      if d % (i + 1) == 0) for d in range(n_docs)]
    truth = defaultdict(int)
    for txt in texts:
        for tok in set(txt.split()):
            truth[tok] += 1
    expect = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    t = pa.table({"doc_id": pa.array(range(n_docs), type=pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(8)
    got = [(r["token"], r["cnt"]) for r in exact_top_counts(
        ds, k=k, m=64, partial_counts=df_partial,
        op="vocab_test").take_all()]
    assert got == expect

    # allow_fewer: k far above the vocabulary → full exact df table
    got_all = [(r["token"], r["cnt"]) for r in exact_top_counts(
        ds, k=1000, m=256, partial_counts=df_partial,
        allow_fewer=True, op="vocab_small").take_all()]
    assert got_all == sorted(truth.items(),
                             key=lambda kv: (-kv[1], kv[0]))


def test_bloom_non_multiple_of_8_bits(ray_session):
    """bits not divisible by 8 must not index past the byte array."""
    import ray.data as rd

    from ollama_ocr_ray.functions.contamination import (
        decontaminate,
        decontaminate_bloom,
    )

    texts = [f"tok{i} tok{i+1} tok{i+2} tok{i+3}" for i in range(40)]
    texts[10] = texts[0]  # doc 0 is eval (0 % 7 == 0): planted overlap
    t = pa.table({"doc_id": pa.array(range(40), type=pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(3)

    def rows(out):
        return sorted(
            (r["doc_id"], r["n_overlap"]) for r in _collect(out).to_pylist()
        )

    assert rows(decontaminate_bloom(ds, eval_mod=7, k=3, bits=101,
                                    n_hashes=3)) == \
        rows(decontaminate(ds, eval_mod=7, k=3))


def test_index_dedup_offer_idempotent_under_replay(ray_session):
    """A replayed phase-1 offer (task retry / rerun against an
    unsealed index) must not inflate multiplicities."""
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import DedupIndex, ingest_dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(["x", "x", "y", "z"]),
        }
    )
    index = DedupIndex(n_shards=2)
    ds = rd.from_arrow(t).repartition(2)
    first = {
        (r["doc_id"], r["n_dups"])
        for r in _collect(ingest_dedup(ds, index)).to_pylist()
    }
    assert first == {(1, 2), (3, 1), (4, 1)}
    # full rerun of the same ingest against the same unsealed index:
    # same idempotency keys -> counts unchanged
    again = {
        (r["doc_id"], r["n_dups"])
        for r in _collect(ingest_dedup(ds, index)).to_pylist()
    }
    assert again == first


def test_index_dedup_save_load_cross_job(ray_session, tmp_path):
    """The cross-job incremental contract: ingest + seal + save, then
    a FRESH index (as a new job would build) loads the snapshot and
    drops new copies of old content while keeping new content; a
    second save to the same path refuses (snapshots are append-only)."""
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import DedupIndex, ingest_dedup

    a = pa.table(
        {
            "doc_id": pa.array([100, 101], type=pa.int64()),
            "text": pa.array(["old news", "old story"]),
        }
    )
    idx = DedupIndex(n_shards=3)
    ingest_dedup(rd.from_arrow(a).repartition(2), idx).materialize()
    snap = str(tmp_path / "index-epoch-0")
    assert idx.save(snap) == 2

    idx2 = DedupIndex.load(snap)
    assert idx2.n_shards == 3
    b = pa.table(
        {
            "doc_id": pa.array([5, 6], type=pa.int64()),
            "text": pa.array(["old news", "genuinely new"]),
        }
    )
    kept = {
        r["doc_id"]
        for r in _collect(
            ingest_dedup(rd.from_arrow(b).repartition(2), idx2)
        ).to_pylist()
    }
    assert kept == {6}

    with pytest.raises(FileExistsError, match="append-only"):
        idx2.save(snap)


def test_read_documents_jsonl_source(ray_session, tmp_path):
    """The same schema-validated ingest over a JSONL container:
    identical rows as the parquet path, and mixed-format directories
    refuse loudly.  (CSV dispatch shares this path but is not
    round-tripped here: CSV null semantics differ for nullable
    columns.)"""
    import json

    import pyarrow.parquet as pq

    from ollama_ocr_ray.sources.io import read_documents
    from ollama_ocr_ray import synth

    table = synth.gen_table(40, seed=9)
    pq_dir = tmp_path / "pq"
    pq_dir.mkdir()
    pq.write_table(table, pq_dir / "part-0.parquet")
    want = read_documents(str(pq_dir)).take_all()

    jl_dir = tmp_path / "jl"
    jl_dir.mkdir()
    rows = table.to_pylist()
    with open(jl_dir / "part-0.jsonl", "w") as f:
        for r in rows[:20]:
            f.write(json.dumps(r) + "\n")
    with open(jl_dir / "part-1.jsonl", "w") as f:
        for r in rows[20:]:
            f.write(json.dumps(r) + "\n")
    got = read_documents(str(jl_dir)).take_all()
    key = lambda r: r["doc_id"]  # noqa: E731
    assert sorted(got, key=key) == sorted(want, key=key)

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    pq.write_table(table, mixed / "a.parquet")
    with open(mixed / "b.jsonl", "w") as f:
        f.write(json.dumps(rows[0]) + "\n")
    with pytest.raises(ValueError, match="mixed container"):
        read_documents(str(mixed))


def test_epoch_shuffle_brute_force_and_invariance(ray_session):
    """epoch_shuffle == pure-Python reference (sample_keys + per-shard
    rank by (key, id)): exhaustive, positions contiguous from 0 within
    every shard, invariant to input partitioning."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import epoch_shuffle, sample_keys

    ids = np.arange(5_000, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids)})
    keys = sample_keys(ids, 4242)
    by_shard = {}
    for i, k in zip(ids.tolist(), keys.tolist()):
        by_shard.setdefault(int(k % 16), []).append((int(k), i))
    want = {}
    for s, rows in by_shard.items():
        for pos, (k, i) in enumerate(sorted(rows)):
            want[i] = (s, k, pos)

    def run(n_parts):
        ds = rd.from_arrow(t).repartition(n_parts)
        return {
            r["doc_id"]: (r["shard"], r["sample_key"], r["pos"])
            for r in _collect(
                epoch_shuffle(ds, seed=4242, n_shards=16)).to_pylist()
        }

    a3, a11 = run(3), run(11)
    assert a3 == a11 == want
    # shard sizes near-uniform for the mixed hash
    from collections import Counter

    sizes = Counter(s for s, _, _ in a3.values())
    assert len(sizes) == 16 and max(sizes.values()) < 2 * min(sizes.values())


def test_epoch_shuffle_seed_changes_order(ray_session):
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import epoch_shuffle

    t = pa.table({"doc_id": pa.array(np.arange(500, dtype=np.int64))})
    a = {r["doc_id"]: (r["shard"], r["pos"])
         for r in _collect(
             epoch_shuffle(rd.from_arrow(t), seed=1, n_shards=8)
         ).to_pylist()}
    b = {r["doc_id"]: (r["shard"], r["pos"])
         for r in _collect(
             epoch_shuffle(rd.from_arrow(t), seed=2, n_shards=8)
         ).to_pylist()}
    assert a != b


def test_ccnet_buckets_tertiles_and_edges(ray_session):
    """Bucket thresholds are pinned integer tertiles of the exact
    percent rank; a single-doc lang ranks 0 (tail); docs without
    bigrams score 0."""
    import ray.data as rd

    from ollama_ocr_ray.functions.lm import ccnet_buckets

    # model = top-1 bigram ('aa bb' dominates); en docs cover it at
    # fractions 1, 1/2, 0, 2/3, 0, 1/3 -> distinct familiarity ranks.
    texts = [
        "aa bb",
        "aa bb cc",
        "cc dd",
        "aa bb aa bb",
        "cc dd ee",
        "aa bb cc dd",
        "solo",                        # lang xx, no bigram
    ]
    langs = ["en"] * 6 + ["xx"]
    t = pa.table(
        {
            "doc_id": pa.array(range(7), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
        }
    )
    rows = {r["doc_id"]: r
            for r in _collect(
                ccnet_buckets(rd.from_arrow(t), vocab_size=1)
            ).to_pylist()}
    assert rows[6]["familiarity_bp"] == 0
    assert rows[6]["pct_bp"] == 0 and rows[6]["bucket"] == "tail"
    # en group: rank by familiarity; the lowest doc is tail, the
    # highest head; pct_bp = strictly-below * 10000 // 6
    fam = {i: rows[i]["familiarity_bp"] for i in range(6)}
    for i in range(6):
        below = sum(1 for j in range(6) if fam[j] < fam[i])
        assert rows[i]["pct_bp"] == below * 10_000 // 6
        want = ("head" if rows[i]["pct_bp"] >= 6667
                else "middle" if rows[i]["pct_bp"] >= 3333 else "tail")
        assert rows[i]["bucket"] == want
    assert {rows[i]["bucket"] for i in range(6)} >= {"head", "tail"}


def test_blocklist_stats_boundary():
    """Exact-integer bp rule: a doc at exactly max_bp keeps, one bp
    over drops; empty docs keep (0 flagged of 0 tokens)."""
    import pyarrow as pa

    from ollama_ocr_ray.functions.text import blocklist_stats_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array([
                # 1 flagged of 10 tokens -> 1000 bp
                "slow a b c d e f g h i",
                # 0 flagged of 3 tokens -> 0 bp; case-folded match
                "fast quick rapid",
                # SLOW upper-cases to a hit: 1 of 2 -> 5000 bp
                "SLOW down",
                "",
            ]),
        }
    )
    out = blocklist_stats_batch(batch, max_bp=1000).to_pylist()
    assert [r["flag_bp"] for r in out] == [1000, 0, 5000, 0]
    assert [r["keep"] for r in out] == [True, True, False, True]
    assert out[0]["n_tokens"] == 10 and out[0]["n_flagged"] == 1


def test_temperature_rates_alpha_half(ray_session):
    """4:1 strata -> smallest keeps 10000 bp, the 4x one keeps
    floor(10000*sqrt(1/4)) = 5000; floor_bp guards the huge stratum."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions.sampling import temperature_rates

    t = pa.table(
        {
            "doc_id": pa.array(range(10), type=pa.int64()),
            "lang": pa.array(["a"] * 8 + ["b"] * 2),
        }
    )
    rates = temperature_rates(rd.from_arrow(t).repartition(3),
                              stratum_col="lang")
    assert rates == {"a": 5000, "b": 10000}
    assert temperature_rates(
        rd.from_arrow(t.slice(0, 0)), stratum_col="lang"
    ) == {}


def _rand_graph(seed: int, n_nodes: int = 60, n_edges: int = 400):
    import numpy as np

    rng = np.random.default_rng(seed)
    # hub-skewed multigraph with sinks and sources
    src = (rng.zipf(1.6, n_edges) % n_nodes).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges, dtype=np.int64)
    return src, dst


def test_pagerank_paths_match_reference(ray_session):
    """Broadcast and co-partitioned plans both reproduce the
    independent dict-loop reference bit-for-bit, across block splits
    (the multigraph has hot hub keys)."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions.graph import pagerank, \
        pagerank_reference

    src, dst = _rand_graph(7)
    want = pagerank_reference(src, dst, iters=3, scale=10 ** 9)
    edges = rd.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst),
    })).repartition(13)

    got_b = {r["node"]: r["rank_scaled"]
             for r in pagerank(edges, iters=3, scale=10 ** 9).take_all()}
    assert got_b == want

    got_p = {r["node"]: r["rank_scaled"]
             for r in pagerank(edges, iters=3, scale=10 ** 9,
                               broadcast_max_nodes=0).take_all()}
    assert got_p == want


def test_pagerank_empty_and_guard(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ollama_ocr_ray.functions.graph import pagerank

    empty = rd.from_arrow(pa.table({
        "src": pa.array([], type=pa.int64()),
        "dst": pa.array([], type=pa.int64()),
    }))
    assert pagerank(empty, iters=2).take_all() == []

    two = rd.from_arrow(pa.table({
        "src": pa.array([1], type=pa.int64()),
        "dst": pa.array([2], type=pa.int64()),
    }))
    with pytest.raises(Exception, match="guard"):
        pagerank(two, iters=2, scale=2 ** 61).take_all()


def test_bpe_known_merges_and_encode(ray_session):
    """Hand-checkable corpus: 'aaab' x3 + 'aab'.  Round 1: (a,a)=7 >
    (a,b)=4 -> merge (a,a); round 2 ties (aa,a)=3 and (a,b)=3 ->
    lexicographic min ('a','b'); round 3 merges (aa,ab) so 'aaab'
    round-trips to one token.  Checked against the reference too, plus
    partitioning invariance of the encode pass."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions import bpe

    texts = ["aaab aaab", "aaab aab"]
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(texts),
    })
    ds = rd.from_arrow(t)
    hist = bpe.word_histogram(ds)
    assert hist == {"aaab": 3, "aab": 1}
    merges = bpe.train_bpe(hist, num_merges=3)
    assert merges == [("a", "a"), ("a", "b"), ("aa", "ab")]
    ref_merges, ref_enc = bpe.bpe_reference(texts, num_merges=3)
    assert merges == ref_merges

    ranks = {p: i for i, p in enumerate(merges)}
    assert bpe.encode_word("aaab", ranks) == ("aaab",)
    assert bpe.encode_word("aab", ranks) == ("aa", "b")
    assert ref_enc[1] == ["aaab", "aa", "b"]

    # encode pass is partitioning-invariant (per-doc outputs)
    big = pa.table({
        "doc_id": pa.array(range(40), type=pa.int64()),
        "text": pa.array((texts * 20)[:40]),
    })
    one = {r["doc_id"]: (r["n_bpe_tok"], r["tok_digest"])
           for r in bpe.bpe_encode(rd.from_arrow(big),
                                   merges=merges).take_all()}
    many = {r["doc_id"]: (r["n_bpe_tok"], r["tok_digest"])
            for r in bpe.bpe_encode(rd.from_arrow(big).repartition(11),
                                    merges=merges).take_all()}
    assert one == many


def test_bpe_histogram_cap(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ollama_ocr_ray.functions import bpe

    t = pa.table({
        "doc_id": pa.array([0], type=pa.int64()),
        "text": pa.array(["one two three four"]),
    })
    with pytest.raises(RuntimeError, match="word types"):
        bpe.word_histogram(rd.from_arrow(t), cap=2)


def test_linear_classifier_lattice_invariance(ray_session):
    """Training on the integer lattice is partitioning-invariant:
    weights from 1-block and 9-block layouts are identical and match
    the independent loop reference; truncating division is pinned
    (negative gradients exercise it)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.functions import classifier as fcls

    rng = np.random.default_rng(5)
    n = 300
    langs = np.where(rng.random(n) < 0.4, "en", "de")
    texts = [
        " ".join((["the", "and", "of"] if l == "en" else ["der", "und"])
                 * int(rng.integers(1, 6)))
        for l in langs
    ]
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(langs.tolist()),
    })
    feats1 = rd.from_arrow(t).map_batches(
        fcls.featurize_batch, batch_format="pyarrow")
    feats9 = rd.from_arrow(t).repartition(9).map_batches(
        fcls.featurize_batch, batch_format="pyarrow").materialize()

    w1 = fcls.train_linear(feats1, iters=3)
    w9 = fcls.train_linear(feats9, iters=3)

    ft = fcls.featurize_batch(t)
    wref = fcls.train_linear_reference(
        ft.column("f1").to_pylist(), ft.column("f2").to_pylist(),
        ft.column("f3").to_pylist(), ft.column("y").to_pylist(),
        iters=3)
    assert w1 == w9 == wref
    assert any(x != 0 for x in w1)  # it actually moved

    scored = {r["doc_id"]: r["pred_bp"]
              for r in fcls.score_linear(feats9, w9).take_all()}
    assert len(scored) == n and all(0 <= v <= 10000
                                    for v in scored.values())


def test_tdiv_truncates_like_duckdb():
    import numpy as np

    from ollama_ocr_ray.functions.classifier import _tdiv_int, _tdiv_vec

    assert _tdiv_int(-7, 2) == -3 and _tdiv_int(7, 2) == 3
    assert _tdiv_vec(np.array([-7, 7, -1, 0]), 2).tolist() == \
        [-3, 3, 0, 0]


def test_lexical_diversity_matches_bruteforce():
    """Engine TTR vs a per-doc Python set/len brute force — empty
    docs, all-duplicate docs, padding whitespace, unicode tokens."""
    from ollama_ocr_ray.functions.text import lexical_diversity_batch

    texts = ["a b a  c", "", "x x x", "  ", "uno dos tres", "é é e",
             "word " * 50 + "tail"]
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts),
    })
    out = lexical_diversity_batch(t)
    for i, text in enumerate(texts):
        toks = [w for w in text.split() if w]
        nt, ty = len(toks), len(set(toks))
        assert out.column("n_tokens")[i].as_py() == nt
        assert out.column("n_types")[i].as_py() == ty
        assert out.column("ttr_bp")[i].as_py() == (ty * 10000) // max(nt, 1)


def test_nfc_stability_bound_bruteforce():
    """The fast-path invariant behind NFC_SAFE_BOUND: every singleton
    below U+0300 and every ordered pair from a seeded 30k sample is
    already NFC (combining marks, composing second elements, and
    non-recomposing singletons all live at or above the bound)."""
    import unicodedata

    from ollama_ocr_ray.functions.text import NFC_SAFE_BOUND

    for c in range(NFC_SAFE_BOUND):
        s = chr(c)
        assert unicodedata.normalize("NFC", s) == s
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, NFC_SAFE_BOUND, size=(30000, 2))
    for a, b in pairs:
        s = chr(a) + chr(b)
        assert unicodedata.normalize("NFC", s) == s


def test_normalize_nfc_scatter_and_idempotence():
    """Mixed batch: flagged docs at scattered positions normalize
    (decomposed -> composed), unflagged pass through zero-copy; the
    pass is idempotent and char counts are codepoint-exact."""
    import unicodedata

    from ollama_ocr_ray.functions.text import normalize_nfc_batch

    dec = "cafe\u0301 con leche"  # decomposed; composes 1 shorter
    comp = "caf\u00e9 done"       # already NFC, >= bound chars
    texts = ["ascii one", dec, "ascii two", comp, dec + " " + dec,
             "", "\u212bngstrom unit"]  # U+212B -> U+00C5
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts),
    })
    out = normalize_nfc_batch(t)
    got = out.column("text").to_pylist()
    assert got == [unicodedata.normalize("NFC", s) for s in texts]
    assert out.column("changed").to_pylist() == [
        False, True, False, False, True, False, True]
    for i, s in enumerate(texts):
        assert out.column("n_chars_before")[i].as_py() == len(s)
        assert out.column("n_chars_after")[i].as_py() == len(got[i])
    again = normalize_nfc_batch(out.select(["doc_id", "text"]))
    assert again.column("text").to_pylist() == got
    assert not any(again.column("changed").to_pylist())


def test_source_boilerplate_bruteforce(ray_session):
    """Engine vs a per-doc Python brute force on a corpus where the
    boilerplate outcome is mixed: one word universal in src A only,
    one universal in both, one rare; plus a doc with no >=3-char
    words (n_units=0 row must still appear) and partitioning across
    blocks (distinct-doc df must not double-count a repeating doc)."""
    import ray.data as rd

    from ollama_ocr_ray.functions.text import source_boilerplate

    rows = []
    for i in range(8):
        rows.append({"doc_id": i, "source": "A",
                     "text": "nav nav common extra%d xx" % i})
    for i in range(8, 16):
        rows.append({"doc_id": i, "source": "B",
                     "text": "common footer uniq%d" % i})
    rows.append({"doc_id": 16, "source": "B", "text": "a b c"})
    ds = rd.from_items(rows, override_num_blocks=4)
    out = {r["doc_id"]: r for r in source_boilerplate(
        ds, thr_bp=8000, min_len=3).take_all()}

    # brute force
    from collections import defaultdict
    docs = {r["doc_id"]: (r["source"],
                          {w for w in r["text"].split() if len(w) >= 3})
            for r in rows}
    df = defaultdict(int)
    n_src = defaultdict(int)
    for _, (s, ws) in docs.items():
        n_src[s] += 1
    for _, (s, ws) in docs.items():
        for w in ws:
            df[(s, w)] += 1
    hot = {k for k, v in df.items() if v * 10000 > 8000 * n_src[k[0]]}
    assert len(out) == len(rows)
    any_boiler = any_clean = False
    for d, (s, ws) in docs.items():
        nb = sum(1 for w in ws if (s, w) in hot)
        assert out[d]["n_units"] == len(ws)
        assert out[d]["n_boiler"] == nb
        assert out[d]["boiler_bp"] == (nb * 10000) // max(len(ws), 1)
        any_boiler |= nb > 0
        any_clean |= nb < len(ws)
    assert any_boiler and any_clean  # the gate actually bites
    # per-source scoping: 'nav' is boilerplate in A, absent in B;
    # 'common' is boilerplate in both; B's one-word docs score on
    # footer+common only
    assert ("A", "nav") in hot and ("B", "nav") not in hot
    assert ("A", "common") in hot and ("B", "common") in hot


def test_source_boilerplate_cap_trips(ray_session):
    """The broadcast bound is LOUD: a qualifying set larger than
    max_boiler raises instead of silently broadcasting."""
    import ray.data as rd

    from ollama_ocr_ray.functions.text import source_boilerplate

    rows = [{"doc_id": i, "source": "A",
             "text": "aaa bbb ccc ddd eee"} for i in range(4)]
    ds = rd.from_items(rows)
    with pytest.raises(ValueError, match="qualifying keys"):
        source_boilerplate(ds, thr_bp=1000, max_boiler=2).take_all()

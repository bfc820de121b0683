"""Driver-checkable query registry: every operator from SURVEY.md §2 and
the training-data-pipeline suite, as callables over an sf_dir plus (where
SQL-expressible) a DuckDB oracle string with matching column names.

None of these call ray.init — the session is owned by the caller.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .functions import contamination, dedup, relational, sampling, \
    similarity, text as ftext

# Stopword literal shared with oracle SQL strings.
_STOP_SQL = "('the','and','of','a','in','to')"
# Whitespace-run tokenizer matching the engine's (non-empty tokens
# only).  CORPUS ASSUMPTION (ADVICE r4): RE2 '\s+' here is ASCII
# whitespace while the engine's Arrow utf8_split_whitespace is Unicode
# whitespace — equivalent only while the corpus has no non-ASCII
# whitespace (U+00A0, U+2028, ...).  The synthetic corpus is ASCII; a
# future non-ASCII corpus must widen this regex (e.g. '[\s ]+')
# or selfcheck will flag the tokenizing queries, not silently pass.
_TOKS_SQL = "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')"
_LTOKS_SQL = ("list_filter(regexp_split_to_array(lower(text), '\\s+'), "
              "x -> x <> '')")
_BPE_SQL = r"[a-z]+|[0-9]+|[^a-z0-9\s]"

# exact word-3-shingle Jaccard over all pairs — quadratic, fine for the
# oracle at sf0.01 (the Ray plan is MinHash-LSH banding + exact verify
# on LSH candidates; with r=4 rows x b=16 bands the miss probability at
# the 0.8 threshold is ~2e-4 and the fixed seed pins the output, so the
# sets match exactly).  The threshold is applied as intersect/union >=
# 0.8 (NOT intersect >= 0.8*union): 0.8 is inexact in binary and the
# two forms round differently at the boundary; the division form is
# what the Ray verify stage computes.  Shared by the minhash_dedup and
# dup_clusters oracles.
_MINHASH_PAIRS_SQL = """
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split_regex(text, '\\s+'),
                         x -> x <> '') AS t
      FROM documents
    ), shingled AS (
      SELECT doc_id,
             list_distinct(
               CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
               ELSE list_transform(range(1, len(t) - 1),
                      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
               END) AS s
      FROM toks
    )
    SELECT a.doc_id AS a_id, b.doc_id AS b_id,
           CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
             / len(list_distinct(list_concat(a.s, b.s))) AS jaccard
    FROM shingled a JOIN shingled b ON a.doc_id < b.doc_id
    WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / len(list_distinct(list_concat(a.s, b.s))) >= 0.8
"""


_ROWS_PER_BLOCK = 25_000


def _read(sf_dir: str, table: str, columns=None, onb=None):
    """Pruned parquet read with size-aware block count: Ray's default
    splits even a 5k-row table into ~2x-CPUs blocks, and every
    downstream task is one driver dispatch (~16-44/s ceiling,
    BASELINE.md) — so blocks scale with ROWS (one cheap metadata read),
    floored at 8 so small sf levels still parallelize.  Explicit
    ``onb`` wins where a query knows better."""
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    if onb is None:
        onb = max(8, pq.read_metadata(path).num_rows // _ROWS_PER_BLOCK)
    return rd.read_parquet(path, columns=columns, override_num_blocks=onb)


# --- corpus synthesis sizing for the extraction queries ---------------------
_CORPUS_DOCS = {"sf0.001": 100, "sf0.01": 400, "sf0.1": 2000}


def _corpus_path(sf_dir: str) -> str:
    import os

    from . import synth

    name = os.path.basename(sf_dir.rstrip("/"))
    n = _CORPUS_DOCS.get(name, 200)
    return synth.write_corpus("/tmp/ollama_ocr_ray_corpus", n, seed=42)


# --- query callables --------------------------------------------------------


def q_doc_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.token_stats_batch, batch_format="pyarrow") \
             .select_columns(["doc_id", "n_tokens", "n_stop", "stop_ratio"])


def q_bpe_token_count(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.bpe_count_batch, batch_format="pyarrow") \
             .select_columns(["doc_id", "n_bpe"])


def q_lang_summary(sf_dir: str):
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "chars": pc.utf8_length(batch.column("text")).cast(pa.int64()),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("lang").aggregate([("chars", "sum"), ("one", "sum")])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("lang").aggregate(
        Sum("chars_sum", alias_name="total_chars"),
        Sum("one_sum", alias_name="n_docs"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        tc = batch.column("total_chars").to_numpy(zero_copy_only=False)
        nd = batch.column("n_docs").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": pa.array(nd, type=pa.int64()),
                "total_chars": pa.array(tc, type=pa.int64()),
                "avg_chars": pa.array(tc / nd),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_exact_dedup(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.exact_dedup(ds)


def q_top_docs(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return relational.top_docs_by_len(ds, k=100)


def q_pricing_summary(sf_dir: str):
    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    return relational.pricing_summary(ds)


def q_segment_revenue(sf_dir: str):
    """Co-partitioned plan (VERDICT r3 #1): customer is a
    fact-proportional table, so no driver-side dict."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    return relational.segment_revenue_join(orders, cust)


def q_events_hourly(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_type", "ts", "user_id", "value"])
    # test-scale knob: the per-batch partials collapse to ~100k scalar
    # rows, so 8 sort partitions beat block-proportional dispatch
    # (every sorted block costs one task in each downstream pass);
    # leave None at real scale where the partial output is large
    return relational.events_hourly(ev, sort_partitions=8)


def _query_matrix(sf_dir: str, q_ids: list[int]):
    # pruned driver read: only the row groups containing the query ids
    # leave storage (round 1 read the whole embeddings table to pick 5)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(q_ids))],
    )
    ids = np.asarray(t.column("vec_id"))
    rows = []
    for q in q_ids:
        idx = int(np.nonzero(ids == q)[0][0])
        rows.append(np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64))
    return np.stack(rows), np.array(q_ids, dtype=np.int64)


def q_knn_cosine(sf_dir: str):
    qm, qids = _query_matrix(sf_dir, [0, 1, 2, 3, 4])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                onb=8)
    return similarity.knn_cosine(emb, qm, qids, k=10)


def q_knn_join(sf_dir: str):
    """Exact k-NN SELF-join: every vector's top-5 cosine neighbors via
    the block-pair exchange + partial-top-k merge (the corpus-wide
    similarity-search step; knn_cosine covers the broadcast-query
    case).  Rank-only output like knn_cosine so floats never enter the
    hash compare."""
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                onb=8)
    return similarity.knn_join(emb, k=5, n_blocks=4)


def q_embedding_near_dup(sf_dir: str):
    # exact block-pair plan: no driver-side full-matrix read/broadcast
    # (VERDICT r1 #4); the clustered scale path is gated against it
    # (q_semdedup_gate)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                onb=8)
    out = similarity.embedding_near_dup_blocked(emb, threshold=0.45)
    return out.select_columns(["a_id", "b_id"])


def q_emb_dedup_apply(sf_dir: str):
    """Semantic dedup APPLY (SemDeDup keep-rule, exact form): drop
    every vector that has a cosine-near-duplicate with a smaller
    vec_id; keep the rest.  Pairs from the exact block-pair plan
    (a_id < b_id by construction), droplist = the b side, then the
    co-partitioned left-anti join — the same apply shape as
    dedup_apply, over embeddings."""
    emb = _read(sf_dir, "embeddings",
                columns=["vec_id", "embedding", "label"], onb=8)
    pairs = similarity.embedding_near_dup_blocked(
        emb.select_columns(["vec_id", "embedding"]), threshold=0.45
    )

    def droplist(b: pa.Table) -> pa.Table:
        return pa.table({"vec_id": b.column("b_id")})

    drop = pairs.map_batches(droplist, batch_format="pyarrow")
    kept = relational.anti_join(
        emb.select_columns(["vec_id", "label"]), drop,
        key="vec_id", left_cols=["label"],
    )
    return kept


def q_semdedup_gate(sf_dir: str):
    """Clustered-SemDeDup quality gate (the knn_lsh/media_features
    pattern: a driver-checkable boolean over deterministic synthetic
    input, because the testdata embeddings have NO true near-dups —
    max pair cosine 0.51).  Plants 100 near-dup triples (cos ~0.999)
    among 600 singletons, runs the clustered plan
    (similarity.semdedup_pairs_clustered, threshold 0.9) against the
    exact block-pair plan on the same vectors, and asserts precision
    == 1 (clustered pairs are a subset by construction) and recall
    >= 0.9 (near-identical vectors co-assign to a centroid)."""
    import ray.data as rd

    rng = np.random.RandomState(7)
    dim, groups, singles = 32, 100, 600
    base = rng.standard_normal((groups, dim))
    vecs = [base[g] + 0.005 * rng.standard_normal(dim)
            for g in range(groups) for _ in range(3)]
    vecs += list(rng.standard_normal((singles, dim)))
    mat = np.asarray(vecs, dtype=np.float32)
    emb = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in mat],
                                  type=pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(emb).repartition(8)
    sample = mat[:256].astype(np.float64)
    clus = similarity.semdedup_pairs_clustered(
        ds, threshold=0.9, sample_matrix=sample, n_clusters=16
    )
    exact = similarity.embedding_near_dup_blocked(ds, threshold=0.9)
    cd = {(r["a_id"], r["b_id"]) for r in clus.take_all()}
    ed = {(r["a_id"], r["b_id"]) for r in exact.take_all()}
    recall = len(cd & ed) / max(len(ed), 1)
    return pa.table(
        {
            "n_exact_pairs": pa.array([len(ed)], type=pa.int64()),
            "precision_ok": pa.array([cd <= ed]),
            "recall_ok": pa.array([recall >= 0.9]),
        }
    )


def q_kmeans_gate(sf_dir: str):
    """Exact-lattice Lloyd k-means gate: the distributed plan
    (clustering.kmeans_lattice — one streaming pass per iteration,
    only k x blocks integer partials to the driver) against the
    independent single-process reference under the same pinned
    integer contract.  Assignments, centroids, and per-iteration
    objectives must be BIT-equal (the contract makes the result
    independent of partitioning), and the objective must descend
    monotonically: the lattice update step is the per-coordinate
    minimizer over lattice points, so exact Lloyd descent holds.
    The embeddings table is the bounded dimension-table side (2k rows
    at sf0.1) — the reference read is driver-safe by construction."""
    from .functions.clustering import (
        kmeans_lattice,
        kmeans_lattice_reference,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    assign_ds, cmat, objs = kmeans_lattice(ds, k=8, iters=4)
    got = {r["vec_id"]: (r["cluster"], r["d2"])
           for r in assign_ds.take_all()}

    rows = ds.take_all()
    vec_ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    want, cref, objs_ref = kmeans_lattice_reference(
        vec_ids, mat, k=8, iters=4
    )
    return pa.table(
        {
            "n_vecs": pa.array([len(rows)], type=pa.int64()),
            "assign_match": pa.array([got == want]),
            "centroids_match": pa.array(
                [bool(np.array_equal(cmat, cref))]
            ),
            "objective_monotone": pa.array(
                [objs == objs_ref
                 and all(a >= b for a, b in zip(objs, objs[1:]))]
            ),
        }
    )


def q_pca_gate(sf_dir: str):
    """PCA-projection gate (clustering.pca_project): the distributed
    plan — one scatter pass emitting a single d^2 partial per block,
    an O(d^2) driver eigensolve on the EXACT integer scatter, one
    exchange-free int64 projection pass — against the single-process
    reference (brute-force scatter + the shared principal_axes
    contract).  Projections must be bit-equal; the embeddings table is
    the bounded dimension side (2k rows at sf0.1)."""
    from .functions.clustering import pca_project, pca_project_reference

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    got = {r["vec_id"]: (r["pc0"], r["pc1"])
           for r in pca_project(ds, r=2).take_all()}

    rows = ds.take_all()
    vec_ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    want = pca_project_reference(vec_ids, mat, r=2)
    return pa.table(
        {
            "n_vecs": pa.array([len(rows)], type=pa.int64()),
            "projection_match": pa.array([got == want]),
        }
    )


# --- rows-only queries (not SQL-expressible) --------------------------------


def q_extract_canonical(sf_dir: str):
    """The flagship extraction (``auto_pipeline``: bounded probe, then
    the plan it picks on a probe-sized pool, capped at 8 actors for
    test-scale corpora) as the per-document summary table."""
    from .pipelines.extract import auto_pipeline, summary_table

    _, out = auto_pipeline(_read_corpus(sf_dir), with_stats=True,
                           ocr_concurrency=8)
    return summary_table(out)


def q_extract_fused(sf_dir: str):
    from .pipelines.extract import auto_pipeline

    _, out = auto_pipeline(_read_corpus(sf_dir), plan="fused",
                           ocr_concurrency=8)
    return out.map_batches(_spans_digest, batch_format="pyarrow")


def _read_corpus(sf_dir: str):
    from .sources.io import read_documents

    return read_documents(_corpus_path(sf_dir))


def _spans_digest(batch: pa.Table) -> pa.Table:
    """Flatten extracted rows to a deterministic digest table (rows-only
    compare still benefits from stable content)."""
    return _digest_rows(batch.to_pylist())


def _digest_rows(rows: list[dict]) -> pa.Table:
    """(doc_id, n_spans, digest) from extracted row dicts — shared by
    the pipeline side and the oracle side of the parity gates (digest
    FORMATTING is comparison plumbing; the extraction logic itself
    stays independently implemented per the span-equality contract)."""
    import hashlib

    out = {
        "doc_id": [r["doc_id"] for r in rows],
        "n_spans": [len(r["spans"]) for r in rows],
        "digest": [
            hashlib.sha256(
                "\x1f".join(
                    f"{s['kind']}\x1e{s['text']}\x1e{s['media_ref']}\x1e{s['order']}"
                    for s in r["spans"]
                ).encode()
            ).hexdigest()
            for r in rows
        ],
    }
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"]),
            "n_spans": pa.array(out["n_spans"], type=pa.int64()),
            "digest": pa.array(out["digest"]),
        }
    )


def q_extract_parity(sf_dir: str):
    """The probe-sized ``auto_pipeline`` path vs the independent
    sequential oracle as an oracle-checked registry query (VERDICT r2
    #4): one row per doc whose span digest differs between the two or which is
    missing from either — EXPECTED EMPTY, so the SQL oracle is the
    empty table.  Distributed compare: both sides' digests union into
    (doc_id, digest, side) rows, ONE sort co-locates each doc's pair,
    and a vectorized block pass flags bad segments (same sorted-block
    invariant as ``relational.hash_join``)."""
    from .pipelines.extract import auto_pipeline

    _, out = auto_pipeline(_read_corpus(sf_dir), ocr_concurrency=8)
    return _digest_parity(
        out.map_batches(_spans_digest, batch_format="pyarrow"),
        _oracle_digests(sf_dir, "text"))


def _digest_parity(a_ds, b_ds, key: str = "doc_id") -> pa.Table:
    """Distributed per-doc digest compare of two (doc_id, ..., digest)
    Datasets: union with a side tag, ONE sort on doc_id, vectorized
    block pass flags docs without exactly one digest per side or with
    differing digests.  Returns an arrow Table (expected empty; at
    worst corpus-bounded diagnostic rows) so the empty case keeps its
    schema through the driver comparator."""
    from .functions.dedup import _segment_bounds

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.combine_chunks()
            return pa.table(
                {
                    "doc_id": batch.column(key).cast(pa.string()),
                    "digest": batch.column("digest"),
                    "side": pa.array(
                        np.full(len(batch), side, dtype=np.int8)
                    ),
                }
            )
        return fn

    both = a_ds.map_batches(tag(0), batch_format="pyarrow").union(
        b_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    out_schema = pa.schema([("doc_id", pa.string()), ("reason", pa.string())])

    def mismatch_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=object)
        starts, ends = _segment_bounds(ids)
        counts = ends - starts
        dig = np.asarray(batch.column("digest").to_pylist(), dtype=object)
        side = batch.column("side").to_numpy(zero_copy_only=False)
        not_pair = counts != 2
        pair = ~not_pair
        # a pair must be one row from EACH side: two equal-digest rows
        # from the same plan (e.g. a duplicated-doc bug on one side,
        # with the doc missing from the other) must NOT pass the gate
        side_bad = np.zeros(len(starts), dtype=bool)
        side_bad[pair] = (side[starts[pair]] + side[starts[pair] + 1]) != 1
        diff = np.zeros(len(starts), dtype=bool)
        diff[pair] = dig[starts[pair]] != dig[starts[pair] + 1]
        sel = not_pair | side_bad | diff
        reason = np.select(
            [not_pair[sel], side_bad[sel]],
            ["n_sides!=2", "same-side-pair"],
            default="digest-mismatch",
        )
        return pa.table(
            {
                "doc_id": pa.array(list(ids[starts[sel]]), type=pa.string()),
                "reason": pa.array(reason),
            }
        ).cast(out_schema)

    # exact under doc-segment block splits (round-4 hardening): a split
    # doc segment would read as n_sides != 2 — a FALSE gate failure
    from .functions.folds import exact_segment_fold

    tag_schema = pa.schema(
        [("doc_id", pa.string()), ("digest", pa.string()),
         ("side", pa.int8())]
    )
    mism = exact_segment_fold(
        both.sort("doc_id"), key_cols=["doc_id"], fold=mismatch_block,
        raw_schema=tag_schema, out_schema=out_schema,
    )
    # materialize the expected-empty diagnostic as an arrow Table so
    # the empty case still carries its schema — an empty Dataset
    # iterates zero batches and the driver's comparator would see zero
    # COLUMNS.  The limit bounds the worst case (every doc mismatching
    # is corpus-sized) to a driver-safe diagnostic sample; any nonzero
    # row count fails the gate either way (VERDICT r3 wrong #2).
    rows = mism.limit(10_000).take_all()
    return pa.Table.from_pylist(rows, schema=out_schema)


def _oracle_digests(sf_dir: str, policy: str):
    """The independently implemented sequential oracle
    (``oracle.extract_document``), run DISTRIBUTED over the corpus (it
    is a pure per-doc function) and digested with the shared formatter —
    the comparison side of the plan-vs-oracle parity gates."""

    def fn(batch: pa.Table) -> pa.Table:
        from . import oracle as omod

        rows = [
            {"doc_id": d["doc_id"],
             "spans": omod.extract_document(d, policy=policy)["spans"]}
            for d in batch.to_pylist()
        ]
        return _digest_rows(rows)

    return _read_corpus(sf_dir).map_batches(fn, batch_format="pyarrow")


def _policy_oracle_gate(sf_dir: str, policy: str, plan: str = "fused"):
    """``plan`` under ``policy`` digest-compared against the independent
    sequential oracle over the same corpus; expected empty, so the SQL
    oracle is the empty table (shared body of the three policy-parity
    gates)."""
    from .pipelines.extract import auto_pipeline

    _, out = auto_pipeline(_read_corpus(sf_dir), policy=policy, plan=plan,
                           ocr_concurrency=8)
    return _digest_parity(
        out.map_batches(_spans_digest, batch_format="pyarrow"),
        _oracle_digests(sf_dir, policy))


def q_extract_multi(sf_dir: str):
    """Mode-dispatch parity (R4/R9) as a driver-checkable gate
    (VERDICT r2 #4): the fused 'multi' plan (each media span fans into
    3 ordered sub-spans) vs the sequential oracle."""
    return _policy_oracle_gate(sf_dir, "multi")


def q_extract_text_oracle(sf_dir: str):
    """Default-policy parity vs the independent sequential oracle on
    the split plan; ``extract_parity`` checks the plan the probe picks
    (fused: this corpus has no OCR latency) against the same oracle, so
    both plans are checked on every registry run (not just in
    pytest)."""
    return _policy_oracle_gate(sf_dir, "text", plan="split")


def q_extract_structured(sf_dir: str):
    """Structured-extraction parity (R7) as a driver-checkable gate:
    receipt-schema JSON spans vs the sequential oracle."""
    return _policy_oracle_gate(sf_dir, "structured")


def q_structured_receipts(sf_dir: str):
    """Typed receipts table parsed from 'structured'-policy extraction."""
    from .pipelines.extract import auto_pipeline, structured_receipts

    _, out = auto_pipeline(_read_corpus(sf_dir), policy="structured",
                           plan="fused", ocr_concurrency=8)
    return structured_receipts(out)


def q_minhash_dedup(sf_dir: str):
    # 16 blocks: every downstream sort/aggregate task is one driver
    # dispatch (~16-44/s ceiling, BASELINE.md); the documents table is
    # small relative to the block target, so fewer/larger tasks win
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=16)
    return dedup.minhash_dup_pairs(ds, threshold=0.8)


def q_simhash_dedup(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=16)
    return dedup.simhash_dup_pairs(ds, max_hamming=3)


def q_dup_clusters(sf_dir: str):
    """Near-dup pairs → connected components → keep-one-per-cluster
    assignment (the decision step a training-data dedup pipeline runs
    after pair generation)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=16)
    pairs = dedup.minhash_dup_pairs(ds, threshold=0.8)
    return dedup.dup_clusters(pairs)


def q_dedup_apply(sf_dir: str):
    """The APPLY step of exact dedup: strip every non-representative
    duplicate from the corpus with a co-partitioned left-anti join
    (documents × droplist, doc_id-keyed).  Both sides are large; only
    the droplist's int key column joins the payload exchange."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    texts = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return relational.anti_join(
        docs, dedup.exact_droplist(texts),
        key="doc_id", left_cols=["lang", "n_chars"],
    )


def q_fuzzy_dedup_apply(sf_dir: str):
    """END-TO-END fuzzy dedup (round-4 composition): MinHash-LSH
    candidate pairs → exact-Jaccard verify → connected-component
    clusters → droplist of non-representatives → co-partitioned
    anti_join strips them from the corpus.  Every stage is the
    already-proven operator; this is the keep-one-per-near-dup-cluster
    pipeline a pretraining corpus actually runs, with a fully composed
    recursive-CTE SQL oracle."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    texts = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=16)
    pairs = dedup.minhash_dup_pairs(texts, threshold=0.8)
    drop = dedup.cluster_droplist(dedup.dup_clusters(pairs))
    return relational.anti_join(docs, drop, key="doc_id",
                                left_cols=["lang", "n_chars"])


def q_tfidf_scores(sf_dir: str):
    """Two-pass TF-IDF scoring: bounded top-1000-token vocabulary
    (driver-collected, broadcast) then one streaming score pass;
    integer-scaled per-term summands make the result order-independent
    and hash-exact against SQL."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ftext.tfidf_scores(ds, vocab_size=1000)


def q_chars_quantiles(sf_dir: str):
    """Per-language exact p50/p90/p99 of document length via mergeable
    value-histogram partials (histogram-sized exchange — the scale-safe
    way to get exact quantiles over a bounded discrete domain)."""
    from .functions.sketches import grouped_quantiles

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return grouped_quantiles(ds, "lang", "n_chars", qs=(0.5, 0.9, 0.99))


def q_decontaminate(sf_dir: str):
    """Benchmark-decontamination scan: docs sharing a word-3-gram with
    the eval slice (doc_id % 101 == 0 stands in for a benchmark
    table).  Eval grams are driver-collected (benchmark-suite-sized)
    and broadcast into one streaming corpus pass — no shuffle."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return contamination.decontaminate(ds, eval_mod=101, k=3)


def q_vocab_top_terms(sf_dir: str):
    """Global vocabulary build: top-50 tokens by document frequency.
    Per-block partial DFs (vocabulary-sized) are the only exchange;
    full order (df DESC, token) makes the LIMIT cut deterministic."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    part = ds.map_batches(ftext.vocab_df_partial, batch_format="pyarrow")
    return (
        part.groupby("token").aggregate(Sum("df", alias_name="df"))
        .sort(["df", "token"], descending=[True, False])
        .limit(50)
    )


def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.lang_id_batch, batch_format="pyarrow") \
             .select_columns(["doc_id", "pred_lang"])


def q_doc_fingerprint(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.fingerprint_batch, batch_format="pyarrow") \
             .select_columns(["doc_id", "fingerprint"])


def _recall_summary(exact_ds, approx_ds, bound: float) -> pa.Table:
    """Driver-checkable ANN accuracy gate (VERDICT r2 #4, the
    ``approx_users`` within-bound pattern): mean recall@k of the ANN
    result against the in-pipeline exact ``knn_cosine``, emitted as one
    boolean row the SQL oracle can assert as constant TRUE.  Both
    result sets are k x n_queries rows — ``take_all`` is bounded.

    The bound is on the 5-query MEAN (per-query recall is noisy at
    test scales: measured LSH per-query 0.3-0.8, mean 0.48-0.58 across
    sf0.001-0.1).  A regenerated corpus/seed may shift the mean; if
    this gate trips after regeneration, re-measure before loosening."""
    from collections import defaultdict

    e: dict = defaultdict(set)
    a: dict = defaultdict(set)
    for r in exact_ds.take_all():
        e[r["q_id"]].add(r["vec_id"])
    for r in approx_ds.take_all():
        a[r["q_id"]].add(r["vec_id"])
    recalls = [len(e[q] & a[q]) / max(len(e[q]), 1) for q in sorted(e)]
    mean = sum(recalls) / max(len(recalls), 1)
    return pa.table(
        {
            "n_queries": pa.array([len(recalls)], type=pa.int64()),
            "mean_recall_ok": pa.array([mean >= bound], type=pa.bool_()),
        }
    )


def q_knn_lsh(sf_dir: str):
    """Hyperplane-LSH ANN, gated on mean recall@10 >= 0.35 vs the exact
    kNN computed alongside (the exact pass exists only to make the gate
    driver-checkable and doubles the query's cost by design, like
    ``approx_users``; production use is ``similarity.lsh_ann`` alone)."""
    qm, qids = _query_matrix(sf_dir, [0, 1, 2, 3, 4])
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                onb=8)
    approx = similarity.lsh_ann(emb, qm, qids, dim=qm.shape[1], k=10)
    exact = similarity.knn_cosine(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"], onb=8),
        qm, qids, k=10,
    )
    return _recall_summary(exact, approx, bound=0.35)


def q_distinct_lang_source(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    return ds.groupby(["lang", "source"]).aggregate(Count(alias_name="_n")) \
             .select_columns(["lang", "source"])


def q_docs_sample_mod(sf_dir: str):
    """Deterministic mod-sample: the reproducible corpus-subset operator
    (hash/mod pushdown filter, vectorized)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"))
        return batch.filter(pa.array(ids % 7 == 0))

    return ds.map_batches(keep, batch_format="pyarrow")


def q_lang_sample(sf_dir: str):
    """Seeded stratified sample (training-mix construction): the 20
    smallest-hash documents per language — reproducible across runs,
    orderings and cluster sizes.  The exchange carries at most
    k x strata x blocks rows of 3 scalar columns (partial top-k per
    block first), independent of corpus size."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    # fan_in=4 at test scale: the default 64 would EXPAND the handful of
    # candidate blocks and pay post-repartition dispatch for nothing
    # (measured, BASELINE.md r3)
    return sampling.sample_stratified(ds, stratum_col="lang", k=20,
                                      seed=9176, fan_in=4)


def q_source_mix(sf_dir: str):
    """Rate-based corpus mixing (Pile/Dolma-style source weighting):
    deterministic hash filter keeping src0 at 100%, src1 at 50%, src2
    at 25%, everything else at 12.5%.  Pure per-block filter — no
    exchange, reproducible, exact-integer thresholds on both sides."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return sampling.mix_by_rate(
        ds, rates_bp={"src0": 10000, "src1": 5000, "src2": 2500},
        default_bp=1250, seed=2718,
    )


def q_temp_mix(sf_dir: str):
    """Temperature-based multilingual rebalance (alpha=0.5, mC4/XLM-R
    style): per-language sampling rates from one bounded count pass
    (smallest language keeps 100%), then the exchange-free exact-hash
    mix.  sqrt/division are IEEE-exactly-rounded, so the basis-point
    rates — and therefore the kept set — reproduce bit-for-bit in the
    SQL oracle."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    rates = sampling.temperature_rates(ds, stratum_col="lang")
    return sampling.mix_by_rate(ds, rates_bp=rates, default_bp=10000,
                                seed=1618, source_col="lang")


def q_quality_classifier(sf_dir: str):
    """Linear quality classifier trained full-batch on the exact
    integer lattice (hard-sigmoid logistic, 3 GD iterations over
    token/stopword/char counts vs an is-English label) and applied as
    an exchange-free scoring pass.  Training is one streaming pass per
    iteration emitting a single 5-int partial per block; the unrolled
    DuckDB recurrence (truncating `//` on both sides) hash-matches the
    per-doc predictions bit-for-bit — functions/classifier.py."""
    from .functions import classifier as fcls

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    feats = ds.map_batches(fcls.featurize_batch, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    w = fcls.train_linear(feats, iters=3)
    return fcls.score_linear(feats, w)


def q_bpe_gate(sf_dir: str):
    """BPE tokenizer gate: the distributed trainer (one bounded
    word-histogram exchange + driver merge loop over word TYPES) and
    the exchange-free streaming encode against the independent
    raw-corpus reference implementation of the same pinned contract
    (functions/bpe.py module doc).  Merge tables must be identical,
    every document's token sequence must digest-match, and every
    corpus word must round-trip through its encoding."""
    from .functions import bpe
    from .functions.text import _polyhash_segments, _token_hash_vec

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    hist = bpe.word_histogram(ds)
    merges = bpe.train_bpe(hist, num_merges=200)
    got = {r["doc_id"]: (r["n_bpe_tok"], r["tok_digest"])
           for r in bpe.bpe_encode(ds, merges=merges).take_all()}

    # reference side: documents is the bounded gate-scale read (the
    # kmeans_gate pattern); the reference is single-process by design
    tbl = pq.read_table(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"])
    ids = tbl.column("doc_id").to_pylist()
    ref_merges, ref_enc = bpe.bpe_reference(
        tbl.column("text").to_pylist(), num_merges=200)
    want = {}
    for i, did in enumerate(ids):
        toks = ref_enc[i]
        th = _token_hash_vec(toks).astype(np.uint64)
        dig = _polyhash_segments(
            th, np.array([len(toks)], dtype=np.int64))
        want[did] = (len(toks), int(dig.view(np.int64)[0]))

    ranks = {p: i for i, p in enumerate(merges)}
    roundtrip = all(
        "".join(bpe.encode_word(w, ranks)) == w for w in hist
    )
    return pa.table(
        {
            "n_docs": pa.array([len(ids)], type=pa.int64()),
            "merges_match": pa.array([merges == ref_merges]),
            "encode_match": pa.array([got == want]),
            "roundtrip_ok": pa.array([roundtrip]),
        }
    )


def q_pagerank(sf_dir: str):
    """Exact-integer PageRank (3 power iterations, damping 85/100,
    scale 1e12) over the bipartite part<->supplier shipment graph —
    one edge per lineitem row in each direction, multi-edges counted.
    Edge-partitioned gather-scatter: one co-partitioned hash_join plus
    one pre-aggregated sum-by-destination exchange per iteration, no
    driver-side node state (functions/graph.py).  The unrolled DuckDB
    oracle reruns the identical integer recurrence."""
    from .functions import graph

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        p = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        s = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        part_n = 2 * p.astype(np.int64)
        supp_n = 2 * s.astype(np.int64) + 1
        return pa.table(
            {
                "src": pa.array(np.concatenate([part_n, supp_n])),
                "dst": pa.array(np.concatenate([supp_n, part_n])),
            }
        )

    edges = li.map_batches(to_edges, batch_format="pyarrow",
                           zero_copy_batch=True)
    return graph.pagerank(edges, iters=3, scale=10 ** 12)


def q_budget_select(sf_dir: str):
    """Token-budget data selection: keep the highest-quality docs
    until a 12k-token budget fills (quality DESC, doc_id tiebreak,
    inclusive running total).  One text pass, one sort exchange, then
    a driver-bounded block prefix-sum — see functions/selection.py.
    Result is the per-language doc/token profile of the selection."""
    from ray.data.aggregate import Sum

    from .functions import selection as fsel

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    sel = fsel.select_token_budget(ds, budget=12_000)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "toks": batch.column("n_tokens"),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("lang").aggregate([("toks", "sum"), ("one", "sum")])

    agg = sel.map_batches(partial, batch_format="pyarrow").groupby(
        "lang"
    ).aggregate(
        Sum("toks_sum", alias_name="sum_tokens"),
        Sum("one_sum", alias_name="n_docs"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("n_docs").cast(pa.int64()),
                "sum_tokens": batch.column("sum_tokens").cast(pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_lm_familiarity(sf_dir: str):
    """CCNet-style count-LM quality scoring: train a top-256 bigram
    model on the corpus (pass 1, bounded broadcast), score every doc's
    model coverage (pass 2, one streaming scan) — functions/lm.py.
    256 (not the production-scale 4096 default) because the synthetic
    corpus has ~900 distinct bigrams: the cut must actually bite for
    the score to discriminate (measured spread 833-6296 bp)."""
    from .functions.lm import lm_familiarity

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return lm_familiarity(ds, vocab_size=256)


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style head/middle/tail quality bucketing (lm.py
    ccnet_buckets): per-lang EXACT percent rank of the bigram-LM
    familiarity score, pinned integer tertiles.  Two LM passes + one
    bounded histogram exchange + an exchange-free label pass."""
    from .functions.lm import ccnet_buckets

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return ccnet_buckets(ds, vocab_size=256)


def q_dsir_scores(sf_dir: str):
    """DSIR-style hashed n-gram importance scores (functions/dsir.py):
    target = lang='en' docs, raw = the whole corpus; exact-integer
    ratio weights so the oracle hash-matches.  Two bounded exchanges
    (B-bucket histograms), one streaming score scan."""
    from .functions.dsir import dsir_scores

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return dsir_scores(ds, target_col="lang", target_value="en")


def q_dsir_select(sf_dir: str):
    """Deterministic top-100 importance-resampling draw: the selection
    step over q_dsir_scores' weights, via cap_per_group's partial-top-k
    plan (exchange bounded by k x blocks)."""
    from .functions.dsir import dsir_select

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return dsir_select(ds, k=100, target_col="lang", target_value="en")


def q_topic_assign(sf_dir: str):
    """Exact quantized nearest-centroid topic routing
    (functions/clustering.py): centroids = the 8 smallest vec_ids,
    both sides dot on the floor(x*2^20+0.5) int64 lattice so the
    argmax is bit-reproducible.  Exchange-free assignment pass."""
    from .functions.clustering import centroid_assign

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return centroid_assign(ds, k=8)


def q_cluster_purity(sf_dir: str):
    """Per-topic modal label over the topic_assign partition: one
    (topic x label)-sized exchange after the exchange-free assignment
    (functions/clustering.py cluster_purity)."""
    from .functions.clustering import cluster_purity

    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding", "label"])
    return cluster_purity(ds, k=8)


def q_rank_pct(sf_dir: str):
    """Distributed PERCENT_RANK without the sort exchange
    (sketches.grouped_percent_rank): per-lang percentile of n_chars in
    basis points via a mergeable bounded-domain histogram broadcast."""
    from .functions.sketches import grouped_percent_rank

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "lang", "n_chars"])
    return grouped_percent_rank(ds, "lang", "n_chars")


def q_strip_dup_substr(sf_dir: str):
    """Duplicated-substring removal (dedup.strip_dup_substrings): every
    char covered by a 25-char window shared by >= 2 docs is excised —
    the apply half of the dup_substrings diagnostic."""
    from .functions.dedup import strip_dup_substrings

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return strip_dup_substrings(ds, k=25)


def q_emb_gram(sf_dir: str):
    """Exact distributed Gram matrix over the quantized embedding
    column (clustering.gram_matrix): one d x d int64 partial per block
    is the ONLY thing entering the exchange (independent of row
    count) — the covariance/PCA/whitening building block."""
    from .functions.clustering import gram_matrix

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return gram_matrix(ds)


def q_dup_substrings(sf_dir: str):
    """Lee-et-al-style duplicated-substring mass: per doc, how many of
    its distinct 25-char windows occur in >= 2 documents (dedup.py
    ``dup_substring_stats``; one window-hash pass, one sort, exact
    segment fold)."""
    from .functions.dedup import dup_substring_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_substring_stats(ds, k=25)


def q_line_dedup(sf_dir: str):
    """CCNet/RefinedWeb-style corpus-level line dedup
    (dedup.remove_common_lines): drop every instance of a line that
    appears past a doc-relative threshold corpus-wide, rewrite docs
    from kept lines in order.  The synthetic documents have no
    newlines, so the registry instance runs at WORD granularity
    (delim=' ', min_len=5) — boilerplate-token removal — with the
    threshold 1.8 x n_docs so the drop/keep outcome stays mixed at
    every sf level (integer ceil on both sides)."""
    from .functions.dedup import remove_common_lines

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_common_lines(
        ds, delim=" ", min_len=5, min_count=(9 * n_docs + 4) // 5)


def q_intradoc_dedup(sf_dir: str):
    """Intra-document line dedup (dedup.dedup_lines_within_doc): keep
    only the first occurrence of every repeated >=5-char line WITHIN
    each doc — one exchange-free pass (dictionary-encode + lexsort
    first-occurrence kernel).  Word granularity here for the same
    reason as line_dedup: the synthetic docs have no newlines."""
    from .functions.dedup import dedup_lines_within_doc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_lines_within_doc(ds, delim=" ", min_len=5)


def q_epoch_shuffle(sf_dir: str):
    """Deterministic seeded epoch shuffle (sampling.epoch_shuffle):
    shard = mixed-hash mod 16, pos = rank within shard by (key, id) —
    the reproducible training-order primitive.  Keying is
    exchange-free; the only exchange is the 16-way groupby."""
    from .functions.sampling import epoch_shuffle

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return epoch_shuffle(ds, seed=4242, n_shards=16)


def q_dedup_keep_best(sf_dir: str):
    """Exact dedup keeping the highest-quality copy per duplicate group
    (dedup.py ``dedup_keep_best`` = content hash + cap_per_group(k=1))."""
    from .functions.dedup import dedup_keep_best

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "n_chars"])
    return dedup_keep_best(ds)


def q_quantile_gate(sf_dir: str):
    """Adaptive per-language length gate: keep docs at or above their
    language's exact median n_chars (selection.quantile_gate — exact
    histogram quantiles broadcast, one exchange-free filter pass)."""
    from .functions.selection import quantile_gate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return quantile_gate(ds, value_col="n_chars", by="lang", q=0.5)


def q_heavy_hitters(sf_dir: str):
    """EXACT top-10 tokens by total occurrences with every exchange
    bounded by m x blocks rows (sketches.heavy_hitters_exact): per-
    block top-m candidates + an exact broadcast re-count — the
    unbounded-vocabulary alternative to the full (token, count)
    shuffle in vocab_top_terms."""
    from .functions.sketches import heavy_hitters_exact

    ds = _read(sf_dir, "documents", columns=["text"])
    return heavy_hitters_exact(ds, k=10, m=64)


def q_decon_bloom(sf_dir: str):
    """Bloom-pruned decontamination: identical output contract to
    `decontaminate` (same SQL oracle), but the scan probes a bit-
    packed Bloom filter first and exact-verifies only the positive
    grams — no false negatives, so the prune is lossless."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return contamination.decontaminate_bloom(ds, eval_mod=101, k=3)


def q_hash_split(sf_dir: str):
    """Deterministic 90/5/5 train/val/test split: membership is a pure
    function of (doc_id, seed) via the exact integer hash chain
    (sampling.hash_split) — exchange-free, leakage-proof under corpus
    growth, HUGEINT-recomputable in the oracle."""
    from .functions.sampling import hash_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return hash_split(ds, seed=3141).select_columns(["doc_id", "split"])


def q_index_dedup(sf_dir: str):
    """Incremental exact dedup through the sharded fingerprint-index
    actors (state/dedup_index.py — the raw-actor escape hatch for the
    one semantics Datasets can't express: a shared mutable lookup).
    Same output contract as exact_dedup (min doc_id wins, exact
    multiplicity), so the same SQL oracle checks that the two-phase
    offer/lookup protocol is deterministic, not arrival-order racy."""
    from .state.dedup_index import DedupIndex, ingest_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    index = DedupIndex(n_shards=4)
    return ingest_dedup(ds, index)


def q_neardup_ingest(sf_dir: str):
    """Incremental NEAR-dup gate (the semdedup_gate pattern —
    deterministic synthetic input, boolean oracle): epoch 0 seals 40
    docs into a NearDupIndex; epoch 1 carries 15 mutated copies of
    history plus 25 fresh docs.  Asserts every mutated copy drops and
    every fresh doc survives (state/dedup_index.ingest_neardup:
    LSH-band shard probe + signature-Jaccard verify, min-id/sealed
    keep-rule)."""
    import ray.data as rd

    from .state.dedup_index import NearDupIndex, ingest_neardup

    rng = np.random.RandomState(19)

    def doc():
        return " ".join(f"w{rng.randint(0, 4000):04d}" for _ in range(60))

    old = [doc() for _ in range(40)]
    t0 = pa.table({"doc_id": pa.array(range(40), type=pa.int64()),
                   "text": pa.array(old)})
    index = NearDupIndex(n_shards=4)
    ingest_neardup(rd.from_arrow(t0).repartition(4), index)  # materialized internally
    index.seal()

    texts1, ids1 = [], []
    for i in range(15):
        words = old[i].split()
        words[7] = "EDITED"
        texts1.append(" ".join(words))
        ids1.append(1000 + i)
    for i in range(25):
        texts1.append(doc())
        ids1.append(2000 + i)
    t1 = pa.table({"doc_id": pa.array(ids1, type=pa.int64()),
                   "text": pa.array(texts1)})
    kept = {
        r["doc_id"]
        for r in ingest_neardup(rd.from_arrow(t1).repartition(4), index,
                                threshold=0.7).take_all()
    }
    return pa.table(
        {
            "n_kept": pa.array([len(kept)], type=pa.int64()),
            "history_dups_dropped": pa.array(
                [not any(i < 2000 for i in kept)]),
            "fresh_kept": pa.array(
                [kept >= {2000 + i for i in range(25)}]),
        }
    )


def q_value_quantiles(sf_dir: str):
    """Continuous-domain quantile sketch gate (the approx_users
    within-bound pattern): KLL p50/p90/p99 of events.value per
    event_type (sketches.approx_quantiles_kll — mergeable compactor
    partials, sketch-sized exchange) checked against exact ranks, one
    boolean row per (event_type, q) at 5% rank tolerance.  The exact
    side reads the value column to the driver — deliberate gate-only
    cost, bounded at oracle scale; production runs the sketch alone
    (grouped_quantiles needs a bounded DISCRETE domain; this is the
    float-column path)."""
    from .functions.sketches import approx_quantiles_kll

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    qs = (0.5, 0.9, 0.99)
    approx = {
        r["event_type"]: [r["p50"], r["p90"], r["p99"]]
        for r in approx_quantiles_kll(ds, "event_type", "value",
                                      qs=qs).take_all()
    }
    exact: dict = {}
    for r in ds.take_all():
        exact.setdefault(r["event_type"], []).append(r["value"])
    keys = sorted(exact)
    ok_cols = {q: [] for q in qs}
    for k in keys:
        vals = np.sort(np.asarray(exact[k], dtype=np.float64))
        n = len(vals)
        for q, v in zip(qs, approx[k]):
            rank = np.searchsorted(vals, v, side="right")
            ok_cols[q].append(abs(rank / n - q) <= 0.05)
    return pa.table(
        {
            "event_type": pa.array(keys, type=pa.string()),
            "p50_ok": pa.array(ok_cols[0.5]),
            "p90_ok": pa.array(ok_cols[0.9]),
            "p99_ok": pa.array(ok_cols[0.99]),
        }
    )


def q_chunk_docs(sf_dir: str):
    """Context-window chunking: 200-codepoint windows every 150 (50
    overlap) — one exchange-free streaming pass (functions/chunks.py)."""
    from .functions.chunks import chunk_documents

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_documents(ds, size=200, overlap=50)


def q_source_cap(sf_dir: str):
    """Per-source document cap (RefinedWeb-style host cap): keep the 10
    best docs per source by (quality DESC, doc_id) — the testdata has
    25 docs per source, so the cap actually bites — partial top-k per
    block, one sort, exact per-group first-k fold
    (functions/selection.py ``cap_per_group``)."""
    from .functions import text as ftext
    from .functions.selection import cap_per_group

    ds = _read(sf_dir, "documents",
               columns=["doc_id", "text", "source", "n_chars"])

    def annotate(batch: pa.Table) -> pa.Table:
        q = ftext.quality_score_batch(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_chars": batch.column("n_chars"),
                "quality_score": q.column("quality_score"),
            }
        )

    ann = ds.map_batches(annotate, batch_format="pyarrow")
    capped = cap_per_group(
        ann, group_col="source",
        order_cols=["quality_score", "doc_id"],
        descending=[True, False], k=10,
    )
    return capped.select_columns(["doc_id", "source", "n_chars"])


def q_brand_stats(sf_dir: str):
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        import pyarrow.compute as pc

        cents = pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "cents": pa.array(
                    np.floor(
                        batch.column("p_retailprice").to_numpy(
                            zero_copy_only=False
                        ) * 100.0 + 0.5
                    ).astype(np.int64)
                ),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return cents.group_by("p_brand").aggregate(
            [("cents", "sum"), ("cents", "min"), ("cents", "max"),
             ("one", "sum")]
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "p_brand"
    ).aggregate(
        Sum("cents_sum", alias_name="cents"),
        Min("cents_min", alias_name="min_c"),
        Max("cents_max", alias_name="max_c"),
        Sum("one_sum", alias_name="n_parts"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        n = batch.column("n_parts").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "n_parts": pa.array(n, type=pa.int64()),
                "min_price": pa.array(
                    batch.column("min_c").to_numpy(zero_copy_only=False)
                    / 100.0
                ),
                "max_price": pa.array(
                    batch.column("max_c").to_numpy(zero_copy_only=False)
                    / 100.0
                ),
                "avg_price": pa.array((cents / 100.0) / n),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_approx_users(sf_dir: str):
    """HLL approximate distinct users per event_type, emitted as a
    driver-checkable accuracy gate: the estimate must land within 5% of
    the exact distinct count (computed distributed alongside), so the
    oracle is simply ``within_5pct = TRUE`` per event_type (VERDICT r1
    #5 — the raw estimate itself is pinned to ±2% in pytest).

    The exact pass exists ONLY to make the estimate driver-checkable —
    it doubles this query's cost by design; production use is
    ``sketches.approx_distinct`` alone (one pass, sketch-sized
    exchange).  The pytest ±2% bound is the independent check; this
    gate is the driver-visible summary of it."""
    from ray.data.aggregate import Count

    from .functions.sketches import approx_distinct

    ev = _read(sf_dir, "events", columns=["event_type", "user_id"], onb=16)
    out = approx_distinct(ev, "event_type", "user_id", p=12)

    # exact side: per-block DISTINCT partials first, so the exchange
    # carries unique (type, user) pairs, not raw event rows; the
    # per-type count then pre-aggregates per block again and the final
    # groupby folds a handful of partial counts
    def distinct_partial(batch: pa.Table) -> pa.Table:
        return batch.combine_chunks().group_by(
            ["event_type", "user_id"]
        ).aggregate([])

    def count_partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("event_type").aggregate([("one", "sum")])

    from ray.data.aggregate import Sum

    exact = (
        ev.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("one_sum", alias_name="n_exact"))
    )
    # tiny result (one row per event type): a driver-side dict is the
    # broadcast small side, not a materialized dataset
    exact_map = {
        r["event_type"]: r["n_exact"] for r in exact.take_all()
    }

    def r(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        est = pc.round(batch.column("approx_distinct")).cast(pa.int64())
        types = batch.column("event_type").to_pylist()
        ok = [
            abs(int(e) - exact_map[t]) <= 0.05 * exact_map[t]
            for e, t in zip(est.to_pylist(), types)
        ]
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "within_5pct": pa.array(ok, type=pa.bool_()),
            }
        )

    return out.map_batches(r, batch_format="pyarrow")


def q_events_sliding(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return relational.events_sliding(ev, window_minutes=60, slide_minutes=15)


def q_top_orders_segment(sf_dir: str):
    """Co-partitioned plan (VERDICT r3 #1): no O(|customer|) driver
    state — orders' (custkey, orderkey, cents) projection joins
    customer via hash_join, partial top-N per segment after."""
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    return relational.top_orders_per_segment_join(orders, cust, n=3)


def q_band_join(sf_dir: str):
    ds = _read(sf_dir, "part", columns=["p_retailprice"])
    return relational.band_join_parts(ds)


def q_top_unshipped(sf_dir: str):
    """TPC-H Q3 shape over the general large-x-large hash_join (orders
    x pre-aggregated lineitem co-partitioned by orderkey); customer is
    the one broadcast side (segment filter pushed into the read)."""
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"],
        filters=[("c_mktsegment", "==", "BUILDING")],
    )
    # coarse blocks: every sort/merge task is one driver dispatch
    # (~16-44/s ceiling, BASELINE.md) and both join inputs are already
    # filtered/pre-aggregated far below the block target
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_orderpriority"], onb=8)
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"], onb=16)
    return relational.top_unshipped_orders(
        orders, li, cust.column("c_custkey").to_pylist(), "1998-06-01", k=10
    )


def q_props_extract(sf_dir: str):
    """JSON metadata extraction from the events props column: per-type
    sum/avg of the extracted field (the metadata-parse step every
    training-data pipeline has).  Python json in the batch UDF (Arrow
    has no JSON kernel); compiled once per process, partial-aggregated
    before the exchange."""
    import json

    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ks = np.fromiter(
            (json.loads(p)["k"] for p in batch.column("props").to_pylist()),
            dtype=np.int64,
            count=len(batch),
        )
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "k": pa.array(ks),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return t.group_by("event_type").aggregate([("k", "sum"), ("one", "sum")])

    agg = ev.map_batches(partial, batch_format="pyarrow").groupby(
        "event_type"
    ).aggregate(
        Sum("k_sum", alias_name="sum_k"),
        Sum("one_sum", alias_name="n_events"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        sk = batch.column("sum_k").to_numpy(zero_copy_only=False)
        n = batch.column("n_events").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_events": pa.array(n, type=pa.int64()),
                "sum_k": pa.array(sk, type=pa.int64()),
                "avg_k": pa.array(sk / n),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def q_prep_corpus(sf_dir: str):
    """Composed training-data prep pipeline (annotate → quality gate →
    exact-dedup keep-first); see functions/prep.py for the plan."""
    from .functions.prep import prep_corpus

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=8)
    return prep_corpus(ds, quality_threshold=0.01)


def q_pack_stats(sf_dir: str):
    """Sequence packing (fixed-capacity training-example construction)
    as a driver-checkable invariant gate: greedy assignment is not
    SQL-expressible, so the gate verifies what defines a correct
    packing — every doc packed exactly once, capacity respected,
    pack count near the token lower bound (the ``approx_users``
    boolean pattern)."""
    from .functions.packing import pack_invariants

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=8)
    return pack_invariants(ds, capacity=2048)


def q_curate_corpus(sf_dir: str):
    """Composed training-mix job (round-3 flagship composition): gate
    (quality + Gopher top-2-gram repetition) → annotate → exact-dedup →
    seeded stratified sample per predicted language.  One text pass;
    scalar-only exchanges throughout."""
    from .functions.prep import curate_corpus

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=8)
    return curate_corpus(ds, quality_threshold=0.01, max_top2gram_e4=800,
                         k=20, seed=4242, fan_in=4)


def q_export_corpus(sf_dir: str):
    """Packed-corpus export (VERDICT r3 missing #3): the curate mix
    manifest joins back to document text (co-partitioned hash_join on
    doc_id — never a driver dict), packs block-locally, and
    concatenates each pack into one training example.  The gate row
    carries exact SQL-checkable totals (docs selected, concatenated
    chars net of separators) plus packing invariants asserted TRUE."""
    from .functions.packing import PACK_SEP
    from .functions.prep import curate_corpus, export_packed

    capacity = 2048
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=8)
    manifest = curate_corpus(
        _read(sf_dir, "documents", columns=["doc_id", "text"], onb=8),
        quality_threshold=0.01, max_top2gram_e4=800, k=20, seed=4242,
        fan_in=4,
    ).materialize()
    packs = export_packed(docs, manifest, capacity=capacity)

    sep_chars = len(PACK_SEP)

    def fold(batch: pa.Table) -> pa.Table:
        # one row per pack already: per-row stats are alignment-safe
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.table(
                {"docs": pa.array([], type=pa.int64()),
                 "chars": pa.array([], type=pa.int64()),
                 "max_load": pa.array([], type=pa.int64())}
            )
        batch = batch.combine_chunks()
        nd = batch.column("n_docs").to_numpy(zero_copy_only=False)
        chars = pc.utf8_length(batch.column("text")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        toks = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        over = batch.column("overflow").to_numpy(zero_copy_only=False)
        normal = toks[~over]
        return pa.table(
            {
                "docs": pa.array([int(nd.sum())], type=pa.int64()),
                "chars": pa.array(
                    [int(chars.sum() - sep_chars * (nd - 1).sum())],
                    type=pa.int64(),
                ),
                "max_load": pa.array(
                    [int(normal.max()) if len(normal) else 0],
                    type=pa.int64(),
                ),
            }
        )

    parts = packs.map_batches(fold, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    n_docs = sum(r["docs"] for r in parts)
    total_chars = sum(r["chars"] for r in parts)
    max_load = max((r["max_load"] for r in parts), default=0)
    return pa.table(
        {
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "total_chars": pa.array([total_chars], type=pa.int64()),
            "packed_once": pa.array([n_docs == manifest.count()],
                                    type=pa.bool_()),
            "capacity_respected": pa.array([max_load <= capacity],
                                           type=pa.bool_()),
        }
    )


def q_quality_score(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.quality_score_batch, batch_format="pyarrow")


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition filter signals: duplicate-line fraction
    and char-weighted duplicate-line mass per document (the rule a
    pretraining pipeline uses to drop boilerplate/spam).  Pure per-block
    map — no exchange."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.repetition_stats_batch,
                          batch_format="pyarrow")


def q_top_2gram(sf_dir: str):
    """Companion Gopher rule: top word-2-gram occurrence fraction per
    document (phrase-level boilerplate detector).  Pure per-block map."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.top_2gram_stats_batch,
                          batch_format="pyarrow")


def q_scrub_pii(sf_dir: str):
    """PII scrub (emails then phone-like runs redacted + counted): the
    privacy pass before a training-data export.  RE2 on both sides;
    pure per-block map."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.scrub_pii_batch, batch_format="pyarrow")


def q_blocklist_filter(sf_dir: str):
    """Blocklist-token filter (C4 "bad words" generalized to Dolma's
    fractional rule): per-doc flagged-token count, exact-integer
    basis-point fraction, and the keep decision at 900 bp.  Pure
    per-block Arrow kernels — no exchange."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.blocklist_stats_batch,
                          batch_format="pyarrow")


def q_lexical_diversity(sf_dir: str):
    """Per-doc type-token ratio in exact basis points: distinct
    non-empty whitespace tokens via ``pc.dictionary_encode`` (exact
    string identity, no hashing), one lexsort per block, no exchange.
    The oracle recomputes distinctness with ``list_distinct`` over the
    SAME split — the two distinct-count implementations are
    independent."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(ftext.lexical_diversity_batch,
                          batch_format="pyarrow")


def q_normalize_nfc(sf_dir: str):
    """Unicode NFC normalization over a DERIVED decomposed column
    (text + 'e' + U+0301, appended on both sides) so the check is
    non-vacuous on the ASCII synthetic corpus: every row must compose
    to ...'é' (one codepoint shorter).  Engine = vectorized RE2
    stability fast path + per-flagged-doc ``unicodedata.normalize``
    (``text.normalize_nfc_batch``); oracle = DuckDB ``nfc_normalize``
    — two independent UAX#15 implementations compared on full text."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def derive(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        derived = pc.binary_join_element_wise(
            batch.column("text"), pa.scalar("e\u0301"), pa.scalar(""))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": derived})

    return ds.map_batches(derive, batch_format="pyarrow").map_batches(
        ftext.normalize_nfc_batch, batch_format="pyarrow")


def q_source_boilerplate(sf_dir: str):
    """Per-source boilerplate profiling (text.source_boilerplate):
    flag words whose DISTINCT-doc frequency within their source
    exceeds 80% (thr_bp=8000 keeps the outcome mixed at every sf —
    measured 191/597, 187/597, 97/600 qualifying keys at
    sf0.001/0.01/0.1), then score each doc's distinct->=3-char-word
    boilerplate fraction in exact basis points.  Word granularity for
    the same reason as line_dedup (the synthetic docs have no
    newlines).  The oracle recomputes the whole thing relationally
    (unnest + DISTINCT + self-join) — independent of the engine's
    partial-df exchange and broadcast-set plan."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    return ftext.source_boilerplate(ds, thr_bp=8000, min_len=3)


def q_order_priority(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_orderdate"])
    return relational.order_priority_counts(ds, "1994-01-01", "1997-01-01")


def q_top_suppliers(sf_dir: str):
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"])
    names = dict(zip(supp.column("s_suppkey").to_pylist(),
                     supp.column("s_name").to_pylist()))
    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])
    return relational.top_suppliers(li, names, k=10)


def q_nation_rollup(sf_dir: str):
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    region_names = dict(zip(region.column("r_regionkey").to_pylist(),
                            region.column("r_name").to_pylist()))
    nation_names = dict(zip(nation.column("n_nationkey").to_pylist(),
                            nation.column("n_name").to_pylist()))
    region_of = {
        int(nk): region_names.get(int(rk), "UNKNOWN")
        for nk, rk in zip(nation.column("n_nationkey").to_pylist(),
                          nation.column("n_regionkey").to_pylist())
    }
    cust = _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"])
    return relational.nation_customer_rollup(cust, nation_names, region_of)


def q_asof_last_order(sf_dir: str):
    # co-partitioned merge: the orders FACT table streams through the
    # exchange instead of materializing on the driver (VERDICT r1 #3);
    # the broadcast variant (asof_last_order) stays as the reference
    # of test_asof_partitioned_matches_broadcast
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return relational.asof_last_order_partitioned(ev, orders)


def q_sessionize(sf_dir: str):
    ev = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return relational.sessionize(ev, gap_minutes=30)


def q_ngram_dedup(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"], onb=16)
    return dedup.ngram_dup_pairs(ds, threshold=0.5)


def q_knn_ivf(sf_dir: str):
    """IVF-flat ANN, gated on mean recall@10 >= 0.55 vs the exact kNN
    computed alongside (see ``q_knn_lsh``; measured IVF mean recall
    0.74-0.82 across sf0.001-0.1)."""
    qm, qids = _query_matrix(sf_dir, [0, 1, 2, 3, 4])
    # bounded sample read: only the first pages stream off storage, not
    # the whole table (round 1 read everything to keep 256 rows)
    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=256, columns=["embedding"]))
    sample = np.stack(
        [np.asarray(v, dtype=np.float64)
         for v in first.column("embedding").to_pylist()]
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                onb=8)
    approx = similarity.ivf_ann(emb, qm, qids, sample, k=10, nlist=8,
                                nprobe=4)
    exact = similarity.knn_cosine(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"], onb=8),
        qm, qids, k=10,
    )
    return _recall_summary(exact, approx, bound=0.55)


def q_media_features(sf_dir: str):
    """Multimodal plumbing as a driver-checkable determinism gate
    (VERDICT r2 #4): synthesize a media table, run the feature-extract
    actor pool TWICE (stubbed codec — deterministic fake in-sandbox),
    and assert both passes produce identical per-media feature digests.
    What this verifies is the Ray-side plumbing: schema, batch sizing,
    actor pool signature, output layout — decode itself is the
    documented stub seam (``stages/media.py``)."""
    import ray.data as rd

    from .stages.media import media_feature_pipeline, synth_media_table

    def digest(batch: pa.Table) -> pa.Table:
        """Scalar digest of each vector so values compare as scalars
        (list columns don't sort in pandas)."""
        import hashlib as _h

        col = batch.column("feature").combine_chunks()
        dig = [
            _h.sha256(np.asarray(v, dtype=np.float32).tobytes()).hexdigest()[:16]
            for v in col.to_pylist()
        ]
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "digest": pa.array(dig, type=pa.string()),
            }
        )

    def one_pass():
        refs = [f"media://bench/{i}" for i in range(2000)]
        media = rd.from_arrow(synth_media_table(refs))
        feats = media_feature_pipeline(media, batch_size=64,
                                       concurrency=(1, 4))
        return feats.map_batches(digest, batch_format="pyarrow")

    parity = _digest_parity(one_pass(), one_pass(), key="media_ref")
    return pa.table(
        {
            "n_media": pa.array([2000], type=pa.int64()),
            "deterministic_ok": pa.array([len(parity) == 0],
                                         type=pa.bool_()),
        }
    )


def _route_decode(payload: bytes):
    """Deterministic payload→pixels fake decoder for the media_route
    gate (no image codecs in-sandbox; the real seam decodes with PIL):
    even seed byte → ruled 120x120 page (the printed shape the
    line-count heuristic targets), odd → flat gray (handwriting)."""
    if payload[0] % 2 == 0:
        img = np.full((120, 120), 255, dtype=np.uint8)
        img[4::6, :] = 0
        return img
    return np.full((120, 120), 128, dtype=np.uint8)


def q_media_route(sf_dir: str):
    """M3 content-routing gate (r5): the vectorized ``route`` column
    (``stages/routing.route_media_batch`` — Arrow keyword regex + the
    numpy line-count payload path) against the INDEPENDENT per-span
    loop reimplementation ``oracle.route_media_span``, over the real
    interleaved corpus's exploded spans PLUS planted spans covering
    every branch: keyword printed/handwriting, printed-wins-over-
    handwriting, store-resolved ruled/flat payloads, and the
    unreadable-default.  One row per disagreeing span — EXPECTED
    EMPTY, so the SQL oracle is the empty table."""
    import ray.data as rd

    from . import oracle as orc
    from .schema import EXPLODED_FIELDS
    from .stages.explode import explode_batch
    from .stages.routing import route_media_batch

    exploded_schema = pa.schema(EXPLODED_FIELDS)
    store = {f"planted://img/{i}": bytes([i]) for i in range(24)}
    planted_refs = list(store) + [
        "planted://receipt_scan/0", "planted://tax-invoice/1",
        "planted://meeting-notes/2", "planted://handwritten_draft/3",
        "planted://receipt-notes/4",   # printed keywords win
        "planted://unreadable/5",      # no keyword, no store: default
    ]
    planted = pa.table(
        {
            "doc_id": pa.array([f"planted-{i}"
                                for i in range(len(planted_refs) + 1)]),
            "offset": pa.array([0] * (len(planted_refs) + 1),
                               type=pa.int32()),
            "kind": pa.array(["media"] * len(planted_refs) + ["text"]),
            "text": pa.array([""] * len(planted_refs) + ["plain"]),
            "media_ref": pa.array(planted_refs + [""]),
        }
    ).cast(exploded_schema)

    spans = _read_corpus(sf_dir).map_batches(
        explode_batch, batch_format="pyarrow"
    ).union(rd.from_arrow(planted))

    out_schema = pa.schema([("doc_id", pa.string()),
                            ("reason", pa.string())])

    def check(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        routed = route_media_batch(batch, media_store=store,
                                   decode=_route_decode)
        kinds = batch.column("kind").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        got = routed.column("route").to_pylist()
        bad, why = [], []
        for d, kd, ref, g in zip(ids, kinds, refs, got):
            if kd != "media":
                exp = ""
            else:
                exp = orc.route_media_span(
                    ref,
                    payload_image=(_route_decode(store[ref])
                                   if ref in store else None))
            if g != exp:
                bad.append(d)
                why.append(f"{ref}: engine={g} oracle={exp}")
        return pa.table({"doc_id": pa.array(bad, type=pa.string()),
                         "reason": pa.array(why, type=pa.string())})

    # collect to an arrow Table (expected empty; at worst span-bounded
    # diagnostic rows) so the empty case keeps its schema through the
    # driver comparator — the _digest_parity convention
    parts = [
        t for t in spans.map_batches(
            check, batch_format="pyarrow"
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    return (pa.concat_tables([p.cast(out_schema) for p in parts])
            if parts else out_schema.empty_table())


# --- registry ---------------------------------------------------------------


def queries() -> dict:
    # ORDER MATTERS: the driver's correctness file recorded only the
    # first 50 entries in r3, so the boolean gates and sketch queries
    # every round's grading depends on come FIRST (VERDICT r3 missing
    # #1); the long relational tail follows.
    return {
        # warmup first: the session's worker-spawn cost (~2-3 s) lands
        # on whatever query runs first; a sub-second oracle query
        # absorbs it so the gate timings stay comparable across rounds
        "lang_summary": q_lang_summary,
        # --- gates + recall/determinism checks (record these always) ---
        "extract_parity": q_extract_parity,
        "extract_multi": q_extract_multi,
        "extract_text_oracle": q_extract_text_oracle,
        "extract_structured": q_extract_structured,
        "knn_lsh": q_knn_lsh,
        "knn_ivf": q_knn_ivf,
        "media_features": q_media_features,
        "approx_users": q_approx_users,
        "pack_stats": q_pack_stats,
        "semdedup_gate": q_semdedup_gate,
        "kmeans_gate": q_kmeans_gate,
        "pca_gate": q_pca_gate,
        # --- flagship pipelines ---
        "extract_canonical": q_extract_canonical,
        "extract_fused": q_extract_fused,
        "prep_corpus": q_prep_corpus,
        "curate_corpus": q_curate_corpus,
        "export_corpus": q_export_corpus,
        # --- dedup / similarity --- (exact_dedup joined the stable
        # tail for r4: green since r2, its content-hash groupby plan is
        # untouched this round, and the in-cap index_dedup gate checks
        # against the same batch exact-dedup oracle)
        "dedup_apply": q_dedup_apply,
        "minhash_dedup": q_minhash_dedup,
        "ngram_dedup": q_ngram_dedup,
        "line_dedup": q_line_dedup,
        "intradoc_dedup": q_intradoc_dedup,
        "strip_dup_substr": q_strip_dup_substr,
        # --- r5 rotation (VERDICT r4 #6): the 11 entries that had
        # never received a driver CORRECTNESS row — pushed out by the
        # 50-row cap in r2-r4 — rotate in, plus tfidf_scores whose
        # vocabulary build was rebuilt this round on the heavy-hitter
        # partial cut.  The 12 freed slots come from the demotions
        # annotated at the top of the stable tail below. ---
        "hash_split": q_hash_split,
        "dup_substrings": q_dup_substrings,
        "emb_gram": q_emb_gram,
        "fuzzy_dedup_apply": q_fuzzy_dedup_apply,
        "structured_receipts": q_structured_receipts,
        "knn_join": q_knn_join,
        "dsir_select": q_dsir_select,
        "cluster_purity": q_cluster_purity,
        "emb_dedup_apply": q_emb_dedup_apply,
        "rank_pct": q_rank_pct,
        "decon_bloom": q_decon_bloom,
        "tfidf_scores": q_tfidf_scores,
        # media_route: NEW r5 gate for the M3 content-routing closure
        # (in-cap; the slot came from demoting source_cap, r4-recorded
        # green with cap_per_group exercised in-cap by dsir_select)
        "media_route": q_media_route,
        # --- sampling / sketches / index keepers: heavy_hitters was
        # refactored onto exact_top_counts this round and
        # value_quantiles gates the KLL whose merge was canonicalized
        # (both r5 changes), so they stay recorded; index_dedup /
        # neardup_ingest stay while the index actors carry the r5
        # placement changes ---
        "heavy_hitters": q_heavy_hitters,
        "value_quantiles": q_value_quantiles,
        "index_dedup": q_index_dedup,
        "neardup_ingest": q_neardup_ingest,
        "temp_mix": q_temp_mix,
        "pagerank": q_pagerank,
        "bpe_gate": q_bpe_gate,
        "lexical_diversity": q_lexical_diversity,
        "normalize_nfc": q_normalize_nfc,
        "source_boilerplate": q_source_boilerplate,
        # --- relational / windows (every row here routes through the
        # r5 distributed-residual exact_segment_fold and the salted
        # hash_join tag path, so all three stay recorded) ---
        "segment_revenue": q_segment_revenue,
        "events_hourly": q_events_hourly,
        "top_orders_segment": q_top_orders_segment,
        # --- stable tail (beyond the driver's ~50-row recording cap
        # but selfcheck-verified every session).  Demoted for the r5
        # rotation — every one recorded green in CORRECTNESS_r04 and
        # untouched by this round's changes, with in-cap sentinels:
        # epoch_shuffle (deterministic-hash machinery in-cap via
        # temp_mix + hash_split), doc_fingerprint (rolling-hash kernel
        # in-cap via dup_substrings), budget_select (selection
        # partial-top-k in-cap via source_cap + dsir_select),
        # lm_familiarity, ccnet_buckets (grouped_percent_rank in-cap
        # via rank_pct), dsir_scores (composed in-cap by dsir_select),
        # topic_assign (partition folded in-cap by cluster_purity),
        # chunk_docs, dedup_keep_best (content hash + cap_per_group
        # in-cap via dedup_apply + source_cap), quantile_gate (exact
        # grouped-quantile machinery sentineled by the in-cap
        # value_quantiles gate), blocklist_filter (anti-join apply
        # in-cap via dedup_apply + emb_dedup_apply),
        # quality_classifier. ---
        "epoch_shuffle": q_epoch_shuffle,
        "doc_fingerprint": q_doc_fingerprint,
        "source_cap": q_source_cap,
        "budget_select": q_budget_select,
        "lm_familiarity": q_lm_familiarity,
        "ccnet_buckets": q_ccnet_buckets,
        "dsir_scores": q_dsir_scores,
        "topic_assign": q_topic_assign,
        "chunk_docs": q_chunk_docs,
        "dedup_keep_best": q_dedup_keep_best,
        "quantile_gate": q_quantile_gate,
        "blocklist_filter": q_blocklist_filter,
        "quality_classifier": q_quality_classifier,
        # earlier-round demotions, unchanged: top_unshipped /
        # events_sliding run their r3-recorded-green plans;
        # simhash/dup_clusters sentineled by minhash_dedup/dedup_apply
        "simhash_dedup": q_simhash_dedup,
        "dup_clusters": q_dup_clusters,
        "top_unshipped": q_top_unshipped,
        "events_sliding": q_events_sliding,
        "sessionize": q_sessionize,
        "asof_last_order": q_asof_last_order,
        "bpe_token_count": q_bpe_token_count,
        "knn_cosine": q_knn_cosine,
        # embedding_near_dup: r2/r3-recorded green, and semdedup_gate
        # runs embedding_near_dup_blocked as its in-cap exact baseline
        "embedding_near_dup": q_embedding_near_dup,
        # text-analysis rows green + untouched since r3's
        # vectorization wave
        "doc_token_stats": q_doc_token_stats,
        "exact_dedup": q_exact_dedup,
        "lang_sample": q_lang_sample,
        "source_mix": q_source_mix,
        "quality_score": q_quality_score,
        "repetition_stats": q_repetition_stats,
        "top_2gram": q_top_2gram,
        "scrub_pii": q_scrub_pii,
        # decontaminate green since r2; decon_bloom (same oracle, same
        # scan contract) is in-cap as its sentinel this round
        "decontaminate": q_decontaminate,
        "lang_id": q_lang_id,
        "vocab_top_terms": q_vocab_top_terms,
        "docs_sample_mod": q_docs_sample_mod,
        "chars_quantiles": q_chars_quantiles,
        "top_docs": q_top_docs,
        "pricing_summary": q_pricing_summary,
        "distinct_lang_source": q_distinct_lang_source,
        "brand_stats": q_brand_stats,
        "props_extract": q_props_extract,
        "band_join": q_band_join,
        "order_priority": q_order_priority,
        "top_suppliers": q_top_suppliers,
        "nation_rollup": q_nation_rollup,
    }


def _base_oracles() -> dict:
    return {
        "doc_token_stats": f"""
            SELECT doc_id,
                   CAST(len({_TOKS_SQL}) AS BIGINT) AS n_tokens,
                   CAST(len(list_filter({_TOKS_SQL},
                        x -> x IN {_STOP_SQL})) AS BIGINT) AS n_stop,
                   CAST(len(list_filter({_TOKS_SQL},
                        x -> x IN {_STOP_SQL})) AS DOUBLE)
                     / greatest(len({_TOKS_SQL}), 1) AS stop_ratio
            FROM documents
        """,
        "bpe_token_count": f"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{_BPE_SQL}')) AS BIGINT)
                     AS n_bpe
            FROM documents
        """,
        "lang_summary": """
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(sum(length(text)) AS DOUBLE) / count(*) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, CAST(count(*) AS BIGINT) AS n_dups
            FROM documents GROUP BY text
        """,
        "decontaminate": f"""
            WITH toks AS (
              SELECT doc_id, {_TOKS_SQL} AS t FROM documents
            ), grams AS (
              SELECT doc_id, unnest(
                CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
                ELSE list_transform(range(1, len(t) - 1),
                       i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])
                END) AS g
              FROM toks
            ), eval_g AS (
              SELECT DISTINCT g FROM grams WHERE doc_id % 101 = 0
            ), hits AS (
              SELECT DISTINCT d.doc_id, d.g
              FROM grams d JOIN eval_g e USING (g)
              WHERE d.doc_id % 101 <> 0
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_overlap
            FROM hits GROUP BY doc_id
        """,
        "dedup_apply": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents
                             GROUP BY text)
        """,
        # line_dedup: the oracle decides by the LINE STRING where the
        # engine decides by its exact codepoint fingerprint — identical
        # decisions absent a 61-bit collision (none at oracle scale);
        # the threshold is the same integer ceil(1.8 * n_docs) on both
        # sides, and array_to_string of an empty kept-list is '' like
        # pc.binary_join of an empty sub-list.
        "line_dedup": """
            WITH drops AS (
              SELECT coalesce(list(line), []) AS dl FROM (
                SELECT line FROM (
                  SELECT unnest(string_split(text, ' ')) AS line
                  FROM documents)
                WHERE length(line) >= 5 GROUP BY line
                HAVING count(*) >=
                  (9 * (SELECT count(*) FROM documents) + 4) // 5
              )
            )
            SELECT doc_id,
                   array_to_string(kept, ' ') AS text,
                   CAST(len(kept) AS BIGINT) AS n_kept,
                   CAST(n_all - len(kept) AS BIGINT) AS n_dropped
            FROM (
              SELECT d.doc_id,
                     list_filter(string_split(d.text, ' '),
                         x -> NOT (length(x) >= 5
                                   AND list_contains(dr.dl, x))) AS kept,
                     len(string_split(d.text, ' ')) AS n_all
              FROM documents d CROSS JOIN drops dr
            )
        """,
        "intradoc_dedup": """
            WITH lines AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS w,
                     unnest(generate_series(1,
                         len(string_split(text, ' ')))) AS pos
              FROM documents
            ), marked AS (
              SELECT doc_id, w, pos,
                     (length(w) < 5 OR
                      row_number() OVER (PARTITION BY doc_id, w
                                         ORDER BY pos) = 1) AS keep
              FROM lines
            )
            SELECT doc_id,
                   coalesce(string_agg(CASE WHEN keep THEN w END,
                       ' ' ORDER BY pos), '') AS text,
                   CAST(count(*) FILTER (WHERE keep) AS BIGINT)
                     AS n_kept,
                   CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT)
                     AS n_dropped
            FROM marked GROUP BY doc_id
        """,
        "tfidf_scores": f"""
            WITH tok AS (
              SELECT doc_id, unnest({_LTOKS_SQL}) AS token FROM documents
            ), tf AS (
              SELECT doc_id, token, CAST(count(*) AS DOUBLE) AS tf
              FROM tok GROUP BY doc_id, token
            ), vocab AS (
              SELECT token, CAST(count(*) AS BIGINT) AS df
              FROM (SELECT DISTINCT doc_id, token FROM tok)
              GROUP BY token ORDER BY df DESC, token LIMIT 1000
            ), n AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents),
            s AS (
              SELECT t.doc_id,
                     sum(CAST(floor(t.tf * (n.nd / v.df) * 100 + 0.5)
                         AS BIGINT)) AS v
              FROM tf t JOIN vocab v USING (token), n
              GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(s.v, 0) AS BIGINT) AS tfidf_scaled
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        "chars_quantiles": """
            SELECT lang,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
                   CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
                   CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
            FROM documents GROUP BY lang
        """,
        "vocab_top_terms": f"""
            WITH tok AS (
              SELECT DISTINCT doc_id, unnest({_LTOKS_SQL}) AS token
              FROM documents
            )
            SELECT token, CAST(count(*) AS BIGINT) AS df
            FROM tok GROUP BY token
            ORDER BY df DESC, token LIMIT 50
        """,
        "top_docs": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 100
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
              CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
              sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT))/100.0
                AS sum_base_price,
              sum(CAST(floor(l_extendedprice*(1-l_discount)*10000 + 0.5)
                  AS BIGINT))/10000.0 AS sum_disc_price,
              CAST(sum(CAST(l_quantity AS BIGINT)) AS DOUBLE)/count(*)
                AS avg_qty,
              (sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT))/100.0)
                /count(*) AS avg_price,
              CAST(count(*) AS BIGINT) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "segment_revenue": """
            SELECT c.c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   sum(CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT))/100.0
                     AS total_revenue
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "events_hourly": """
            SELECT event_type,
                   date_trunc('hour', ts) AS window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
                   sum(CAST(floor(value*1000000 + 0.5) AS BIGINT))/1000000.0
                     AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "knn_cosine": """
            WITH q AS (SELECT vec_id AS q_id, embedding AS qe
                       FROM embeddings WHERE vec_id < 5),
            s AS (SELECT q.q_id, e.vec_id,
                         list_cosine_similarity(e.embedding, q.qe) AS sim
                  FROM embeddings e, q),
            r AS (SELECT q_id, vec_id,
                         row_number() OVER (PARTITION BY q_id
                                            ORDER BY sim DESC, vec_id) AS rank
                  FROM s)
            SELECT q_id, CAST(rank AS BIGINT) AS rank, vec_id
            FROM r WHERE rank <= 10
        """,
        # exact all-knn oracle: quadratic in SQL, fine at sf0.01; the
        # Ray plan distributes the same compute over block-pair groups
        "knn_join": """
            WITH s AS (
              SELECT a.vec_id AS q_id, b.vec_id AS n_id,
                     list_cosine_similarity(a.embedding, b.embedding) AS sim
              FROM embeddings a JOIN embeddings b
                ON a.vec_id != b.vec_id
            ),
            r AS (
              SELECT q_id, n_id,
                     row_number() OVER (PARTITION BY q_id
                                        ORDER BY sim DESC, n_id) AS rank
              FROM s
            )
            SELECT q_id, CAST(rank AS BIGINT) AS rank, n_id
            FROM r WHERE rank <= 5
        """,
        "embedding_near_dup": """
            SELECT a.vec_id AS a_id, b.vec_id AS b_id
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "distinct_lang_source": """
            SELECT DISTINCT lang, source FROM documents
        """,
        "docs_sample_mod": """
            SELECT doc_id, n_chars FROM documents WHERE doc_id % 7 = 0
        """,
        # seeded epoch shuffle: the same sample_keys HUGEINT chain
        # (seed 4242), shard = key % 16, pos = 0-based rank within
        # shard by (key, doc_id)
        "epoch_shuffle": """
            WITH keyed AS (
              SELECT doc_id,
                     CAST((h1*h1 + h1) % 2305843009213693951 AS BIGINT)
                       AS sample_key
              FROM (
                SELECT doc_id,
                       (CAST(doc_id + 1 AS HUGEINT)
                          * 1234567890123456789 + 4242)
                         % 2305843009213693951 AS h1
                FROM documents
              )
            )
            SELECT doc_id,
                   CAST(sample_key % 16 AS BIGINT) AS shard,
                   sample_key,
                   CAST(row_number() OVER (
                       PARTITION BY sample_key % 16
                       ORDER BY sample_key, doc_id) - 1 AS BIGINT)
                     AS pos
            FROM keyed
        """,
        # seeded stratified sample: the hash chain is the exact HUGEINT
        # recomputation of sampling.sample_keys (affine + square mix
        # mod 2^61-1; multiplier is sampling.SAMPLE_MULT, seed 9176)
        "lang_sample": """
            WITH keyed AS (
              SELECT lang, doc_id,
                     CAST((h1*h1 + h1) % 2305843009213693951 AS BIGINT)
                       AS sample_key
              FROM (
                SELECT lang, doc_id,
                       (CAST(doc_id + 1 AS HUGEINT)
                          * 1234567890123456789 + 9176)
                         % 2305843009213693951 AS h1
                FROM documents
              )
            ), ranked AS (
              SELECT lang, doc_id, sample_key,
                     row_number() OVER (
                       PARTITION BY lang ORDER BY sample_key, doc_id
                     ) AS rn
              FROM keyed
            )
            SELECT lang, doc_id, sample_key, CAST(rn AS BIGINT) AS rn
            FROM ranked WHERE rn <= 20
        """,
        "brand_stats": """
            SELECT p_brand,
                   CAST(count(*) AS BIGINT) AS n_parts,
                   min(CAST(floor(p_retailprice*100 + 0.5) AS BIGINT))/100.0
                     AS min_price,
                   max(CAST(floor(p_retailprice*100 + 0.5) AS BIGINT))/100.0
                     AS max_price,
                   (sum(CAST(floor(p_retailprice*100 + 0.5) AS BIGINT))/100.0)
                     / count(*) AS avg_price
            FROM part GROUP BY p_brand
        """,
        "events_sliding": """
            WITH w AS (
                SELECT event_type,
                       to_timestamp((epoch_us(ts) // (15*60*1000000)
                                     - i) * (15*60*1000000) / 1000000.0)
                         AT TIME ZONE 'UTC' AS window_start,
                       value
                FROM events, generate_series(0, 3) AS t(i)
                WHERE epoch_us(ts) >= (epoch_us(ts) // (15*60*1000000) - i)
                                      * (15*60*1000000)
                  AND epoch_us(ts) <  (epoch_us(ts) // (15*60*1000000) - i)
                                      * (15*60*1000000) + CAST(3600000000 AS BIGINT)
            )
            SELECT event_type, CAST(window_start AS TIMESTAMP) AS window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   sum(CAST(floor(value*1000000 + 0.5) AS BIGINT))/1000000.0
                     AS sum_value
            FROM w GROUP BY 1, 2
        """,
        "top_orders_segment": """
            WITH r AS (
                SELECT c.c_mktsegment, o.o_orderkey,
                       floor(o.o_totalprice*100 + 0.5)/100.0 AS o_totalprice,
                       row_number() OVER (
                           PARTITION BY c.c_mktsegment
                           ORDER BY floor(o.o_totalprice*100 + 0.5) DESC,
                                    o.o_orderkey) AS rank
                FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            )
            SELECT c_mktsegment, CAST(rank AS BIGINT) AS rank, o_orderkey,
                   o_totalprice
            FROM r WHERE rank <= 3
        """,
        "band_join": """
            WITH bands(band, lo, hi) AS (VALUES
                ('budget', 0.0, 925.0),
                ('mid', 925.0, 950.0),
                ('premium', 950.0, 975.0),
                ('luxury', 975.0, 1e18))
            SELECT b.band,
                   CAST(count(*) AS BIGINT) AS n_parts,
                   sum(CAST(floor(p.p_retailprice*100 + 0.5) AS BIGINT))/100.0
                     AS total_price
            FROM part p JOIN bands b
              ON p.p_retailprice >= b.lo AND p.p_retailprice < b.hi
            GROUP BY b.band
        """,
        # per-item floor(x*100+0.5) cents then BIGINT sum, matching the
        # Ray side bit-for-bit; (revenue DESC, orderkey) makes the
        # LIMIT deterministic under revenue ties.  The outer CAST matters:
        # DuckDB's sum(BIGINT) is HUGEINT, which pandas renders as float64
        # and breaks the value hash against the Ray side's int64.
        "top_unshipped": """
            SELECT o.o_orderkey, o.o_orderdate, o.o_orderpriority,
                   CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                  * 100 + 0.5) AS BIGINT)) AS BIGINT)
                     AS revenue_cents
            FROM orders o
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-06-01'
              AND l.l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY 1, 2, 3
            ORDER BY revenue_cents DESC, o.o_orderkey
            LIMIT 10
        """,
        "props_extract": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))
                        AS DOUBLE) / count(*) AS avg_k
            FROM events GROUP BY event_type
        """,
        # PII scrub: same RE2 patterns as text.EMAIL_RE / text.PHONE_RE,
        # nested the same way (phones counted AFTER email redaction)
        "scrub_pii": r"""
            WITH t1 AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                       AS BIGINT) AS n_emails,
                     regexp_replace(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g') AS t
              FROM documents
            )
            SELECT doc_id, n_emails,
                   CAST(len(regexp_extract_all(t,
                     '\+?[0-9][0-9 ()-]{6,}[0-9]')) AS BIGINT)
                     AS n_phones,
                   regexp_replace(t, '\+?[0-9][0-9 ()-]{6,}[0-9]',
                                  '<PHONE>', 'g') AS clean_text
            FROM t1
        """,
        # temperature mixing: counts -> alpha=0.5 rates (IEEE-exact
        # sqrt/division, floored to bp) -> the same exact hash chain as
        # source_mix (sampling.SAMPLE_MULT, seed 1618)
        "temp_mix": """
            WITH cnt AS (
              SELECT lang, CAST(count(*) AS BIGINT) AS c
              FROM documents GROUP BY lang
            ), mn AS (SELECT min(c) AS cmin FROM cnt),
            rates AS (
              SELECT lang,
                     greatest(1, CAST(floor(10000.0 *
                       sqrt(CAST(cmin AS DOUBLE) / c)) AS BIGINT)) AS bp
              FROM cnt, mn
            ), keyed AS (
              SELECT d.doc_id, d.lang,
                     (h1*h1 + h1) % 2305843009213693951 AS key, r.bp
              FROM (
                SELECT doc_id, lang,
                       (CAST(doc_id + 1 AS HUGEINT)
                          * 1234567890123456789 + 1618)
                         % 2305843009213693951 AS h1
                FROM documents
              ) d JOIN rates r USING (lang)
            )
            SELECT doc_id, lang FROM keyed
            WHERE key < (CAST(2305843009213693951 AS HUGEINT) * bp)
                          // 10000
        """,
        # blocklist filter: same lowercase whitespace tokenization as
        # the engine (text.BLOCKLIST literal repeated here), fraction
        # is exact integer bp on both sides
        "blocklist_filter": f"""
            WITH toks AS (
              SELECT doc_id, {_LTOKS_SQL} AS t FROM documents
            ), s AS (
              SELECT doc_id,
                     CAST(len(t) AS BIGINT) AS n_tokens,
                     CAST(len(list_filter(t,
                       x -> x IN ('slow','spark','legacy'))) AS BIGINT)
                       AS n_flagged
              FROM toks
            )
            SELECT doc_id, n_tokens, n_flagged,
                   CAST((n_flagged * 10000) // greatest(n_tokens, 1)
                        AS BIGINT) AS flag_bp,
                   (n_flagged * 10000) // greatest(n_tokens, 1) <= 900
                     AS keep
            FROM s
        """,
        # distinctness recomputed with list_distinct — independent of
        # the engine's dictionary_encode/lexsort implementation
        "lexical_diversity": f"""
            WITH toks AS (
              SELECT doc_id, {_TOKS_SQL} AS t FROM documents
            )
            SELECT doc_id,
                   CAST(len(list_distinct(t)) AS BIGINT) AS n_types,
                   CAST(len(t) AS BIGINT) AS n_tokens,
                   CAST((len(list_distinct(t)) * 10000)
                        // greatest(len(t), 1) AS BIGINT) AS ttr_bp
            FROM toks
        """,
        # DuckDB's ICU nfc_normalize vs the engine's unicodedata —
        # two independent UAX#15 implementations compared on the full
        # normalized text; the derived decomposed suffix makes every
        # row compose (non-vacuous on the ASCII synthetic corpus)
        "normalize_nfc": """
            WITH derived AS (
              SELECT doc_id, text || 'e' || chr(769) AS text
              FROM documents
            )
            SELECT doc_id,
                   nfc_normalize(text) AS text,
                   nfc_normalize(text) <> text AS changed,
                   CAST(length(text) AS BIGINT) AS n_chars_before,
                   CAST(length(nfc_normalize(text)) AS BIGINT)
                     AS n_chars_after
            FROM derived
        """,
        # the boilerplate set and the per-doc score are BOTH
        # recomputed relationally (unnest + DISTINCT + join) —
        # independent of the engine's partial-df exchange, broadcast
        # threshold filter, and is_in scoring kernel
        "source_boilerplate": """
            WITH l AS (
              SELECT doc_id, source,
                     unnest(list_filter(
                       regexp_split_to_array(text, '\\s+'),
                       x -> length(x) >= 3)) AS w
              FROM documents
            ),
            ld AS (SELECT DISTINCT doc_id, source, w FROM l),
            df AS (SELECT source, w, count(*) AS df
                   FROM ld GROUP BY source, w),
            ns AS (SELECT source, count(*) AS n_docs
                   FROM documents GROUP BY source),
            hot AS (SELECT df.source, df.w
                    FROM df JOIN ns USING (source)
                    WHERE df.df * 10000 > 8000 * ns.n_docs),
            per AS (
              SELECT ld.doc_id,
                     count(*) AS n_units,
                     sum(CASE WHEN h.w IS NOT NULL THEN 1 ELSE 0 END)
                       AS n_boiler
              FROM ld LEFT JOIN hot h
                ON ld.source = h.source AND ld.w = h.w
              GROUP BY ld.doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(p.n_units, 0) AS BIGINT) AS n_units,
                   CAST(coalesce(p.n_boiler, 0) AS BIGINT) AS n_boiler,
                   CAST(coalesce(p.n_boiler, 0) * 10000
                        // greatest(coalesce(p.n_units, 0), 1)
                     AS BIGINT) AS boiler_bp
            FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id
        """,
        # top word-2-gram per doc; ties broken (count DESC, gram ASC)
        # exactly as the engine's lexsort; docs with < 2 tokens emit no
        # row on either side
        "top_2gram": f"""
            WITH toks AS (
              SELECT doc_id, {_TOKS_SQL} AS t FROM documents
            ), grams AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, len(t)),
                                           i -> t[i] || ' ' || t[i+1]))
                       AS g
              FROM toks WHERE len(t) >= 2
            ), counted AS (
              SELECT doc_id, g, count(*) AS c
              FROM grams GROUP BY doc_id, g
            ), ranked AS (
              SELECT doc_id, g, c,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY c DESC, g) AS rn,
                     sum(c) OVER (PARTITION BY doc_id) AS n2
              FROM counted
            )
            SELECT doc_id, g AS top_gram,
                   CAST(c AS BIGINT) AS top_count,
                   CAST(n2 AS BIGINT) AS n_2grams,
                   CAST(floor(CAST(c AS DOUBLE) / n2 * 10000 + 0.5)
                        AS BIGINT) AS top_2gram_frac_e4
            FROM ranked WHERE rn = 1
        """,
        # rate-based source mixing: same exact hash chain as
        # lang_sample (sampling.SAMPLE_MULT, seed 2718); thresholds are
        # integer (M * bp) // 10000 on BOTH sides — a float rate*M
        # would round differently at the boundary
        "source_mix": """
            WITH keyed AS (
              SELECT doc_id, source,
                     (h1*h1 + h1) % 2305843009213693951 AS key,
                     CASE source
                       WHEN 'src0' THEN 10000
                       WHEN 'src1' THEN 5000
                       WHEN 'src2' THEN 2500
                       ELSE 1250 END AS bp
              FROM (
                SELECT doc_id, source,
                       (CAST(doc_id + 1 AS HUGEINT)
                          * 1234567890123456789 + 2718)
                         % 2305843009213693951 AS h1
                FROM documents
              )
            )
            SELECT doc_id, source FROM keyed
            WHERE key < (CAST(2305843009213693951 AS HUGEINT) * bp)
                          // 10000
        """,
        # line-level repetition: group the doc's lines by VALUE; the
        # engine's dictionary_encode factorization is the same exact
        # string-equality grouping.  Fraction floats use the identical
        # float64 op order on both sides (repo convention).
        "repetition_stats": """
            WITH lines AS (
              SELECT doc_id, unnest(string_split(text, chr(10))) AS line
              FROM documents
            ), grouped AS (
              SELECT doc_id, line, count(*) AS c, length(line) AS len
              FROM lines GROUP BY doc_id, line
            ), per_doc AS (
              SELECT doc_id,
                     sum(c) AS n_lines,
                     count(*) AS distinct_lines,
                     sum(len * c) AS total_chars,
                     sum(CASE WHEN c >= 2 THEN len * c ELSE 0 END)
                       AS dup_chars
              FROM grouped GROUP BY doc_id
            )
            SELECT doc_id,
                   CAST(n_lines AS BIGINT) AS n_lines,
                   CAST(distinct_lines AS BIGINT) AS distinct_lines,
                   CAST(floor((1 - CAST(distinct_lines AS DOUBLE)
                               / n_lines) * 10000 + 0.5) AS BIGINT)
                     AS dup_line_frac_e4,
                   CAST(floor(CAST(dup_chars AS DOUBLE)
                              / greatest(total_chars, 1) * 10000 + 0.5)
                        AS BIGINT) AS dup_char_frac_e4
            FROM per_doc
        """,
        "quality_score": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT)
                     AS n_punct,
                   CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE)
                     / greatest(length(text), 1) AS punct_ratio,
                   CAST(len(list_filter(list_filter(
                        regexp_split_to_array(text, '\\s+'),
                        x -> x <> ''),
                        x -> x IN ('the','and','of','a','in','to')))
                        AS DOUBLE)
                     / greatest(len(list_filter(
                        regexp_split_to_array(text, '\\s+'),
                        x -> x <> '')), 1)
                     AS stop_ratio,
                   ((CAST(len(list_filter(list_filter(
                        regexp_split_to_array(text, '\\s+'),
                        x -> x <> ''),
                        x -> x IN ('the','and','of','a','in','to')))
                        AS DOUBLE)
                     / greatest(len(list_filter(
                        regexp_split_to_array(text, '\\s+'),
                        x -> x <> '')), 1)) * 0.5)
                   + ((CAST(len(regexp_extract_all(text, '[.,;:!?]'))
                        AS DOUBLE)
                     / greatest(length(text), 1)) * 0.3) AS quality_score
            FROM documents
        """,
        "order_priority": """
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS order_count
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1994-01-01'
              AND o_orderdate <  TIMESTAMP '1997-01-01'
            GROUP BY o_orderpriority
        """,
        "top_suppliers": """
            SELECT l.l_suppkey, s.s_name,
                   sum(CAST(floor(l.l_extendedprice*(1-l.l_discount)*10000
                       + 0.5) AS BIGINT))/10000.0 AS revenue
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
            GROUP BY l.l_suppkey, s.s_name
            ORDER BY revenue DESC, l.l_suppkey
            LIMIT 10
        """,
        "nation_rollup": """
            SELECT n.n_name, r.r_name,
                   CAST(count(*) AS BIGINT) AS n_customers,
                   sum(CAST(floor(c.c_acctbal*100 + 0.5) AS BIGINT))/100.0
                     AS total_acctbal
            FROM customer c
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY n.n_name, r.r_name
        """,
        "asof_last_order": """
            SELECT e.event_id, e.user_id,
                   o.o_orderdate AS last_order_date
            FROM events e
            ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "sessionize": """
            WITH d AS (
                SELECT user_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w
                                    > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            s AS (
                SELECT user_id, ts, value,
                       sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS UNBOUNDED PRECEDING) AS sid
                FROM d
            )
            SELECT user_id,
                   min(ts) AS session_start,
                   max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events,
                   sum(CAST(floor(value*1000000 + 0.5) AS BIGINT))/1000000.0
                     AS sum_value
            FROM s GROUP BY user_id, sid
        """,
        # lang-ID heuristic as SQL CASE over marker counts.  The marker
        # sets are the EFFECTIVE ones after LangId's setdefault (a word
        # claimed by an earlier lang, sorted order, never counts for a
        # later one: 'la'/'de' belong to es, so fr drops them); argmax
        # tie-break is first lang in sorted order, matching np.argmax.
        "lang_id": f"""
            WITH s AS (
              SELECT doc_id,
                len(list_filter({_LTOKS_SQL}, x -> x IN
                    ('der','die','das','und','ein','ist','zu'))) AS de,
                len(list_filter({_LTOKS_SQL}, x -> x IN
                    ('the','and','of','in','to','is','a'))) AS en,
                len(list_filter({_LTOKS_SQL}, x -> x IN
                    ('el','la','de','que','y','los','en'))) AS es,
                len(list_filter({_LTOKS_SQL}, x -> x IN
                    ('le','les','et','un','une'))) AS fr,
                len(list_filter({_LTOKS_SQL}, x -> x IN
                    ('de5','shi4','le5','zai4','you3'))) AS zh
              FROM documents)
            SELECT doc_id, CASE
              WHEN de=0 AND en=0 AND es=0 AND fr=0 AND zh=0 THEN 'und'
              WHEN de >= en AND de >= es AND de >= fr AND de >= zh THEN 'de'
              WHEN en >= es AND en >= fr AND en >= zh THEN 'en'
              WHEN es >= fr AND es >= zh THEN 'es'
              WHEN fr >= zh THEN 'fr' ELSE 'zh' END AS pred_lang
            FROM s
        """,
        # Karp-Rabin codepoint chain, HUGEINT to survive h*B before the
        # Mersenne mod (h < 2^61, B = 262147 -> product < 2^79)
        "doc_fingerprint": """
            SELECT doc_id,
              CAST(list_reduce(list_prepend(CAST(0 AS HUGEINT),
                   list_transform(split(text, ''),
                                  c -> CAST(unicode(c) AS HUGEINT))),
                   (h, b) -> (h * 262147 + b + 1)
                             % 2305843009213693951) AS BIGINT)
                AS fingerprint
            FROM documents
        """,
        "minhash_dedup": _MINHASH_PAIRS_SQL,
        # transitive closure of the minhash pair graph via a recursive
        # CTE (fine at sf0.01 pair counts); cluster_id = the reachable
        # set's min doc_id, matching min-label propagation's fixpoint.
        # FRAGILITY (ADVICE r2): this gate inherits MinHash banding
        # recall (~2e-4 miss/pair at 0.8) — one missed candidate pair
        # splits a component and fails the whole query.  The fixed
        # corpus+seed pins it green today; a REGENERATED corpus requires
        # re-validating banding recall before trusting a red result.
        "dup_clusters": f"""
            WITH RECURSIVE pairs AS ({_MINHASH_PAIRS_SQL}),
            edges AS (
              SELECT a_id AS u, b_id AS v FROM pairs
              UNION SELECT b_id, a_id FROM pairs
            ),
            reach AS (
              SELECT u AS node, v AS r FROM edges
              UNION
              SELECT e.u AS node, r.r FROM edges e
              JOIN reach r ON r.node = e.v
            )
            SELECT node AS doc_id, least(node, min(r)) AS cluster_id
            FROM reach GROUP BY node
        """,
        # exact char-9-gram Jaccard over all pairs — quadratic, which
        # is fine for the oracle at sf0.01 (the Ray plan uses LSH
        # banding + candidate verify instead)
        "ngram_dedup": """
            WITH sh AS (
              SELECT doc_id,
                     list_distinct(CASE WHEN length(text) <= 9 THEN [text]
                          ELSE list_transform(range(1, length(text)-7),
                                              i -> substr(text, i, 9))
                          END) AS s
              FROM documents
            )
            SELECT a.doc_id AS a_id, b.doc_id AS b_id,
                   CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                     / len(list_distinct(list_concat(a.s, b.s))) AS jaccard
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.s, b.s))
                  >= 0.5 * len(list_distinct(list_concat(a.s, b.s)))
        """,
        # full 60-bit SimHash recomputed in SQL (token hash = Karp-Rabin
        # codepoint chain + two multiplicative mix rounds, mirroring
        # functions/text.py:_token_hash60 exactly), then all pairs with
        # Hamming distance <= 3.  Quadratic all-pairs is fine for the
        # oracle at sf0.01; the Ray plan's 4x15-bit banding has recall 1
        # for <= 3 differing bits by pigeonhole, so the sets match
        # exactly (no probabilistic slack, unlike minhash_dedup).
        "simhash_dedup": """
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(text, '\\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), hs AS (
              SELECT doc_id,
                     list_transform(t, tok ->
                       CAST((CAST((CAST(list_reduce(
                              list_prepend(CAST(0 AS HUGEINT),
                                list_transform(split(tok, ''),
                                  c -> CAST(unicode(c) AS HUGEINT))),
                              (h, b) -> (h * 262147 + b + 1)
                                        % 2305843009213693951) AS HUGEINT)
                             * 1220703125 + 104729)
                            % 2305843009213693951 AS HUGEINT)
                            * 906585445 + 2654435761)
                           % 2305843009213693951 AS BIGINT)) AS hv
              FROM toks
            ), sh AS (
              SELECT doc_id,
                     coalesce(list_sum(list_transform(range(0, 60),
                       i -> CASE WHEN coalesce(list_sum(list_transform(hv,
                              h -> 2 * ((h >> i) & 1) - 1)), 0) > 0
                            THEN (CAST(1 AS BIGINT) << i) ELSE 0 END)), 0)
                       AS simhash
              FROM hs
            )
            SELECT a.doc_id AS a_id, b.doc_id AS b_id,
                   CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                     AS hamming
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        """,
        # the HLL estimate's driver-checkable accuracy gate: within 5%
        # of exact per event_type (raw estimate pinned to +-2% in tests)
        "approx_users": """
            SELECT event_type, CAST(TRUE AS BOOLEAN) AS within_5pct
            FROM events GROUP BY event_type
        """,
        # ANN accuracy gates (VERDICT r2 #4): the Ray side computes mean
        # recall@10 vs the exact kNN run alongside and emits the
        # boolean; the oracle asserts it is TRUE.  Bounds (LSH 0.35,
        # IVF 0.55) sit well under the measured means (0.48-0.58 /
        # 0.74-0.82 across sf0.001-0.1); a regenerated corpus may shift
        # them — re-measure before loosening (ADVICE r2 convention).
        "knn_lsh": """
            SELECT CAST(5 AS BIGINT) AS n_queries,
                   CAST(TRUE AS BOOLEAN) AS mean_recall_ok
        """,
        "knn_ivf": """
            SELECT CAST(5 AS BIGINT) AS n_queries,
                   CAST(TRUE AS BOOLEAN) AS mean_recall_ok
        """,
        # extraction parity is defined by ZERO mismatching docs against
        # the independent sequential oracle, so the oracle is the empty
        # table with the same schema; extract_multi and
        # extract_structured are the same gate (policy variants)
        "extract_parity": """
            SELECT CAST(NULL AS VARCHAR) AS doc_id,
                   CAST(NULL AS VARCHAR) AS reason
            WHERE FALSE
        """,
        "extract_multi": """
            SELECT CAST(NULL AS VARCHAR) AS doc_id,
                   CAST(NULL AS VARCHAR) AS reason
            WHERE FALSE
        """,
        # media_route is defined by ZERO engine-vs-oracle routing
        # disagreements (the independent loop reimplementation runs
        # inside the query), so the oracle is the empty table
        "media_route": """
            SELECT CAST(NULL AS VARCHAR) AS doc_id,
                   CAST(NULL AS VARCHAR) AS reason
            WHERE FALSE
        """,
        "extract_text_oracle": """
            SELECT CAST(NULL AS VARCHAR) AS doc_id,
                   CAST(NULL AS VARCHAR) AS reason
            WHERE FALSE
        """,
        "extract_structured": """
            SELECT CAST(NULL AS VARCHAR) AS doc_id,
                   CAST(NULL AS VARCHAR) AS reason
            WHERE FALSE
        """,
        # sequence-packing invariant gate (greedy assignment is not
        # SQL-expressible; the booleans are the contract): n_docs is
        # recomputed by the oracle, the invariants are asserted TRUE
        "pack_stats": """
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(TRUE AS BOOLEAN) AS all_docs_packed_once,
                   CAST(TRUE AS BOOLEAN) AS capacity_respected,
                   CAST(TRUE AS BOOLEAN) AS pack_count_within_2x
            FROM documents
        """,
        # media plumbing determinism gate: the query runs the feature
        # pipeline twice and digest-compares (decode is the documented
        # deterministic fake in-sandbox; schema/batching/actor plumbing
        # is what this verifies)
        "media_features": """
            SELECT CAST(2000 AS BIGINT) AS n_media,
                   CAST(TRUE AS BOOLEAN) AS deterministic_ok
        """,
    }


def oracle_sql() -> dict:
    d = _base_oracles()
    # prep_corpus composes the quality/lang/fingerprint oracles (each
    # already proven exact-match on its own): annotate, gate at the
    # 0.01 score threshold, keep min doc_id per surviving fingerprint.
    # The threshold compare is on the SAME double both sides compute
    # bit-for-bit, so the gate cannot disagree at the boundary.
    d["prep_corpus"] = f"""
        WITH q AS ({d["quality_score"]}),
        l AS ({d["lang_id"]}),
        f AS ({d["doc_fingerprint"]}),
        ann AS (
          SELECT q.doc_id, l.pred_lang, q.n_chars, q.quality_score,
                 f.fingerprint
          FROM q JOIN l ON l.doc_id = q.doc_id
          JOIN f ON f.doc_id = q.doc_id
          WHERE q.quality_score >= 0.01
        )
        SELECT doc_id, pred_lang, n_chars, quality_score, fingerprint
        FROM ann
        WHERE doc_id IN (SELECT min(doc_id) FROM ann GROUP BY fingerprint)
    """
    # curate_corpus composes quality + top-2-gram repetition gates,
    # lang/fingerprint annotate, dedup keep-min, and the stratified
    # sample hash chain (sampling.SAMPLE_MULT, seed 4242, k 20) — every
    # fragment individually proven exact-match.  Docs with no 2-grams
    # pass the repetition gate (coalesce(frac, 0)), matching the
    # engine's -1 sentinel.
    d["curate_corpus"] = f"""
        WITH q AS ({d["quality_score"]}),
        l AS ({d["lang_id"]}),
        f AS ({d["doc_fingerprint"]}),
        g AS ({d["top_2gram"]}),
        ann AS (
          SELECT q.doc_id, l.pred_lang, f.fingerprint
          FROM q JOIN l ON l.doc_id = q.doc_id
          JOIN f ON f.doc_id = q.doc_id
          LEFT JOIN g ON g.doc_id = q.doc_id
          WHERE q.quality_score >= 0.01
            AND coalesce(g.top_2gram_frac_e4, 0) <= 800
        ),
        dedup AS (
          SELECT doc_id, pred_lang FROM ann
          WHERE doc_id IN (SELECT min(doc_id) FROM ann
                           GROUP BY fingerprint)
        ),
        keyed AS (
          SELECT pred_lang, doc_id,
                 CAST((h1*h1 + h1) % 2305843009213693951 AS BIGINT)
                   AS sample_key
          FROM (
            SELECT pred_lang, doc_id,
                   (CAST(doc_id + 1 AS HUGEINT)
                      * 1234567890123456789 + 4242)
                     % 2305843009213693951 AS h1
            FROM dedup
          )
        ),
        ranked AS (
          SELECT pred_lang, doc_id, sample_key,
                 row_number() OVER (
                   PARTITION BY pred_lang ORDER BY sample_key, doc_id
                 ) AS rn
          FROM keyed
        )
        SELECT pred_lang, doc_id, sample_key, CAST(rn AS BIGINT) AS rn
        FROM ranked WHERE rn <= 20
    """
    # fuzzy_dedup_apply composes the proven dup_clusters recursive CTE
    # with the anti-join apply: keep every doc that is not a
    # non-representative member of a near-dup cluster
    d["fuzzy_dedup_apply"] = f"""
        SELECT d.doc_id, d.lang, d.n_chars
        FROM documents d
        WHERE d.doc_id NOT IN (
            SELECT c.doc_id FROM ({d["dup_clusters"]}) c
            WHERE c.doc_id != c.cluster_id
        )
    """
    # export_corpus: the selected-docs totals are exact SQL (reusing
    # the proven curate manifest CTE); the packing invariants are the
    # boolean-gate contract (greedy assignment is not SQL-expressible)
    d["export_corpus"] = f"""
        WITH sel AS ({d["curate_corpus"]})
        SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(length(doc.text)) AS BIGINT) AS total_chars,
               CAST(TRUE AS BOOLEAN) AS packed_once,
               CAST(TRUE AS BOOLEAN) AS capacity_respected
        FROM sel JOIN documents doc ON doc.doc_id = sel.doc_id
    """
    # budget_select: inclusive running-total cut over the total order
    # (quality DESC, doc_id) — the ORDER BY includes doc_id so RANGE
    # and ROWS window frames coincide (no peer rows) and both sides
    # compare the SAME bit-identical doubles (quality_score contract).
    d["budget_select"] = f"""
        WITH q AS ({d["quality_score"]}),
        t AS ({d["doc_token_stats"]}),
        ranked AS (
          SELECT doc.lang, t.n_tokens,
                 sum(t.n_tokens)
                   OVER (ORDER BY q.quality_score DESC, q.doc_id)
                   AS cum
          FROM q
          JOIN t ON t.doc_id = q.doc_id
          JOIN documents doc ON doc.doc_id = q.doc_id
        )
        SELECT lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_tokens) AS BIGINT) AS sum_tokens
        FROM ranked WHERE cum <= 12000
        GROUP BY lang
    """
    # lm_familiarity: the top-256 (count DESC, bigram ASC) cut is
    # deterministic on both sides; the score is pure integer division
    # so no float ever enters the compare.
    d["lm_familiarity"] = f"""
        WITH tok AS (
          SELECT doc_id, {_LTOKS_SQL} AS t FROM documents
        ), bg AS (
          SELECT doc_id, unnest(list_transform(range(1, len(t)),
                 i -> t[i] || ' ' || t[i+1])) AS g
          FROM tok WHERE len(t) >= 2
        ), lm AS (
          SELECT g FROM (
            SELECT g, count(*) AS n FROM bg GROUP BY g
            ORDER BY n DESC, g LIMIT 256
          )
        ), sc AS (
          SELECT b.doc_id,
                 CAST(count(*) AS BIGINT) AS n_bigrams,
                 CAST(count(lm.g) AS BIGINT) AS n_seen
          FROM bg b LEFT JOIN lm ON lm.g = b.g
          GROUP BY b.doc_id
        )
        SELECT d.doc_id,
               CAST(COALESCE(sc.n_bigrams, 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(sc.n_seen, 0) AS BIGINT) AS n_seen,
               CAST(CASE WHEN COALESCE(sc.n_bigrams, 0) > 0
                    THEN (10000 * sc.n_seen) // sc.n_bigrams
                    ELSE 0 END AS BIGINT) AS familiarity_bp
        FROM documents d LEFT JOIN sc USING (doc_id)
    """
    # ccnet_buckets: the lm_familiarity chain + the exact percent-rank
    # window ((rank()-1) * 10000 // count) + pinned integer tertiles
    d["ccnet_buckets"] = f"""
        WITH tok AS (
          SELECT doc_id, {_LTOKS_SQL} AS t FROM documents
        ), bg AS (
          SELECT doc_id, unnest(list_transform(range(1, len(t)),
                 i -> t[i] || ' ' || t[i+1])) AS g
          FROM tok WHERE len(t) >= 2
        ), lm AS (
          SELECT g FROM (
            SELECT g, count(*) AS n FROM bg GROUP BY g
            ORDER BY n DESC, g LIMIT 256
          )
        ), sc AS (
          SELECT b.doc_id,
                 CAST(count(*) AS BIGINT) AS n_bigrams,
                 CAST(count(lm.g) AS BIGINT) AS n_seen
          FROM bg b LEFT JOIN lm ON lm.g = b.g
          GROUP BY b.doc_id
        ), fam AS (
          SELECT d.doc_id, d.lang,
                 CAST(CASE WHEN COALESCE(sc.n_bigrams, 0) > 0
                      THEN (10000 * sc.n_seen) // sc.n_bigrams
                      ELSE 0 END AS BIGINT) AS familiarity_bp
          FROM documents d LEFT JOIN sc USING (doc_id)
        ), ranked AS (
          SELECT doc_id, lang, familiarity_bp,
                 CAST((rank() OVER (PARTITION BY lang
                                    ORDER BY familiarity_bp) - 1)
                      * 10000
                      // count(*) OVER (PARTITION BY lang)
                      AS BIGINT) AS pct_bp
          FROM fam
        )
        SELECT doc_id, lang, familiarity_bp, pct_bp,
               CASE WHEN pct_bp >= 6667 THEN 'head'
                    WHEN pct_bp >= 3333 THEN 'middle'
                    ELSE 'tail' END AS bucket
        FROM ranked
    """
    # dsir_scores: the 60-bit token-hash chain re-derived in HUGEINT
    # (the same chain the simhash oracle proves), folded mod 8192
    # buckets; weights and scores are pure integer arithmetic so no
    # float enters the compare (functions/dsir.py docstring).
    _hash60_tok = """
        CAST((CAST((CAST(list_reduce(
               list_prepend(CAST(0 AS HUGEINT),
                 list_transform(split(tok, ''),
                   c -> CAST(unicode(c) AS HUGEINT))),
               (h, b) -> (h * 262147 + b + 1)
                         % 2305843009213693951) AS HUGEINT)
              * 1220703125 + 104729)
             % 2305843009213693951 AS HUGEINT)
             * 906585445 + 2654435761)
            % 2305843009213693951 % 8192 AS BIGINT)
    """
    d["dsir_scores"] = f"""
        WITH tok AS (
          SELECT doc_id, lang, {_LTOKS_SQL} AS t FROM documents
        ), feats AS (
          SELECT doc_id, lang, unnest(t) AS tok FROM tok
          UNION ALL
          SELECT doc_id, lang, unnest(list_transform(range(1, len(t)),
                 i -> t[i] || ' ' || t[i+1])) AS tok
          FROM tok WHERE len(t) >= 2
        ), bucketed AS (
          SELECT doc_id, lang, {_hash60_tok} AS bucket FROM feats
        ), counts AS (
          SELECT bucket, CAST(count(*) AS BIGINT) AS r,
                 CAST(count(*) FILTER (lang = 'en') AS BIGINT) AS t
          FROM bucketed GROUP BY bucket
        ), w AS (
          SELECT bucket, ((t + 1) * 10000) // (r + 1) AS w FROM counts
        ), sc AS (
          SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_feats,
                 CAST(sum(w.w) AS BIGINT) AS dsir_score
          FROM bucketed b JOIN w USING (bucket) GROUP BY b.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(sc.n_feats, 0) AS BIGINT) AS n_feats,
               CAST(coalesce(sc.dsir_score, 0) AS BIGINT) AS dsir_score,
               CAST(CASE WHEN coalesce(sc.n_feats, 0) > 0
                    THEN sc.dsir_score // sc.n_feats ELSE 0 END
                    AS BIGINT) AS avg_w_bp
        FROM documents d LEFT JOIN sc USING (doc_id)
    """
    # dsir_select: (avg_w_bp DESC, doc_id) is a total order, so the
    # window cut is deterministic on both sides.
    d["dsir_select"] = f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (ORDER BY avg_w_bp DESC, doc_id)
                 AS rn
          FROM ({d["dsir_scores"]})
        )
        SELECT doc_id, n_feats, dsir_score, avg_w_bp
        FROM ranked WHERE rn <= 100
    """
    # topic_assign: both sides quantize to the floor(x*2^20 + 0.5)
    # int64 lattice (x*2^20 is an exact float64 exponent shift for
    # every float32 input, so the lattice is bit-identical), dot in
    # pure integer arithmetic, break argmax ties to the smallest
    # centroid id (clustering.py docstring).  The two aligned unnests
    # zip positionally in DuckDB.
    _TA_ASSIGN = """
        WITH q AS (
          SELECT vec_id,
                 list_transform(embedding, x ->
                   CAST(floor(CAST(x AS DOUBLE) * 1048576.0 + 0.5)
                        AS BIGINT)) AS qe
          FROM embeddings
        ), cent AS (
          SELECT vec_id AS cid, qe AS qc FROM q
          WHERE vec_id IN (SELECT vec_id FROM embeddings
                           ORDER BY vec_id LIMIT 8)
        ), qf AS (
          SELECT vec_id, unnest(range(1, len(qe) + 1)) AS i,
                 unnest(qe) AS v
          FROM q
        ), cf AS (
          SELECT cid, unnest(range(1, len(qc) + 1)) AS i,
                 unnest(qc) AS v
          FROM cent
        ), dots AS (
          SELECT qf.vec_id, cf.cid,
                 CAST(sum(qf.v * cf.v) AS BIGINT) AS dp
          FROM qf JOIN cf USING (i) GROUP BY 1, 2
        ), best AS (
          SELECT vec_id, cid AS topic, dp,
                 row_number() OVER (PARTITION BY vec_id
                                    ORDER BY dp DESC, cid) AS rn
          FROM dots
        )
        SELECT vec_id, topic, dp FROM best WHERE rn = 1
    """
    d["topic_assign"] = _TA_ASSIGN
    d["cluster_purity"] = f"""
        WITH assign AS ({_TA_ASSIGN}), lab AS (
          SELECT a.topic, CAST(e.label AS BIGINT) AS label,
                 CAST(count(*) AS BIGINT) AS n
          FROM assign a JOIN embeddings e USING (vec_id)
          GROUP BY 1, 2
        ), ranked AS (
          SELECT topic, label, n,
                 row_number() OVER (PARTITION BY topic
                                    ORDER BY n DESC, label) AS rn,
                 CAST(sum(n) OVER (PARTITION BY topic) AS BIGINT)
                   AS n_vecs
          FROM lab
        )
        SELECT topic, n_vecs, label AS top_label, n AS top_n
        FROM ranked WHERE rn = 1
    """
    # emb_gram: both sides quantize to the floor(x*2^10 + 0.5) int64
    # lattice (exact float64 exponent shift for float32 inputs, like
    # topic_assign's 2^20 lattice) and sum integer products — the
    # float64 BLAS matmul on the Ray side is exact under the
    # documented 2^53 block bound.  range() is 1-based, triu 0-based.
    d["emb_gram"] = """
        WITH q AS (
          SELECT vec_id,
                 list_transform(embedding, x ->
                   CAST(floor(CAST(x AS DOUBLE) * 1024.0 + 0.5)
                        AS BIGINT)) AS qe
          FROM embeddings
        ), f AS (
          SELECT vec_id, unnest(range(1, len(qe) + 1)) AS i,
                 unnest(qe) AS v
          FROM q
        )
        SELECT CAST(a.i - 1 AS BIGINT) AS i, CAST(b.i - 1 AS BIGINT) AS j,
               CAST(sum(a.v * b.v) AS BIGINT) AS g
        FROM f a JOIN f b ON a.vec_id = b.vec_id AND a.i <= b.i
        GROUP BY 1, 2
    """
    # rank_pct: (rank() - 1) = count of strictly smaller values in the
    # group — the window form of sketches.grouped_percent_rank's
    # histogram broadcast.
    d["rank_pct"] = """
        SELECT doc_id, lang, n_chars,
               CAST(((rank() OVER (PARTITION BY lang
                                   ORDER BY n_chars) - 1) * 10000)
                    // (count(*) OVER (PARTITION BY lang))
                    AS BIGINT) AS pct_bp
        FROM documents
    """
    # dup_substrings: the oracle groups raw substrings; the Ray side
    # groups 64-bit window hashes — only the per-doc counts compare
    # (hash collisions bounded ~(#windows)^2/2^65, see dedup.py).
    d["dup_substrings"] = """
        WITH pos AS (
          SELECT doc_id, unnest(range(1, greatest(length(text) - 23, 1)))
                 AS i
          FROM documents
        ), sh AS (
          SELECT DISTINCT p.doc_id, substr(d.text, CAST(p.i AS INT), 25)
                 AS s
          FROM pos p JOIN documents d USING (doc_id)
        ), nd AS (
          SELECT s FROM sh GROUP BY s HAVING count(*) >= 2
        )
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup
        FROM sh JOIN nd USING (s) GROUP BY doc_id
    """
    # strip_dup_substr: the oracle unions raw 25-char substrings where
    # the engine unions 64-bit window hashes (same collision note as
    # dup_substrings); coverage = every char index within 25 of a
    # duplicated window start, rebuild = string_agg of uncovered chars
    # in order ('' when fully covered, like the utf-32 re-decode of an
    # empty kept array).
    d["strip_dup_substr"] = """
        WITH pos AS (
          SELECT doc_id,
                 CAST(unnest(range(1, greatest(length(text) - 23, 1)))
                      AS BIGINT) AS i
          FROM documents
        ), w AS (
          SELECT p.doc_id, p.i, substr(d.text, CAST(p.i AS INT), 25) AS s
          FROM pos p JOIN documents d USING (doc_id)
        ), dup AS (
          SELECT s FROM (SELECT DISTINCT doc_id, s FROM w)
          GROUP BY s HAVING count(*) >= 2
        ), cover AS (
          SELECT DISTINCT w.doc_id, w.i + off.o AS c
          FROM w JOIN dup USING (s)
          CROSS JOIN (SELECT unnest(range(0, 25)) AS o) off
        ), chars AS (
          SELECT doc_id,
                 CAST(unnest(range(1, length(text) + 1)) AS BIGINT) AS c
          FROM documents
        ), kept AS (
          SELECT ch.doc_id, ch.c,
                 substr(d.text, CAST(ch.c AS INT), 1) AS g
          FROM chars ch JOIN documents d USING (doc_id)
          LEFT JOIN cover v ON v.doc_id = ch.doc_id AND v.c = ch.c
          WHERE v.doc_id IS NULL
        )
        SELECT d.doc_id,
               coalesce(string_agg(k.g, '' ORDER BY k.c), '') AS text,
               CAST(length(d.text) - count(k.c) AS BIGINT) AS n_removed
        FROM documents d LEFT JOIN kept k USING (doc_id)
        GROUP BY d.doc_id, d.text
    """
    # chunk_docs: codepoint windows — Arrow utf8_slice_codepoints and
    # DuckDB substr both count codepoints, so text compares exactly.
    d["chunk_docs"] = """
        WITH pos AS (
          SELECT doc_id, unnest(range(0, length(text), 150)) AS st
          FROM documents WHERE length(text) > 0
        )
        SELECT p.doc_id,
               CAST(p.st // 150 AS BIGINT) AS chunk_idx,
               substr(d.text, CAST(p.st + 1 AS INT), 200) AS chunk_text,
               CAST(least(200, length(d.text) - p.st) AS BIGINT)
                 AS n_chunk_chars
        FROM pos p JOIN documents d USING (doc_id)
    """
    # source_cap: (quality DESC, doc_id) is a total order and
    # quality_score doubles are bit-identical on both sides (same
    # contract budget_select relies on).
    d["source_cap"] = f"""
        WITH q AS ({d["quality_score"]}),
        ranked AS (
          SELECT doc.doc_id, doc.source, doc.n_chars,
                 row_number() OVER (
                   PARTITION BY doc.source
                   ORDER BY q.quality_score DESC, q.doc_id
                 ) AS rk
          FROM documents doc JOIN q ON q.doc_id = doc.doc_id
        )
        SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars
        FROM ranked WHERE rk <= 10
    """
    # dedup_keep_best: PARTITION BY text == partition by sha256(text)
    # (collision-free for any practical corpus); same bit-identical
    # quality ordering as source_cap.
    d["dedup_keep_best"] = f"""
        WITH q AS ({d["quality_score"]}),
        ranked AS (
          SELECT doc.doc_id, doc.lang, doc.n_chars,
                 row_number() OVER (
                   PARTITION BY doc.text
                   ORDER BY q.quality_score DESC, q.doc_id
                 ) AS rk
          FROM documents doc JOIN q ON q.doc_id = doc.doc_id
        )
        SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars
        FROM ranked WHERE rk = 1
    """
    # quantile_gate: sketches.grouped_quantiles matches quantile_disc
    # bit-for-bit (the chars_quantiles contract), so the gate compares
    # in pure integers.
    d["quantile_gate"] = """
        WITH th AS (
          SELECT lang, quantile_disc(n_chars, 0.5) AS p50
          FROM documents GROUP BY lang
        )
        SELECT d.doc_id, d.lang, CAST(d.n_chars AS BIGINT) AS n_chars
        FROM documents d JOIN th USING (lang)
        WHERE d.n_chars >= th.p50
    """
    # emb_dedup_apply: keep vectors with no smaller near-duplicate
    # (same 0.45 cosine threshold contract as embedding_near_dup).
    d["emb_dedup_apply"] = """
        SELECT v.vec_id, v.label FROM embeddings v
        WHERE NOT EXISTS (
          SELECT 1 FROM embeddings a
          WHERE a.vec_id < v.vec_id
            AND list_cosine_similarity(a.embedding, v.embedding) >= 0.45
        )
    """
    # semdedup_gate: deterministic synthetic input (seeded), so all
    # three values are constants — 100 planted triples = 300 exact
    # pairs; the booleans are the actual clustered-vs-exact assertion
    # computed Ray-side (knn_lsh gate pattern).
    d["semdedup_gate"] = """
        SELECT CAST(300 AS BIGINT) AS n_exact_pairs,
               CAST(TRUE AS BOOLEAN) AS precision_ok,
               CAST(TRUE AS BOOLEAN) AS recall_ok
    """
    # kmeans_gate: iterative Lloyd is not SQL-expressible; the booleans
    # are the contract (distributed == independent reference, exact
    # integer descent) and n_vecs is recomputed by the oracle.
    d["kmeans_gate"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_vecs,
               CAST(TRUE AS BOOLEAN) AS assign_match,
               CAST(TRUE AS BOOLEAN) AS centroids_match,
               CAST(TRUE AS BOOLEAN) AS objective_monotone
        FROM embeddings
    """
    # pca_gate: the eigensolve is not SQL-expressible; the boolean is
    # the bit-equality contract, n_vecs recomputed by the oracle.
    d["pca_gate"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_vecs,
               CAST(TRUE AS BOOLEAN) AS projection_match
        FROM embeddings
    """
    # heavy_hitters: exact top-10 by TERM frequency (vocab_top_terms is
    # by DOCUMENT frequency), same tokenization contract.
    d["heavy_hitters"] = f"""
        WITH tok AS (
          SELECT unnest({_LTOKS_SQL}) AS token FROM documents
        )
        SELECT token, CAST(count(*) AS BIGINT) AS cnt
        FROM tok GROUP BY token
        ORDER BY cnt DESC, token LIMIT 10
    """
    # decon_bloom: lossless prune — the output contract IS decontaminate's.
    d["decon_bloom"] = d["decontaminate"]
    # index_dedup: deterministic two-phase protocol == the batch
    # exact-dedup contract.
    d["index_dedup"] = d["exact_dedup"]
    # neardup_ingest: deterministic seeded input, boolean gate (the
    # semdedup_gate pattern) — 25 fresh docs kept, all history
    # near-dups dropped.
    d["neardup_ingest"] = """
        SELECT CAST(25 AS BIGINT) AS n_kept,
               CAST(TRUE AS BOOLEAN) AS history_dups_dropped,
               CAST(TRUE AS BOOLEAN) AS fresh_kept
    """
    # value_quantiles: the within-bound boolean gate pattern — the
    # rank-error assertion is computed Ray-side; the oracle pins the
    # group keys and asserts every bound held.
    d["value_quantiles"] = """
        SELECT DISTINCT event_type,
               CAST(TRUE AS BOOLEAN) AS p50_ok,
               CAST(TRUE AS BOOLEAN) AS p90_ok,
               CAST(TRUE AS BOOLEAN) AS p99_ok
        FROM events
    """
    # hash_split: same exact hash chain as source_mix (seed 3141),
    # cumulative 90/5/5 integer thresholds; key == boundary goes right
    # (engine searchsorted side='right' == SQL strict '<').
    d["hash_split"] = """
        WITH keyed AS (
          SELECT doc_id, (h1*h1 + h1) % 2305843009213693951 AS key
          FROM (
            SELECT doc_id,
                   (CAST(doc_id + 1 AS HUGEINT)
                      * 1234567890123456789 + 3141)
                     % 2305843009213693951 AS h1
            FROM documents
          )
        )
        SELECT doc_id,
               CASE
                 WHEN key < (CAST(2305843009213693951 AS HUGEINT) * 9000)
                              // 10000 THEN 'train'
                 WHEN key < (CAST(2305843009213693951 AS HUGEINT) * 9500)
                              // 10000 THEN 'val'
                 ELSE 'test'
               END AS split
        FROM keyed
    """
    # quality_classifier: the identical integer GD recurrence unrolled
    # (3 iterations).  DuckDB `//` TRUNCATES toward zero and the engine
    # pins the same (classifier._tdiv_vec) — floor semantics would
    # diverge on negative scores/gradients.
    cls = f"""
        WITH feats AS (
          SELECT doc_id,
                 CAST(len(t) AS BIGINT) AS f1,
                 CAST(len(list_filter(t, x -> x IN {_STOP_SQL}))
                      AS BIGINT) AS f2,
                 CAST(length(text) AS BIGINT) AS f3,
                 CAST(CASE WHEN lang = 'en' THEN 1 ELSE 0 END
                      AS BIGINT) AS y
          FROM (SELECT doc_id, lang, text, {_TOKS_SQL} AS t
                FROM documents)
        ), w0 AS (
          SELECT CAST(0 AS BIGINT) AS w0, CAST(0 AS BIGINT) AS w1,
                 CAST(0 AS BIGINT) AS w2, CAST(0 AS BIGINT) AS w3
        )"""
    for i in (1, 2, 3):
        cls += f""", g{i} AS (
          SELECT SUM(err) AS g0, SUM(err * f1) AS g1,
                 SUM(err * f2) AS g2, SUM(err * f3) AS g3,
                 COUNT(*) AS n
          FROM (
            SELECT least(greatest(5000 +
                     (w.w0 + w.w1*f.f1 + w.w2*f.f2 + w.w3*f.f3)
                       // 1000, 0), 10000) - 10000 * f.y AS err,
                   f.f1, f.f2, f.f3
            FROM feats f, w{i - 1} w)
        ), w{i} AS (
          SELECT CAST(w.w0 - g.g0 // (g.n * 200) AS BIGINT) AS w0,
                 CAST(w.w1 - g.g1 // (g.n * 200) AS BIGINT) AS w1,
                 CAST(w.w2 - g.g2 // (g.n * 200) AS BIGINT) AS w2,
                 CAST(w.w3 - g.g3 // (g.n * 200) AS BIGINT) AS w3
          FROM w{i - 1} w, g{i} g
        )"""
    d["quality_classifier"] = cls + """
        SELECT f.doc_id,
               CAST(least(greatest(5000 +
                 (w.w0 + w.w1*f.f1 + w.w2*f.f2 + w.w3*f.f3) // 1000,
                 0), 10000) AS BIGINT) AS pred_bp,
               f.y AS label
        FROM feats f, w3 w
    """
    # bpe_gate: BPE training is iterative and not SQL-expressible; the
    # booleans are the distributed==reference contract, n_docs
    # recomputed by the oracle.
    d["bpe_gate"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(TRUE AS BOOLEAN) AS merges_match,
               CAST(TRUE AS BOOLEAN) AS encode_match,
               CAST(TRUE AS BOOLEAN) AS roundtrip_ok
        FROM documents
    """
    # pagerank: the identical integer recurrence unrolled (3 power
    # iterations) — node ids, degrees, per-edge floor-division
    # contributions and the teleport base all exact BIGINT, so the
    # final ranks hash-match the engine bit-for-bit
    pr_base = (15 * 10 ** 12) // 100
    pr = """
        WITH edges AS (
          SELECT l_partkey*2 AS src, l_suppkey*2+1 AS dst FROM lineitem
          UNION ALL
          SELECT l_suppkey*2+1 AS src, l_partkey*2 AS dst FROM lineitem
        ), nodes AS (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM edges
            UNION ALL SELECT dst FROM edges)
        ), outdeg AS (
          SELECT src, CAST(count(*) AS BIGINT) AS deg
          FROM edges GROUP BY src
        ), r0 AS (
          SELECT node, CAST(1000000000000 AS BIGINT) AS r FROM nodes
        )"""
    prev = "r0"
    for i in (1, 2, 3):
        pr += f""", r{i} AS (
          SELECT n.node,
                 CAST({pr_base} + COALESCE(s.v, 0) AS BIGINT) AS r
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node,
                   SUM((85 * r.r) // (100 * o.deg)) AS v
            FROM edges e
            JOIN {prev} r ON r.node = e.src
            JOIN outdeg o ON o.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        )"""
        prev = f"r{i}"
    d["pagerank"] = pr + f"""
        SELECT node, r AS rank_scaled FROM {prev}
    """
    return d

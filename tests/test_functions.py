"""Tests for the training-data-pipeline operator suite: text stats,
dedup (exact / MinHash / SimHash), similarity search, and the SQL-oracle
agreement of the relational queries at smoke scale."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ollama_ocr_ray.functions import dedup, similarity
from ollama_ocr_ray.functions.text import STOPWORDS, SimHasher, token_stats_batch

SF = "/root/testdata/sf0.001"


def _collect(ds):
    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables)


def test_token_stats_matches_naive():
    texts = ["the quick fox", "a a the of and", "solo", "x " * 50]
    t = pa.table({"doc_id": pa.array(range(4), type=pa.int64()),
                  "text": pa.array([s.strip() for s in texts])})
    out = token_stats_batch(t).to_pylist()
    for row, s in zip(out, texts):
        toks = s.split()
        assert row["n_tokens"] == len(toks)
        assert row["n_stop"] == sum(tok in STOPWORDS for tok in toks)


def test_exact_dedup_planted(ray_session):
    import ray.data as rd

    rows = [
        {"doc_id": 1, "text": "alpha beta"},
        {"doc_id": 5, "text": "alpha beta"},
        {"doc_id": 3, "text": "gamma"},
        {"doc_id": 9, "text": "alpha beta"},
    ]
    out = _collect(dedup.exact_dedup(rd.from_items(rows))).to_pylist()
    got = {r["doc_id"]: r["n_dups"] for r in out}
    assert got == {1: 3, 3: 1}


def test_minhash_finds_planted_near_dups(ray_session):
    import random

    import ray.data as rd

    rng = random.Random(5)
    words = [f"w{i}" for i in range(200)]
    base = " ".join(rng.choice(words) for _ in range(120))
    near = base + " extra token here"
    far = " ".join(rng.choice(words) for _ in range(120))
    rows = [
        {"doc_id": 10, "text": base},
        {"doc_id": 20, "text": near},
        {"doc_id": 30, "text": far},
        {"doc_id": 40, "text": base},  # exact dup
    ]
    out = _collect(
        dedup.minhash_dup_pairs(rd.from_items(rows), threshold=0.5)
    ).to_pylist()
    pairs = {(r["a_id"], r["b_id"]) for r in out}
    assert (10, 40) in pairs          # exact dup: jaccard 1.0
    assert (10, 20) in pairs          # near dup: high jaccard
    assert not any(30 in p for p in pairs)
    # the verify stage reports EXACT word-3-shingle Jaccard (the same
    # quantity ngram_jaccard computes independently)
    exact = dedup.ngram_jaccard(base, near)
    got = next(r["jaccard"] for r in out if (r["a_id"], r["b_id"]) == (10, 20))
    assert abs(got - exact) < 1e-12
    full = next(r["jaccard"] for r in out if (r["a_id"], r["b_id"]) == (10, 40))
    assert full == 1.0


def test_simhash_near_identical_pair(ray_session):
    import ray.data as rd

    base = " ".join(f"tok{i}" for i in range(300))
    near = base.replace("tok5 ", "tok5x ")
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},  # exact dup: hamming 0, guaranteed found
        {"doc_id": 3, "text": " ".join(f"other{i}" for i in range(300))},
        {"doc_id": 4, "text": near},
    ]
    sh = SimHasher()
    near_hamming = dedup.hamming64(sh.simhash(base), sh.simhash(near))
    out = _collect(
        dedup.simhash_dup_pairs(rd.from_items(rows),
                                max_hamming=max(3, near_hamming))
    ).to_pylist()
    pairs = {(r["a_id"], r["b_id"]): r["hamming"] for r in out}
    assert pairs.get((1, 2)) == 0
    assert not any(3 in p for p in pairs)
    # near-dup pair found when its hamming avoids no band (probabilistic
    # above 3 bits; exact-band banding guarantees recall only for <=3)
    if (1, 4) in pairs:
        assert pairs[(1, 4)] == near_hamming


@pytest.mark.parametrize("small_graph_rows", [4_000_000, 0],
                         ids=["local", "distributed"])
def test_dup_clusters_connected_components(ray_session, small_graph_rows):
    import ray.data as rd

    # two components: a path 1-2-3-4-5-6 (diameter 5 forces several
    # propagation rounds) and a triangle 10-11-12; 99 is absent from
    # any pair and must not appear in the output
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
             (10, 11), (11, 12), (10, 12)]
    ds = rd.from_items([{"a_id": a, "b_id": b} for a, b in pairs])
    out = _collect(
        dedup.dup_clusters(ds, small_graph_rows=small_graph_rows)
    ).to_pylist()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1,
                   10: 10, 11: 10, 12: 10}


def test_dup_clusters_empty_pairs(ray_session):
    """0 candidate pairs short-circuits to an empty typed result before
    either physical plan runs (both plans share the early return)."""
    import ray.data as rd

    ds = rd.from_items([{"a_id": 1, "b_id": 2}]).filter(
        lambda r: False
    )
    out = dedup.dup_clusters(ds, small_graph_rows=0)
    assert out.schema().names == ["doc_id", "cluster_id"]
    assert out.count() == 0


def _load_embeddings():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t.column("vec_id"), dtype=np.int64)
    mat = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()])
    return t, ids, mat


def test_knn_cosine_matches_numpy(ray_session, tie_corpus):
    """Exact top-k in numpy's (sim desc, vec_id) order, on the testdata
    embeddings and on a corpus whose repeated vector (ids 0-29) spans
    two blocks: a tie at the k-th place goes to the smaller ids."""
    import ray.data as rd

    t, ids, mat = _load_embeddings()
    tie_mat, tie_t = tie_corpus
    tie_ids = np.arange(len(tie_mat))
    cases = [
        (rd.read_parquet(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding"]),
         ids, mat, ids[:3]),
        (rd.from_arrow(tie_t).repartition(6), tie_ids, tie_mat,
         np.array([0, 40, 77])),
    ]
    for ds, ids, mat, qids in cases:
        qm = mat[qids]
        out = _collect(similarity.knn_cosine(ds, qm, qids, k=5)).to_pylist()
        n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        for qi, qid in enumerate(qids):
            sims = n @ (qm[qi] / np.linalg.norm(qm[qi]))
            order = np.lexsort((ids, -sims))
            expect = ids[order[:5]].tolist()
            got = [r["vec_id"] for r in sorted(out, key=lambda r: r["rank"])
                   if r["q_id"] == qid]
            assert got == expect, qid


def test_ann_ties_match_numpy(ray_session, tie_corpus):
    """A query repeated at ids 0-29 shares its LSH bucket and IVF list
    with every copy, so both ANN operators return numpy's exact top-k:
    the five smallest ids of the tie."""
    import ray.data as rd

    mat, t = tie_corpus
    ids = np.arange(len(mat))
    n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    expect = ids[np.lexsort((ids, -(n @ n[0])))[:5]].tolist()
    assert expect == [0, 1, 2, 3, 4]
    qm, qids = mat[:1], np.array([0])
    ds = rd.from_arrow(t).repartition(6)
    for out in (
        similarity.lsh_ann(ds, qm, qids, dim=mat.shape[1], k=5),
        similarity.ivf_ann(ds, qm, qids, mat, k=5, nlist=8, nprobe=4),
    ):
        got = [r["vec_id"] for r in sorted(_collect(out).to_pylist(),
                                           key=lambda r: r["rank"])]
        assert got == expect


def test_lsh_ann_recall(ray_session):
    import ray.data as rd

    t, ids, mat = _load_embeddings()
    qm, qids = mat[:5], ids[:5]
    ds = rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = _collect(similarity.knn_cosine(ds, qm, qids, k=10)).to_pylist()
    approx = _collect(
        similarity.lsh_ann(ds, qm, qids, dim=mat.shape[1], k=10)
    ).to_pylist()
    ex = {(r["q_id"], r["vec_id"]) for r in exact}
    ap = {(r["q_id"], r["vec_id"]) for r in approx}
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.5, f"LSH recall {recall}"


def test_anti_join_and_droplist_planted(ray_session):
    """anti_join drops exactly the keys present on the right;
    exact_droplist names every non-min duplicate doc_id."""
    import ray.data as rd

    from ollama_ocr_ray.functions import relational

    rows = [
        {"doc_id": 1, "text": "alpha beta", "lang": "en"},
        {"doc_id": 5, "text": "alpha beta", "lang": "en"},   # dup of 1
        {"doc_id": 3, "text": "gamma", "lang": "fr"},
        {"doc_id": 9, "text": "alpha beta", "lang": "de"},   # dup of 1
        {"doc_id": 7, "text": "delta", "lang": "en"},
    ]
    docs = rd.from_items(rows, override_num_blocks=2)
    drop = dedup.exact_droplist(docs)
    assert sorted(r["doc_id"] for r in drop.take_all()) == [5, 9]
    kept = _collect(
        relational.anti_join(docs, drop, key="doc_id", left_cols=["lang"])
    ).to_pylist()
    assert sorted((r["doc_id"], r["lang"]) for r in kept) == \
        [(1, "en"), (3, "fr"), (7, "en")]


def test_grouped_quantiles_planted(ray_session):
    """Exact discrete quantiles across multiple blocks; rank semantics
    = DuckDB quantile_disc (1-based max(1, ceil(n*q)))."""
    import ray.data as rd

    from ollama_ocr_ray.functions.sketches import grouped_quantiles

    rows = [{"k": "a", "v": v} for v in [10, 20, 30, 40]] + \
           [{"k": "b", "v": v} for v in [7, 7, 7, 100]]
    ds = rd.from_items(rows, override_num_blocks=3)
    out = {r["k"]: r for r in _collect(
        grouped_quantiles(ds, "k", "v", qs=(0.5, 0.9))
    ).to_pylist()}
    assert out["a"]["p50"] == 20 and out["a"]["p90"] == 40
    assert out["b"]["p50"] == 7 and out["b"]["p90"] == 100


def test_decontaminate_planted(ray_session):
    """Eval doc 0 contaminates only the doc sharing its 3-grams; short
    docs degrade to one whole-doc gram (the <k fallback)."""
    import ray.data as rd

    from ollama_ocr_ray.functions import contamination

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta"},   # eval (mod 3)
        {"doc_id": 1, "text": "x alpha beta gamma y"},     # shares 1 gram
        {"doc_id": 2, "text": "unrelated words entirely here"},
        {"doc_id": 3, "text": "so sh"},                    # eval, short
        {"doc_id": 4, "text": "so sh"},                    # whole-doc gram hit
    ]
    out = _collect(
        contamination.decontaminate(
            rd.from_items(rows), eval_mod=3, k=3
        )
    ).to_pylist()
    got = {r["doc_id"]: r["n_overlap"] for r in out}
    assert got == {1: 1, 4: 1}


def test_vocab_df_partial_counts_documents_not_occurrences():
    from ollama_ocr_ray.functions.text import vocab_df_partial

    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(["Dog dog dog cat", "dog bird"])})
    out = {r["token"]: r["df"] for r in vocab_df_partial(t).to_pylist()}
    assert out == {"dog": 2, "cat": 1, "bird": 1}


@pytest.mark.parametrize("name", ["pricing_summary", "segment_revenue",
                                  "events_hourly", "exact_dedup",
                                  "doc_token_stats", "knn_cosine",
                                  "decontaminate", "vocab_top_terms",
                                  "chars_quantiles", "tfidf_scores",
                                  "dedup_apply"])
def test_queries_match_oracle_sf0001(ray_session, name):
    """The driver's correctness gate in miniature at sf0.001."""
    from ollama_ocr_ray.queries import oracle_sql, queries

    got_raw = queries()[name](SF)
    got = _collect(got_raw).to_pandas()
    con = duckdb.connect()
    for tbl in ["documents", "lineitem", "orders", "customer", "events",
                "embeddings"]:
        con.sql(f"CREATE VIEW {tbl} AS SELECT * FROM "
                f"read_parquet('{SF}/{tbl}.parquet')")
    exp = con.sql(oracle_sql()[name]).df()

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(by=list(df.columns), ignore_index=True)

    pd.testing.assert_frame_equal(canon(got), canon(exp), check_dtype=False,
                                  check_exact=True)


def test_lsh_mega_bucket_refuses(ray_session):
    """r5 guard: a boilerplate-template bucket above LSH_MAX_BUCKET
    must refuse loudly (exact all-pairs would be quadratic) instead of
    materializing B^2/2 candidate pairs; the error names the remedies
    (exact dedup first / the incremental index's bounded-recall cap)."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from ollama_ocr_ray.functions import dedup

    n = dedup.LSH_MAX_BUCKET + 8
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array(["the same short boilerplate template"] * n),
    })
    with pytest.raises(Exception, match="LSH_MAX_BUCKET"):
        dedup.minhash_dup_pairs(rd.from_arrow(t),
                                threshold=0.8).take_all()

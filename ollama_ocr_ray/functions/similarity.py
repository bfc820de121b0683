"""Similarity search and all-pairs joins over an embedding column
(list<float>), ranked or thresholded by cosine.

Top-k operators emit (q_id, rank, vec_id | n_id) rows, ties at equal
sim broken by the smaller id (the oracle's ``ORDER BY sim DESC, id``):
- ``knn_cosine``: exact, against a broadcast query matrix.
- ``lsh_ann``: random-hyperplane LSH with multiprobe; each query sees
  only rows hashed near its own bucket (exact rerank of those).
- ``ivf_ann``: IVF-flat; each query sees only its ``nprobe`` closest
  of ``nlist`` k-means lists (exact rerank of those).
- ``knn_join``: exact self-join, every vector's top-k neighbors.

Threshold joins emit (a_id, b_id, sim) rows with a_id < b_id:
- ``embedding_near_dup_blocked``: exact all-pairs, sim >= threshold.
- ``semdedup_pairs_clustered``: SemDeDup-style, pairs within one
  k-means cluster only (recall gated against the exact plan).

One selection kernel, ``_topk_rows``, serves every top-k operator.
The three broadcast-query operators are ``_query_topk`` with a
different row mask; ``knn_join`` and ``embedding_near_dup_blocked`` are
``_block_pairs`` with a different per-pair-group kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    col = batch.column("embedding").combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    dim = len(col[0])
    mat = flat.reshape(len(ids), dim).astype(np.float64)
    return ids, mat


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _table(cols: tuple, schema: pa.Schema) -> pa.Table:
    """``schema`` table from one list of numpy chunks per column."""
    return pa.table(
        [pa.array(np.concatenate(c) if c else [], type=f.type)
         for c, f in zip(cols, schema)],
        schema=schema,
    )


def _topk_rows(qs: np.ndarray, cands: np.ndarray, sims: np.ndarray,
               k: int, out: tuple) -> None:
    """Append each row's top-k of a (len(qs) x len(cands)) sim matrix
    to ``out``'s three chunk lists as (q, cand, sim).

    A row keeps every candidate at or above its k-th best sim, so a tie
    at the k-th place is kept whole and the merge's (sim desc, id asc)
    sort picks the oracle's k; a ``-inf`` entry is not a candidate."""
    kk = min(k, sims.shape[1])
    if kk == 0 or sims.shape[0] == 0:
        return
    kth = -np.partition(-sims, kk - 1, axis=1)[:, kk - 1]
    rows, cols = np.nonzero((sims >= kth[:, None]) & (sims > -np.inf))
    out[0].append(qs[rows])
    out[1].append(cands[cols])
    out[2].append(sims[rows, cols])


_PARTIAL = pa.schema(
    [("q_id", pa.int64()), ("vec_id", pa.int64()), ("sim", pa.float64())]
)


def _query_topk(embeddings, query_matrix: np.ndarray,
                query_ids: np.ndarray, k: int, allowed=None):
    """Top-k rows (q_id, rank, vec_id) of every broadcast query.

    Per batch: ``allowed(mat, unit) -> (n, Q) bool`` (``None``: all)
    says which rows each query may see; rows no query may see are
    dropped before the matmul, then ``_topk_rows`` keeps each query's
    partial top-k.  One ``groupby("q_id")`` merge sorts each query's
    partials (a handful of groups: the query set is driver-sized), so
    only k-ish rows per (query, batch) ever shuffle, never the corpus.
    """
    qn = _normalize(query_matrix.astype(np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)

    def partials(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        unit = _normalize(mat)
        out = ([], [], [])
        if allowed is None:
            _topk_rows(qids, ids, qn @ unit.T, k, out)
        else:
            mask = allowed(mat, unit)
            seen = mask.any(axis=1)
            if seen.any():
                sims = np.where(mask[seen].T, qn @ unit[seen].T, -np.inf)
                _topk_rows(qids, ids[seen], sims, k, out)
        return _table(out, _PARTIAL)

    def topk(group: pa.Table) -> pa.Table:
        g = group.sort_by([("sim", "descending"), ("vec_id", "ascending")])
        g = g.slice(0, k)
        return pa.table(
            {
                "q_id": g.column("q_id"),
                "rank": pa.array(np.arange(1, len(g) + 1, dtype=np.int64)),
                "vec_id": g.column("vec_id"),
            }
        )

    return embeddings.map_batches(partials, batch_format="pyarrow") \
        .groupby("q_id").map_groups(topk, batch_format="pyarrow")


def knn_cosine(embeddings, query_matrix: np.ndarray, query_ids: np.ndarray,
               k: int = 10):
    """Dataset(vec_id, embedding) × broadcast query matrix → exact
    top-k rows (q_id, rank, vec_id) by cosine, ties broken by vec_id."""
    return _query_topk(embeddings, query_matrix, query_ids, k)


def _block_pairs(embeddings, n_blocks: int, group, out_schema: pa.Schema):
    """The block-pair exchange every exact all-pairs operator runs.

    Each vector lands in block ``vec_id % n_blocks`` and is replicated
    to the ``n_blocks`` pair groups (min(b, j), max(b, j)) it belongs
    to, so any two vectors meet in exactly ONE group; one sort on the
    pair key co-locates each group, and ``folds.exact_segment_fold``
    keeps a group whole across sorted-block splits.  Per group it calls
    ``group(ids_i, unit_i, ids_j, unit_j)`` (unit-normalized rows of
    the two blocks; ``ids_j``/``unit_j`` are ``None`` on the diagonal)
    for an ``out_schema`` table.  The exchange carries N x B rows and
    the O(N²) compute spreads over B(B+1)/2 group tasks; pick
    ``n_blocks`` ~ sqrt(2 x cluster parallelism)."""
    from .dedup import _segment_bounds
    from .folds import exact_segment_fold

    B = n_blocks

    def replicate(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        blocks = batch.column("vec_id").to_numpy() % B
        j = np.arange(B)[:, None]
        pair = np.minimum(blocks, j) * B + np.maximum(blocks, j)
        rows = pa.array(np.tile(np.arange(batch.num_rows), B))
        return pa.table(
            {
                "pair": pa.array(pair.reshape(-1)),
                "vec_id": batch.column("vec_id").take(rows),
                "embedding": batch.column("embedding").take(rows),
            }
        )

    def fold(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        pair = np.asarray(batch.column("pair"))
        parts = [out_schema.empty_table()]
        for s, e in zip(*_segment_bounds(pair)):
            ids, mat = _batch_matrix(batch.slice(s, e - s))
            unit = _normalize(mat)
            bi, bj = divmod(int(pair[s]), B)
            if bi == bj:
                parts.append(group(ids, unit, None, None))
            else:
                mi, mj = ids % B == bi, ids % B == bj
                parts.append(group(ids[mi], unit[mi], ids[mj], unit[mj]))
        return pa.concat_tables(parts)

    emb_type = embeddings.schema().base_schema.field("embedding").type
    return exact_segment_fold(
        embeddings.map_batches(
            replicate, batch_format="pyarrow", zero_copy_batch=True
        ).sort("pair"),
        key_cols=["pair"], fold=fold,
        raw_schema=pa.schema(
            [("pair", pa.int64()), ("vec_id", pa.int64()),
             ("embedding", emb_type)]
        ),
        out_schema=out_schema,
    )


def knn_join(embeddings, *, k: int = 5, n_blocks: int = 8):
    """Distributed EXACT k-NN self-join: every vector's top-k cosine
    neighbors (excluding itself), ties broken by neighbor id — the
    similarity-search step a dedup/curation pipeline runs over its own
    corpus (vs ``knn_cosine``'s broadcast query set).

    Plan: ``_block_pairs``, a per-group ``_topk_rows`` for BOTH sides,
    then one sort on q_id and a boundary-exact segment fold merges the
    partials (any global top-k member is in its group's top-k, so
    merging partials is exact).  The queries are the corpus, so the
    merge is a sort + fold, not a per-query ``groupby``.  Exchange =
    N x B vector rows + N x B x k scalar partials; ``lsh_ann`` /
    ``ivf_ann`` are the approximate scale path."""
    from .dedup import _segment_bounds
    from .folds import exact_segment_fold

    part_schema = pa.schema(
        [("q_id", pa.int64()), ("n_id", pa.int64()), ("sim", pa.float64())]
    )

    def group(ids_i, unit_i, ids_j, unit_j) -> pa.Table:
        out = ([], [], [])
        if ids_j is None:
            sims = unit_i @ unit_i.T
            np.fill_diagonal(sims, -np.inf)
            _topk_rows(ids_i, ids_i, sims, k, out)
        else:
            sims = unit_i @ unit_j.T
            _topk_rows(ids_i, ids_j, sims, k, out)
            _topk_rows(ids_j, ids_i, np.ascontiguousarray(sims.T), k, out)
        return _table(out, part_schema)

    out_schema = pa.schema(
        [("q_id", pa.int64()), ("rank", pa.int64()), ("n_id", pa.int64())]
    )

    def merge_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        import pyarrow.compute as pc

        idx = pc.sort_indices(
            batch, sort_keys=[("q_id", "ascending"), ("sim", "descending"),
                              ("n_id", "ascending")],
        )
        batch = batch.take(idx).combine_chunks()
        q = np.asarray(batch.column("q_id"))
        n_ = np.asarray(batch.column("n_id"))
        starts, ends = _segment_bounds(q)
        rank = np.arange(len(q), dtype=np.int64) - np.repeat(starts,
                                                             ends - starts)
        keep = rank < k
        return pa.table(
            {
                "q_id": pa.array(q[keep], type=pa.int64()),
                "rank": pa.array(rank[keep] + 1, type=pa.int64()),
                "n_id": pa.array(n_[keep], type=pa.int64()),
            }
        ).cast(out_schema)

    partials = _block_pairs(embeddings, n_blocks, group, part_schema)
    return exact_segment_fold(
        partials.sort("q_id"), key_cols=["q_id"], fold=merge_topk,
        raw_schema=part_schema, out_schema=out_schema,
    )


class HyperplaneLSH:
    """LSH bucket ids: the sign bits of ``n_planes`` random hyperplane
    projections (fixed seed, so the driver and every task agree)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(n_planes, dim))
        self.n_planes = n_planes

    def bucket_of(self, mat: np.ndarray) -> np.ndarray:
        bits = (mat @ self.planes.T) > 0  # (n, P)
        return bits @ (1 << np.arange(self.n_planes, dtype=np.int64))


def lsh_ann(embeddings, query_matrix: np.ndarray, query_ids: np.ndarray,
            dim: int, k: int = 10, n_planes: int = 6, multiprobe: int = 2):
    """Approximate top-k: bucket vectors by hyperplane LSH, search only
    buckets within ``multiprobe`` bit flips of each query's bucket,
    exact-rerank candidates.  Recall measured in tests vs knn_cosine.

    Each batch computes its rows' buckets in the same pass as the
    search (the hasher is one seeded (dim x n_planes) matrix that ships
    with the task), and rows in no query's probe set never reach the
    matmul."""
    lsh = HyperplaneLSH(dim, n_planes)
    q_buckets = lsh.bucket_of(
        _normalize(np.asarray(query_matrix, dtype=np.float64))
    )
    popcount = np.array([bin(b).count("1") for b in range(1 << n_planes)])

    def near(mat: np.ndarray, unit: np.ndarray) -> np.ndarray:
        flips = lsh.bucket_of(mat)[:, None] ^ q_buckets[None, :]
        return popcount[flips] <= multiprobe

    return _query_topk(embeddings, query_matrix, query_ids, k, near)


def embedding_near_dup_blocked(embeddings, threshold: float,
                               n_blocks: int = 8):
    """Exact all-pairs cosine ≥ threshold WITHOUT a full-matrix
    broadcast (VERDICT r1 #4): the classic distributed block-pair plan
    (``_block_pairs``), whose per-group kernel is one (|i| x |j|)
    matmul.  The O(N²) compute is inherent to an exact threshold join;
    the plan spreads it over B(B+1)/2 independent group tasks, and the
    exchange carries N x B rows instead of shipping an O(N) matrix to
    every task.

    This is the exact, oracle-matched plan.  At scale,
    ``semdedup_pairs_clustered`` trades recall for compute, and the
    ``semdedup_gate`` query measures it against this one.
    """
    out_schema = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()),
         ("sim", pa.float64())]
    )

    def group(ids_i, unit_i, ids_j, unit_j) -> pa.Table:
        if ids_j is None:
            ids_j, sims = ids_i, unit_i @ unit_i.T
            r, c = np.nonzero(np.triu(sims >= threshold, 1))
        else:
            sims = unit_i @ unit_j.T
            r, c = np.nonzero(sims >= threshold)
        a, b = ids_i[r], ids_j[c]
        return _table(
            ([np.minimum(a, b)], [np.maximum(a, b)], [sims[r, c]]),
            out_schema,
        )

    return _block_pairs(embeddings, n_blocks, group, out_schema)


def _kmeans(sample: np.ndarray, nlist: int, iters: int = 8,
            seed: int = 42) -> np.ndarray:
    """Tiny deterministic k-means for IVF centroids (driver-side over a
    bounded sample; real deployments train offline and broadcast)."""
    rng = np.random.RandomState(seed)
    n = len(sample)
    cent = sample[rng.choice(n, size=min(nlist, n), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(_normalize(sample) @ _normalize(cent).T, axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
    return cent




def ivf_ann(embeddings, query_matrix: np.ndarray, query_ids: np.ndarray,
            sample_matrix: np.ndarray, k: int = 10, nlist: int = 16,
            nprobe: int = 4):
    """IVF-flat approximate top-k: k-means centroids over a driver-side
    sample (broadcast), per-batch assignment to nearest centroid, search
    restricted to each query's ``nprobe`` closest lists, exact rerank of
    candidates.  The broadcast-query plan of ``knn_cosine``; rows in no
    query's lists never reach the matmul, which cuts its row count by
    ~nlist/nprobe at scale."""
    cn = _normalize(_kmeans(sample_matrix.astype(np.float64), nlist))
    qn = _normalize(query_matrix.astype(np.float64))
    q_lists = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]  # (Q, nprobe)

    def in_lists(mat: np.ndarray, unit: np.ndarray) -> np.ndarray:
        assign = np.argmax(unit @ cn.T, axis=1)
        return (assign[:, None, None] == q_lists[None, :, :]).any(axis=2)

    return _query_topk(embeddings, query_matrix, query_ids, k, in_lists)


def semdedup_pairs_clustered(embeddings, *, threshold: float,
                             sample_matrix: np.ndarray,
                             n_clusters: int = 16):
    """SemDeDup-style clustered near-dup pairs (Abbas et al. 2023,
    arXiv:2303.09540 shape): k-means centroids over a bounded
    driver-side sample (broadcast once), one streaming assignment
    pass, ONE sort on the cluster id, and per-cluster all-pairs cosine
    under ``folds.exact_segment_fold`` (a hot cluster's boundary rows
    fold on the driver up to ``DRIVER_RESIDUAL_MAX``, distributed
    above it).  Emits (a_id, b_id, sim) with a_id < b_id and
    sim >= threshold.

    Vs the exact block-pair plan (``embedding_near_dup_blocked``): the
    exchange carries each vector ONCE (not B times) and compute drops
    from O(N²) to O(sum cluster²) — the recall trade is that pairs
    straddling a cluster boundary are missed, which the
    ``semdedup_gate`` query measures against the exact plan.
    """
    from .dedup import _segment_bounds
    from .folds import exact_segment_fold

    cent = _kmeans(sample_matrix.astype(np.float64), n_clusters)
    cn = _normalize(cent)

    def assign(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ids, mat = _batch_matrix(batch)
        a = np.argmax(_normalize(mat) @ cn.T, axis=1).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(a),
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding").combine_chunks(),
            }
        )

    rows = embeddings.map_batches(assign, batch_format="pyarrow")
    emb_type = [t for n, t in zip(embeddings.schema().names,
                                  embeddings.schema().types)
                if n == "embedding"][0]
    raw_schema = pa.schema(
        [("cluster", pa.int64()), ("vec_id", pa.int64()),
         ("embedding", emb_type)]
    )
    out_schema = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()), ("sim", pa.float64())]
    )

    def fold(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        out = ([], [], [])
        for s, e in zip(*_segment_bounds(t.column("cluster"))):
            ids, mat = _batch_matrix(t.slice(s, e - s))
            order = np.argsort(ids)
            ids, mn = ids[order], _normalize(mat[order])
            sims = mn @ mn.T
            r, c = np.nonzero(np.triu(sims >= threshold, 1))
            out[0].append(ids[r])
            out[1].append(ids[c])
            out[2].append(sims[r, c])
        return _table(out, out_schema)

    return exact_segment_fold(
        rows.sort("cluster"), key_cols=["cluster"], fold=fold,
        raw_schema=raw_schema, out_schema=out_schema,
    )

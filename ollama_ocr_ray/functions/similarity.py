"""Similarity search over an embedding column (list<float>).

- ``knn_cosine``: brute-force top-k — per-batch numpy matmul against a
  broadcast query matrix (the baseline; exact).
- ``lsh_ann``: random-hyperplane LSH bucketing with multiprobe — the
  scale path: candidates come from hash buckets, exact rerank only over
  candidates.  Same partitioning trick as MinHash banding.
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


def knn_cosine(embeddings, query_matrix: np.ndarray, query_ids: np.ndarray,
               k: int = 10):
    """Dataset(vec_id, embedding) × broadcast query matrix → top-k rows
    (q_id, rank, vec_id) by cosine, ties broken by vec_id.

    Per-batch: matmul + per-query top-k partials; global: sort + limit
    per query (the partials keep the exchange tiny: k rows per query per
    batch, never the corpus)."""
    qn = _normalize(query_matrix.astype(np.float64))

    def partials(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        sims = _normalize(mat) @ qn.T  # (n, Q)
        out_q, out_v, out_s = [], [], []
        kk = min(k, len(ids))
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            top = np.argpartition(-col, kk - 1)[:kk]
            out_q.extend([int(query_ids[qi])] * kk)
            out_v.extend(ids[top].tolist())
            out_s.extend(col[top].tolist())
        return pa.table(
            {
                "q_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = embeddings.map_batches(partials, batch_format="pyarrow")

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

    return cand.groupby("q_id").map_groups(topk, batch_format="pyarrow")


def knn_join(embeddings, *, k: int = 5, n_blocks: int = 8):
    """Distributed EXACT k-NN self-join: every vector's top-k cosine
    neighbors (excluding itself), ties broken by neighbor id — the
    similarity-search step a dedup/curation pipeline runs over its own
    corpus (vs ``knn_cosine``'s broadcast query set).

    Plan: block-pair replication (the ``embedding_near_dup_blocked``
    exchange — each vector lands in block ``vec_id % B`` and meets
    every other vector in exactly ONE pair group), a vectorized
    per-group partial top-k for BOTH sides, then one sort on q_id and
    a boundary-exact segment fold merges the partials (any global
    top-k member is necessarily in its group's top-k, so merging
    partials is exact).  Exchange = N x B vector rows + N x B x k
    scalar partials; the O(N²) similarity compute is inherent to
    exact all-knn and spreads over B(B+1)/2 tasks — ``lsh_ann`` /
    ``ivf_ann`` are the approximate scale path.  Pick ``n_blocks`` ~
    sqrt(2 x cluster parallelism)."""
    from .folds import exact_segment_fold

    B = n_blocks

    def replicate(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ids, _ = _batch_matrix(batch)
        blocks = (ids % B).astype(np.int64)
        n = len(ids)
        pair_ids = np.empty(n * B, dtype=np.int64)
        row_idx = np.empty(n * B, dtype=np.int64)
        pos = 0
        for j in range(B):
            lo = np.minimum(blocks, j)
            hi = np.maximum(blocks, j)
            pair_ids[pos:pos + n] = lo * B + hi
            row_idx[pos:pos + n] = np.arange(n)
            pos += n
        emb = batch.column("embedding").combine_chunks()
        return pa.table(
            {
                "pair": pa.array(pair_ids),
                "vec_id": batch.column("vec_id").take(pa.array(row_idx)),
                "block": pa.array(blocks[row_idx]),
                "embedding": emb.take(pa.array(row_idx)),
            }
        )

    part_schema = pa.schema(
        [("q_id", pa.int64()), ("n_id", pa.int64()), ("sim", pa.float64())]
    )

    def _topk_rows(qs: np.ndarray, cands: np.ndarray, sims: np.ndarray,
                   out_q: list, out_n: list, out_s: list) -> None:
        """Per-row top-k of a (len(qs) x len(cands)) sim matrix."""
        kk = min(k, sims.shape[1])
        if kk == 0:
            return
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(np.arange(sims.shape[0]), kk)
        cols = part.reshape(-1)
        vals = sims[rows, cols]
        keep = np.isfinite(vals)
        out_q.extend(qs[rows[keep]].tolist())
        out_n.extend(cands[cols[keep]].tolist())
        out_s.extend(vals[keep].tolist())

    def group_partials(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return part_schema.empty_table()
        batch = batch.combine_chunks()
        pair_col = np.asarray(batch.column("pair"))
        bounds = np.concatenate(
            [[0], np.nonzero(pair_col[1:] != pair_col[:-1])[0] + 1,
             [len(pair_col)]]
        )
        out_q: list = []
        out_n: list = []
        out_s: list = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            sub = batch.slice(s, e - s)
            ids, mat = _batch_matrix(sub)
            mn = _normalize(mat)
            pid = int(pair_col[s])
            bi, bj = pid // B, pid % B
            blocks = np.asarray(sub.column("block"))
            if bi == bj:
                sims = mn @ mn.T
                np.fill_diagonal(sims, -np.inf)
                _topk_rows(ids, ids, sims, out_q, out_n, out_s)
            else:
                mi, mj = blocks == bi, blocks == bj
                sims = mn[mi] @ mn[mj].T
                _topk_rows(ids[mi], ids[mj], sims, out_q, out_n, out_s)
                _topk_rows(ids[mj], ids[mi], sims.T, out_q, out_n, out_s)
        return pa.table(
            {
                "q_id": pa.array(out_q, type=pa.int64()),
                "n_id": pa.array(out_n, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        ).cast(part_schema)

    out_schema = pa.schema(
        [("q_id", pa.int64()), ("rank", pa.int64()), ("n_id", pa.int64())]
    )

    def merge_topk(batch: pa.Table) -> pa.Table:
        from .dedup import _segment_bounds

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
        starts, _ = _segment_bounds(batch.column("q_id"))
        lens = np.diff(np.concatenate([starts, [len(q)]]))
        rank = np.arange(len(q), dtype=np.int64) - np.repeat(starts, lens)
        keep = rank < k
        return pa.table(
            {
                "q_id": pa.array(q[keep], type=pa.int64()),
                "rank": pa.array(rank[keep] + 1, type=pa.int64()),
                "n_id": pa.array(n_[keep], type=pa.int64()),
            }
        ).cast(out_schema)

    partials = exact_segment_fold(
        embeddings.map_batches(
            replicate, batch_format="pyarrow", zero_copy_batch=True
        ).sort("pair"),
        key_cols=["pair"], fold=group_partials,
        raw_schema=pa.schema(
            [("pair", pa.int64()), ("vec_id", pa.int64()),
             ("block", pa.int64()),
             ("embedding",
              embeddings.schema().base_schema.field("embedding").type)]
        ),
        out_schema=part_schema,
    )
    return exact_segment_fold(
        partials.sort("q_id"), key_cols=["q_id"], fold=merge_topk,
        raw_schema=part_schema, out_schema=out_schema,
    )


class HyperplaneLSH:
    """Actor-pool stage: embedding → LSH bucket id (sign bits of
    ``n_planes`` random hyperplane projections, fixed seed)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(n_planes, dim))
        self.n_planes = n_planes

    def bucket_of(self, mat: np.ndarray) -> np.ndarray:
        bits = (mat @ self.planes.T) > 0  # (n, P)
        return bits @ (1 << np.arange(self.n_planes, dtype=np.int64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        _ids, mat = _batch_matrix(batch)
        return batch.append_column(
            "bucket", pa.array(self.bucket_of(mat), type=pa.int64())
        )


def lsh_ann(embeddings, query_matrix: np.ndarray, query_ids: np.ndarray,
            dim: int, k: int = 10, n_planes: int = 6, multiprobe: int = 2):
    """Approximate top-k: bucket vectors by hyperplane LSH, search only
    buckets within ``multiprobe`` bit flips of each query's bucket,
    exact-rerank candidates.  Recall measured in tests vs knn_cosine.

    The bucketing stage runs as a TASK pool — the hasher state is one
    seeded (dim x n_planes) matrix that ships with the task, so there
    is no actor-pool ramp (a (1,4) autoscaling pool kept this stage at
    ~1-2 workers on short jobs, BASELINE.md)."""
    lsh = HyperplaneLSH(dim, n_planes)
    qn = _normalize(query_matrix.astype(np.float64))
    q_buckets = lsh.bucket_of(qn)
    probe_sets = []
    for qb in q_buckets:
        probes = {int(qb)}
        if multiprobe >= 1:
            for p in range(n_planes):
                probes.add(int(qb) ^ (1 << p))
        if multiprobe >= 2:
            for p in range(n_planes):
                for p2 in range(p + 1, n_planes):
                    probes.add(int(qb) ^ (1 << p) ^ (1 << p2))
        probe_sets.append(probes)
    all_buckets = set().union(*probe_sets)

    bucketed = embeddings.map_batches(
        HyperplaneLSH(dim=dim, n_planes=n_planes),
        batch_format="pyarrow",
    )

    def partials(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        keep = np.isin(buckets, list(all_buckets))
        out_q, out_v, out_s = [], [], []
        if keep.any():
            sub = batch.filter(pa.array(keep))
            ids, mat = _batch_matrix(sub)
            sub_buckets = buckets[keep]
            sims = _normalize(mat) @ qn.T
            for qi, probes in enumerate(probe_sets):
                cand = np.isin(sub_buckets, list(probes))
                if not cand.any():
                    continue
                col = sims[cand, qi]
                cids = ids[cand]
                kk = min(k, len(cids))
                top = np.argpartition(-col, kk - 1)[:kk]
                out_q.extend([int(query_ids[qi])] * kk)
                out_v.extend(cids[top].tolist())
                out_s.extend(col[top].tolist())
        return pa.table(
            {
                "q_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = bucketed.map_batches(partials, batch_format="pyarrow")

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

    return cand.groupby("q_id").map_groups(topk, batch_format="pyarrow")


def embedding_near_dup_blocked(embeddings, threshold: float,
                               n_blocks: int = 8):
    """Exact all-pairs cosine ≥ threshold WITHOUT a full-matrix
    broadcast (VERDICT r1 #4): the classic distributed block-pair plan.

    Each vector lands in block ``vec_id % n_blocks`` and is replicated
    to every block-pair group it participates in (``n_blocks`` rows per
    vector); one sort on the pair key co-locates each group, and the
    per-group kernel is one (|i| x |j|) matmul.  The O(N²) compute is
    inherent to an exact threshold join — what changes vs round 1 is
    that it's spread over B(B+1)/2 independent group tasks and the
    exchange carries N x B rows instead of shipping an O(N) matrix to
    every task.  Pick ``n_blocks`` ~ sqrt(2 x cluster parallelism).

    This is the exact, oracle-matched plan.  At scale,
    ``semdedup_pairs_clustered`` trades recall for compute, and the
    ``semdedup_gate`` query measures it against this one.
    """
    B = n_blocks

    def replicate(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ids, mat = _batch_matrix(batch)
        blocks = (ids % B).astype(np.int64)
        n = len(ids)
        pair_ids = np.empty(n * B, dtype=np.int64)
        row_idx = np.empty(n * B, dtype=np.int64)
        pos = 0
        for j in range(B):
            lo = np.minimum(blocks, j)
            hi = np.maximum(blocks, j)
            pair_ids[pos:pos + n] = lo * B + hi
            row_idx[pos:pos + n] = np.arange(n)
            pos += n
        emb = batch.column("embedding").combine_chunks()
        return pa.table(
            {
                "pair": pa.array(pair_ids),
                "vec_id": batch.column("vec_id").take(pa.array(row_idx)),
                "block": pa.array(blocks[row_idx]),
                "embedding": emb.take(pa.array(row_idx)),
            }
        )

    out_schema = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()),
         ("sim", pa.float64())]
    )

    def group_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        pair_col = np.asarray(batch.column("pair"))
        bounds = np.concatenate(
            [[0], np.nonzero(pair_col[1:] != pair_col[:-1])[0] + 1,
             [len(pair_col)]]
        )
        a_out, b_out, s_out = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            sub = batch.slice(s, e - s)
            ids, mat = _batch_matrix(sub)
            mn = _normalize(mat)
            pid = int(pair_col[s])
            bi, bj = pid // B, pid % B
            blocks = np.asarray(sub.column("block"))
            if bi == bj:
                sims = mn @ mn.T
                iu, ju = np.triu_indices(len(ids), k=1)
                hit = sims[iu, ju] >= threshold
                ai, bj_ = ids[iu[hit]], ids[ju[hit]]
                ss = sims[iu[hit], ju[hit]]
            else:
                mi, mj = blocks == bi, blocks == bj
                sims = mn[mi] @ mn[mj].T
                r, c = np.nonzero(sims >= threshold)
                ai, bj_ = ids[mi][r], ids[mj][c]
                ss = sims[r, c]
            lo = np.minimum(ai, bj_)
            hi = np.maximum(ai, bj_)
            a_out.extend(lo.tolist())
            b_out.extend(hi.tolist())
            s_out.extend(ss.tolist())
        return pa.table(
            {"a_id": pa.array(a_out, type=pa.int64()),
             "b_id": pa.array(b_out, type=pa.int64()),
             "sim": pa.array(s_out, type=pa.float64())}
        ).cast(out_schema)

    # exact under block-pair-group splits (round-4 hardening): a pair
    # group split across sorted blocks would miss cross-fragment sims
    from .folds import exact_segment_fold

    emb_type = embeddings.schema().base_schema.field("embedding").type
    rep_schema = pa.schema(
        [("pair", pa.int64()), ("vec_id", pa.int64()),
         ("block", pa.int64()), ("embedding", emb_type)]
    )
    return exact_segment_fold(
        embeddings.map_batches(
            replicate, batch_format="pyarrow", zero_copy_batch=True
        ).sort("pair"),
        key_cols=["pair"], fold=group_pairs,
        raw_schema=rep_schema, out_schema=out_schema,
    )


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
    candidates.  Same partial-top-k exchange shape as ``knn_cosine`` —
    only k rows per (query, batch) ever shuffle; the inverted-list
    pruning cuts the matmul row count by ~nlist/nprobe at scale."""
    cent = _kmeans(sample_matrix.astype(np.float64), nlist)
    cn = _normalize(cent)
    qn = _normalize(query_matrix.astype(np.float64))
    q_lists = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    probe_sets = [set(row.tolist()) for row in q_lists]
    union_lists = set().union(*probe_sets)

    def partials(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        mn = _normalize(mat)
        assign = np.argmax(mn @ cn.T, axis=1)
        keep = np.isin(assign, list(union_lists))
        out_q, out_v, out_s = [], [], []
        if keep.any():
            sub_ids, sub_mn, sub_assign = ids[keep], mn[keep], assign[keep]
            sims = sub_mn @ qn.T
            for qi, probes in enumerate(probe_sets):
                cand = np.isin(sub_assign, list(probes))
                if not cand.any():
                    continue
                col = sims[cand, qi]
                cids = sub_ids[cand]
                kk = min(k, len(cids))
                top = np.argpartition(-col, kk - 1)[:kk]
                out_q.extend([int(query_ids[qi])] * kk)
                out_v.extend(cids[top].tolist())
                out_s.extend(col[top].tolist())
        return pa.table(
            {
                "q_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = embeddings.map_batches(partials, batch_format="pyarrow")

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

    return cand.groupby("q_id").map_groups(topk, batch_format="pyarrow")


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
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.combine_chunks()
        cl = np.asarray(t.column("cluster"))
        bounds = np.concatenate(
            [[0], np.nonzero(cl[1:] != cl[:-1])[0] + 1, [len(cl)]]
        )
        a_out, b_out, s_out = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            sub = t.slice(s, e - s)
            ids, mat = _batch_matrix(sub)
            if len(ids) < 2:
                continue
            order = np.argsort(ids)
            ids, mat = ids[order], mat[order]
            mn = _normalize(mat)
            sims = mn @ mn.T
            iu, ju = np.triu_indices(len(ids), k=1)
            hit = sims[iu, ju] >= threshold
            a_out.append(ids[iu[hit]])
            b_out.append(ids[ju[hit]])
            s_out.append(sims[iu[hit], ju[hit]])
        if not a_out:
            return out_schema.empty_table()
        return pa.table(
            {
                "a_id": pa.array(np.concatenate(a_out), type=pa.int64()),
                "b_id": pa.array(np.concatenate(b_out), type=pa.int64()),
                "sim": pa.array(np.concatenate(s_out), type=pa.float64()),
            }
        )

    return exact_segment_fold(
        rows.sort("cluster"), key_cols=["cluster"], fold=fold,
        raw_schema=raw_schema, out_schema=out_schema,
    )

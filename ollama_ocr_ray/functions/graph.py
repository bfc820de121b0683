"""Distributed graph operators: exact-integer PageRank power iteration.

Web-scale training-data pipelines rank hosts/documents over a link
graph (Common-Crawl-style harmonic/PageRank centrality feeds URL-level
quality filters).  The design below is the edge-partitioned
gather-scatter every distributed graph engine uses, expressed in Ray
Data primitives this repo already owns:

- ranks live in a node-keyed Dataset, NEVER on the driver (node tables
  at web scale are 1e9+ rows — fact-proportional);
- each iteration joins ranks to degree-annotated edges by
  co-partitioning (``relational.hash_join`` — one sort exchange),
  scatters per-edge contributions, and pre-aggregates them per block
  before the one sum-by-destination exchange (``_sum_by_key``);
- all arithmetic is EXACT int64 on a pinned scale: the per-edge
  contribution is ``(85 * r_src) // (100 * outdeg_src)`` and the
  teleport base is ``(15 * scale) // 100``, so integer addition makes
  every aggregate partitioning-invariant and the DuckDB oracle
  (unrolled iterations of the same expression) hash-matches exactly.

Variant notes (part of the contract, mirrored by the oracle): dangling
mass is NOT redistributed (a node with no out-edges simply leaks its
damped mass — the common "weak" PageRank used when the graph is
edge-listed), multi-edges count with multiplicity, and ranks are NOT
normalized (the scale carries the magnitude).

Overflow contract: ``scale * n_nodes`` must stay below 2^62 — at
web-graph node counts pick a smaller ``scale`` (the relative order is
scale-invariant down to integer-floor resolution).  The contribution
pass guards the 85*r product loudly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _segment_bounds
from .folds import exact_segment_fold

_DAMP_NUM, _DAMP_DEN = 85, 100


def sum_by_key(ds, *, key: str, val: str):
    """Exact int64 sum of ``val`` per ``key``: per-block partials (one
    row per distinct in-block key) -> one sort -> segment-sum fold,
    exact under equal-key block splits via ``exact_segment_fold``."""
    schema = pa.schema([(key, pa.int64()), (val, pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return schema.empty_table()
        batch = batch.combine_chunks()
        k = batch.column(key).to_numpy(zero_copy_only=False)
        v = batch.column(val).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(k, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, v.astype(np.int64))
        return pa.table({key: pa.array(uniq, type=pa.int64()),
                         val: pa.array(sums)})

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        t = t.combine_chunks()
        starts, _ = _segment_bounds(t.column(key))
        starts = np.asarray(starts)
        sums = np.add.reduceat(
            t.column(val).to_numpy(zero_copy_only=False), starts)
        keys = t.column(key).to_numpy(zero_copy_only=False)[starts]
        return pa.table({key: pa.array(keys, type=pa.int64()),
                         val: pa.array(sums.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return exact_segment_fold(
        partials.sort(key), key_cols=[key], fold=fold,
        raw_schema=schema, out_schema=schema,
    )


def pagerank(edges, *, iters: int = 3, scale: int = 10 ** 12,
             broadcast_max_nodes: int = 1_000_000,
             hot_outdeg: int = 8192):
    """PageRank over an (src, dst) int64 edge Dataset — module doc for
    the plan and the exact-integer contract.  Returns a Dataset of
    (node, rank_scaled) with one row per node appearing in any edge.

    Size-probed plan switch (the broadcast<->co-partition pattern the
    relational joins use): when the node table fits the probe bound,
    each iteration is ONE streaming pass over the edges — the rank
    vector ships via ray.put once per iteration, every block gathers
    contributions into a dense int64 vector and emits it as a single
    binary row (the ``clustering.scatter_stats`` shape), and the
    driver folds blocks-many vectors.  Above the bound the
    co-partitioned path runs: per iteration ONE hash_join (ranks x
    degree-annotated edges on src) and ONE sum-by-destination
    exchange; ranks never materialize on the driver.  Both paths
    compute the identical integer recurrence (property-tested equal).
    """
    n_nodes = None
    if broadcast_max_nodes:
        # cheap probe: distinct endpoints, counted distributed
        probe = _nodes_of(edges)
        n_nodes = probe.count()
        if n_nodes <= broadcast_max_nodes:
            return _pagerank_broadcast(edges, probe, iters=iters,
                                       scale=scale)
    return _pagerank_partitioned(edges, iters=iters, scale=scale,
                                 hot_outdeg=hot_outdeg)


def _nodes_of(edges):
    """Distinct endpoints as a (node, z=0) Dataset (distributed)."""

    def endpoints(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        both = np.concatenate([
            batch.column("src").to_numpy(zero_copy_only=False),
            batch.column("dst").to_numpy(zero_copy_only=False),
        ])
        uniq = np.unique(both)
        return pa.table({
            "node": pa.array(uniq, type=pa.int64()),
            "z": pa.array(np.zeros(len(uniq), dtype=np.int64)),
        })

    return sum_by_key(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        key="node", val="z",
    ).materialize()


def _pagerank_broadcast(edges, nodes, *, iters: int, scale: int):
    """Bounded-node fast path: dense gather per block, one row per
    block, driver vector fold.  Exact — same integer recurrence."""
    import ray
    import ray.data as rd

    base = (15 * scale) // 100
    node_ids = np.sort(np.array(
        [r["node"] for r in nodes.take_all()], dtype=np.int64))
    n = len(node_ids)
    if n == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "rank_scaled": pa.array([], type=pa.int64()),
        }))

    # node ids ship once via the object store (not per-task closures)
    ids_ref = ray.put(node_ids)

    # out-degree, folded per block then driver-summed (bounded by n)
    def deg_partial(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ids = ray.get(ids_ref)
        src = batch.column("src").to_numpy(zero_copy_only=False)
        acc = np.zeros(n, dtype=np.int64)
        np.add.at(acc, np.searchsorted(ids, src), 1)
        return pa.table({"v": pa.array([acc.tobytes()])})

    edges = edges.materialize()
    deg = np.zeros(n, dtype=np.int64)
    for row in edges.map_batches(
        deg_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all():
        deg += np.frombuffer(row["v"], dtype=np.int64)

    r_guard = (2 ** 63 - 1) // _DAMP_NUM
    r = np.full(n, scale, dtype=np.int64)
    safe_deg = np.maximum(deg, 1)  # sinks contribute nothing anyway
    for _ in range(iters):
        if int(r.max(initial=0)) > r_guard:
            raise RuntimeError(
                "pagerank: rank exceeds the 85*r int64 guard; lower "
                "`scale` (overflow contract in the module doc)"
            )
        contrib = (_DAMP_NUM * r) // (_DAMP_DEN * safe_deg)
        cref = ray.put(contrib)

        def gather(batch: pa.Table, _c=cref) -> pa.Table:
            batch = batch.combine_chunks()
            c = ray.get(_c)
            ids = ray.get(ids_ref)
            src = batch.column("src").to_numpy(zero_copy_only=False)
            dst = batch.column("dst").to_numpy(zero_copy_only=False)
            acc = np.zeros(n, dtype=np.int64)
            np.add.at(acc, np.searchsorted(ids, dst),
                      c[np.searchsorted(ids, src)])
            return pa.table({"v": pa.array([acc.tobytes()])})

        total = np.zeros(n, dtype=np.int64)
        for row in edges.map_batches(
            gather, batch_format="pyarrow", zero_copy_batch=True
        ).take_all():
            total += np.frombuffer(row["v"], dtype=np.int64)
        r = base + total

    return rd.from_arrow(pa.table({
        "node": pa.array(node_ids),
        "rank_scaled": pa.array(r),
    }))


def _pagerank_partitioned(edges, *, iters: int, scale: int,
                          hot_outdeg: int = 8192,
                          max_hot: int = 4_000_000):
    """Co-partitioned scale path (module doc).

    Hub skew: a web-graph hub (outdeg in the millions) would put every
    one of its edges into ONE key segment of the contribution join —
    past the block bound that whole segment routes to hash_join's
    boundary residual, which folds on the driver up to
    ``folds.DRIVER_RESIDUAL_MAX`` rows and distributed above it, so the
    hub's run still serializes into one fold (a FIXED salt only divides
    the problem, and the residual is size-biased toward exactly these
    runs).  So the join is restructured around the skew:

    - ranks x outdeg joins FIRST (both sides are node-keyed with ONE
      row per key — no segment ever exceeds 2 rows), yielding each
      source's per-edge contribution;
    - the edge join key is DEGREE-ADAPTIVELY salted: a source with
      outdeg d > ``hot_outdeg`` gets ceil(d / hot_outdeg) salts (its
      run splits into <= hot_outdeg-row segments), everything else
      keeps one key.  The hot set is bounded by edges/hot_outdeg and
      ships once as a broadcast (capped loudly at ``max_hot``);
      contribution replication totals <= edges/hot_outdeg + nodes
      rows.  Node ids must stay below 2^42 (the salted key packs
      salt indices into the low 20 bits) — checked loudly.
    """
    base = (15 * scale) // 100
    from .relational import hash_join

    nodes = _nodes_of(edges)

    def ones(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table({
            "src": batch.column("src").cast(pa.int64()),
            "deg": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })

    outdeg = sum_by_key(
        edges.map_batches(ones, batch_format="pyarrow",
                          zero_copy_batch=True),
        key="src", val="deg",
    ).materialize()

    # bounded hot set: sorted arrays for vectorized lookup in tasks
    import pyarrow.compute as pc

    hot_rows = outdeg.map_batches(
        lambda b: b.filter(pc.greater(b.column("deg"), hot_outdeg)),
        batch_format="pyarrow", zero_copy_batch=True,
    ).limit(max_hot + 1).take_all()
    if len(hot_rows) > max_hot:
        raise RuntimeError(
            f"pagerank: > {max_hot} hot sources at outdeg > "
            f"{hot_outdeg}; raise hot_outdeg"
        )
    hot_src = np.array(sorted(r["src"] for r in hot_rows),
                       dtype=np.int64)
    deg_of = {r["src"]: r["deg"] for r in hot_rows}
    hot_salts = np.array(
        [-(-deg_of[s] // hot_outdeg) for s in hot_src.tolist()],
        dtype=np.int64,
    )

    _SALT_BITS = 20
    if len(hot_salts) and hot_salts.max() >= (1 << _SALT_BITS):
        raise RuntimeError(
            "pagerank: a hub needs >= 2^20 salts; raise hot_outdeg"
        )

    def _salts_for(src: np.ndarray) -> np.ndarray:
        """Per-row salt count (1 for cold sources)."""
        out = np.ones(len(src), dtype=np.int64)
        if len(hot_src):
            pos = np.searchsorted(hot_src, src)
            pos_c = np.minimum(pos, len(hot_src) - 1)
            m = hot_src[pos_c] == src
            out[m] = hot_salts[pos_c[m]]
        return out

    id_guard = 1 << 42

    def salt_edges(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        if len(s) and (s.max() >= id_guard or s.min() < 0):
            raise RuntimeError(
                "pagerank: node id exceeds the salted-key bound "
                "(< 2^42); remap ids first"
            )
        ns = _salts_for(s)
        k2 = (s.astype(np.int64) << _SALT_BITS) + d % ns
        return pa.table({
            "k2": pa.array(k2),
            "dst": pa.array(d.astype(np.int64)),
        })

    salted_edges = edges.map_batches(
        salt_edges, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def init_rank(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        n = batch.num_rows
        return pa.table({
            "src": batch.column("node").cast(pa.int64()),
            "r": pa.array(np.full(n, scale, dtype=np.int64)),
        })

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow",
                              zero_copy_batch=True)

    r_guard = (2 ** 63 - 1) // _DAMP_NUM

    def to_salted_contrib(batch: pa.Table) -> pa.Table:
        """(src, r, deg) -> per-salt replicas of the contribution."""
        batch = batch.combine_chunks()
        r = batch.column("r").to_numpy(zero_copy_only=False)
        if r.max(initial=0) > r_guard:
            raise RuntimeError(
                "pagerank: rank exceeds the 85*r int64 guard; lower "
                "`scale` (overflow contract in the module doc)"
            )
        deg = batch.column("deg").to_numpy(zero_copy_only=False)
        src = batch.column("src").to_numpy(zero_copy_only=False)
        c = (_DAMP_NUM * r) // (_DAMP_DEN * deg)
        ns = _salts_for(src)
        total = int(ns.sum())
        rep = np.repeat(np.arange(len(src)), ns)
        # salt index within each row's run: 0..ns[i)-1
        starts = np.concatenate([[0], np.cumsum(ns)[:-1]])
        sidx = np.arange(total) - starts[rep]
        k2 = (src.astype(np.int64)[rep] << _SALT_BITS) + sidx
        return pa.table({
            "k2": pa.array(k2),
            "c": pa.array(c.astype(np.int64)[rep]),
        })

    def rebase(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        s = batch.column("z").to_numpy(zero_copy_only=False)
        return pa.table({
            "src": batch.column("node").cast(pa.int64()),
            "r": pa.array(base + s.astype(np.int64)),
        })

    def scatter(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table({
            "node": batch.column("dst").cast(pa.int64()),
            "z": batch.column("c").cast(pa.int64()),
        })

    for _ in range(iters):
        # node-sized skew-free join: one rank row x one degree row
        per_src = hash_join(
            ranks, outdeg, key="src",
            left_cols=["r"], right_cols=["deg"],
        )
        salted_contrib = per_src.map_batches(
            to_salted_contrib, batch_format="pyarrow",
            zero_copy_batch=True,
        )
        joined = hash_join(
            salted_edges, salted_contrib, key="k2",
            left_cols=["dst"], right_cols=["c"],
        )
        contribs = joined.map_batches(scatter, batch_format="pyarrow",
                                      zero_copy_batch=True)
        in_sum = sum_by_key(
            contribs.union(nodes), key="node", val="z",
        )
        ranks = in_sum.map_batches(rebase, batch_format="pyarrow",
                                   zero_copy_batch=True)

    def finish(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        return pa.table({
            "node": batch.column("src"),
            "rank_scaled": batch.column("r"),
        })

    return ranks.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True)


def pagerank_reference(src: np.ndarray, dst: np.ndarray, *,
                       iters: int = 3, scale: int = 10 ** 12) -> dict:
    """Independent single-process reference under the same pinned
    integer contract (gate + unit-test comparator; deliberately a
    different implementation shape — dict loops, no vectorization)."""
    outdeg: dict = {}
    for s in src.tolist():
        outdeg[s] = outdeg.get(s, 0) + 1
    nodes = sorted(set(src.tolist()) | set(dst.tolist()))
    base = (15 * scale) // 100
    r = {n: scale for n in nodes}
    for _ in range(iters):
        acc = {n: 0 for n in nodes}
        for s, d in zip(src.tolist(), dst.tolist()):
            acc[d] += (_DAMP_NUM * r[s]) // (_DAMP_DEN * outdeg[s])
        r = {n: base + acc[n] for n in nodes}
    return r

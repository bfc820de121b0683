"""Exact-under-block-splits segment folds: the one mechanism every
per-key sorted-block fold in this repo goes through.

Every sorted-block kernel in this repo folds per key segment inside
each sort-output block.  Ray's sort can split an equal-key run across
blocks whenever one key's rows exceed the block-size bound (the
measured fact behind ADVICE r3), which silently turns a per-segment
fold into a per-fragment fold.  ``exact_segment_fold`` removes the
assumption generically:

- because the input is GLOBALLY sorted, a key whose run splits is by
  contiguity the FIRST or LAST segment of every block containing it;
- so the sort output is materialized once and read by two passes:
  one folds each block's INTERIOR segments (complete by
  construction), the other keeps the raw rows of each block's two
  boundary segments;
- that boundary residual (rows of <= 2 keys per block) is re-folded
  ONCE per key with the same fold function, then unioned back.

The residual grows with block count (~2 x avg-segment-rows x
n_blocks), and there is no cap on it:

- residual <= ``DRIVER_RESIDUAL_MAX`` rows (the overwhelmingly common
  case — a few boundary segments): folded on the driver, no task
  overhead;
- above it: residual blocks are hash-partitioned BY KEY
  (deterministic ``pd.util.hash_pandas_object`` over the key
  columns, so every key's rows land in exactly one partition), and
  each partition is concat + sort + fold in ONE Ray task.  The
  exchange is bounded by the residual itself, and a hot key
  serializes into a single worker task (spillable worker memory, the
  same serialization its fold would need anywhere) instead of the
  driver heap.

Both paths preserve the output contract downstream folds rely on:
every key's folded rows live entirely in ONE output block.

Callers that pre-reduce each block (keep-min dedup, sessionize, the
droplist markers) fold the reduced rows, so a hot key ships a few rows
per block to the residual, not its raw run.

Requirement on ``fold``: it reduces each key segment independently of
other segments (all call sites — candidate-pair generation, text
attach, pair verify, join merges, keep-min, session merge — qualify),
handles an empty input table, and must not assume anything about
order BETWEEN segments.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

# Driver path bound: residuals at or below this fold on the driver
# (one small sort, no extra tasks).  Above it the distributed pass
# takes over — there is no refusal cap.  Read at call time.
DRIVER_RESIDUAL_MAX = 100_000
# Target rows per distributed residual-fold task (read at call time).
RESIDUAL_ROWS_PER_TASK = 1_000_000
# Upper bound on residual partitions (fan-out sanity, not correctness).
RESIDUAL_MAX_TASKS = 128
# Upper bound on split (map-side) tasks: at 10^4-10^5 sorted blocks a
# task per residual block would mean ~10^5 submissions x up to 128
# returns each and reduce calls flattening ~10^5 arguments — residual
# blocks are grouped so the exchange is at most SPLIT x PARTITIONS
# objects regardless of upstream block count.
RESIDUAL_SPLIT_TASKS = 256


def _key_partition_ids(table: pa.Table, key_cols: list[str],
                       nparts: int) -> np.ndarray:
    """Deterministic partition id per row from the key columns only.

    ``pd.util.hash_pandas_object`` with the fixed default hash key is
    stable across processes and vectorized for both numeric and
    string keys; equal keys always hash equal, so a key's rows can
    never straddle two partitions.
    """
    import pandas as pd

    df = table.select(key_cols).to_pandas()
    h = pd.util.hash_pandas_object(df, index=False).to_numpy()
    return (h.astype(np.uint64) % np.uint64(nparts)).astype(np.int64)


@ray.remote
def _split_residual_blocks(raw_schema: pa.Schema, key_cols: list[str],
                           nparts: int, *tables):
    """A GROUP of residual blocks -> ``nparts`` sub-tables routed by
    key hash.  Empty pass-through blocks (which can carry a
    zero-column schema) are dropped before the concat so the
    reduce-side schemas stay uniform."""
    tabs = [t.combine_chunks().cast(raw_schema)
            for t in tables if t.num_rows > 0]
    if not tabs:
        outs = [raw_schema.empty_table()] * nparts
    else:
        t = pa.concat_tables(tabs).combine_chunks()
        part = _key_partition_ids(t, key_cols, nparts)
        outs = [t.filter(pa.array(part == p)) for p in range(nparts)]
    return tuple(outs) if nparts > 1 else outs[0]


@ray.remote
def _fold_residual_partition(fold, key_cols: list[str],
                             out_schema: pa.Schema, *tables):
    """Concat one hash-partition's sub-tables, restore sort order, and
    run the SAME fold once — every key here is complete by routing."""
    tabs = [t for t in tables if t.num_rows > 0]
    if not tabs:
        return out_schema.empty_table()
    t = pa.concat_tables(tabs).sort_by(
        [(c, "ascending") for c in key_cols]
    ).combine_chunks()
    return fold(t).combine_chunks().cast(out_schema)


def _fold_residual_distributed(res_mat, *, n_rows: int,
                               key_cols: list[str], fold,
                               raw_schema: pa.Schema,
                               out_schema: pa.Schema):
    """Bounded second pass over the boundary residual: hash-exchange by
    key (map: split each residual block; reduce: one sort+fold task
    per partition).  Raw Ray tasks, not a Dataset sort — the exchange
    must CO-LOCATE equal keys unconditionally, which is exactly the
    property the surrounding machinery exists to avoid assuming of
    ``Dataset.sort``."""
    nparts = int(min(RESIDUAL_MAX_TASKS,
                     max(1, -(-n_rows // RESIDUAL_ROWS_PER_TASK))))
    block_refs = res_mat.to_arrow_refs()
    # group residual blocks so the map side is at most
    # RESIDUAL_SPLIT_TASKS submissions and each reduce call takes at
    # most that many arguments, independent of upstream block count
    n_groups = min(len(block_refs), RESIDUAL_SPLIT_TASKS)
    per_group = -(-len(block_refs) // n_groups)
    per_part: list[list] = [[] for _ in range(nparts)]
    for g in range(n_groups):
        group = block_refs[g * per_group:(g + 1) * per_group]
        if not group:
            continue
        outs = _split_residual_blocks.options(
            num_returns=nparts
        ).remote(raw_schema, key_cols, nparts, *group)
        if nparts == 1:
            outs = [outs]
        for p, r in enumerate(outs):
            per_part[p].append(r)
    fold_ref = ray.put(fold)
    folded = [
        _fold_residual_partition.remote(
            fold_ref, key_cols, out_schema, *per_part[p]
        )
        for p in range(nparts)
    ]
    return ray.data.from_arrow_refs(folded)


def exact_segment_fold(sorted_ds, *, key_cols: list[str], fold,
                       raw_schema: pa.Schema, out_schema: pa.Schema):
    """Per-key-segment ``fold`` over a sorted Dataset, exact under
    equal-key block splits (module doc).  Returns a Dataset with
    ``out_schema`` rows.

    The sort output is materialized once and read by two passes, one
    task per block each: ``fold_block`` folds the interior segments
    into ``out_schema`` rows, and ``boundary_rows`` keeps the rows of
    the first and last segment as ``raw_schema`` rows (the residual).
    While they run the sort output is held; afterwards the folded rows
    and the residual are.  Residuals above ``DRIVER_RESIDUAL_MAX`` rows
    run the distributed hash-partitioned pass instead of the driver's.
    """
    from .dedup import _segment_bounds

    def boundary(batch: pa.Table) -> np.ndarray:
        starts, ends = _segment_bounds(
            *[batch.column(c) for c in key_cols]
        )
        mask = np.zeros(batch.num_rows, dtype=bool)
        mask[starts[0]:ends[0]] = True
        mask[starts[-1]:ends[-1]] = True
        return mask

    def fold_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        interior = batch.filter(pa.array(~boundary(batch)))
        return fold(interior).combine_chunks().select(
            out_schema.names
        ).cast(out_schema)

    def boundary_rows(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return raw_schema.empty_table()
        batch = batch.combine_chunks()
        return batch.filter(pa.array(boundary(batch))).select(
            raw_schema.names
        ).cast(raw_schema)

    blocks = sorted_ds.materialize()
    if blocks.schema() is None:
        # an empty input leaves no block to carry the schema
        return ray.data.from_arrow(out_schema.empty_table())
    closed = blocks.map_batches(
        fold_block, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    res_mat = blocks.map_batches(
        boundary_rows, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    n_res = res_mat.count()
    if n_res == 0:
        return closed
    if n_res > DRIVER_RESIDUAL_MAX:
        return closed.union(_fold_residual_distributed(
            res_mat, n_rows=n_res, key_cols=key_cols, fold=fold,
            raw_schema=raw_schema, out_schema=out_schema,
        ))
    # skip empty blocks: an empty input block can pass through the map
    # stage un-cast with a zero-column schema, which concat rejects
    rt = pa.concat_tables(
        [t.cast(raw_schema)
         for t in ray.get(res_mat.to_arrow_refs()) if t.num_rows > 0]
    ).sort_by(
        [(c, "ascending") for c in key_cols]
    ).combine_chunks()
    return closed.union(
        ray.data.from_arrow(fold(rt).combine_chunks().cast(out_schema))
    )

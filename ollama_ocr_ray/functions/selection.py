"""Token-budget data selection: keep the highest-quality documents
until a global token budget is filled — the selection step of
quality-ranked corpus curation ("take the best B tokens"), the
operation a pretraining run uses to cut a scored crawl down to its
training budget.

Scale design (beyond-reference; no analog in the OCR scripts):

- ONE text pass annotates each doc (``n_tokens``, ``quality_score``)
  and drops the text; only 4 scalar columns enter the exchange.
- ONE sort exchange orders by ``(quality_score DESC, doc_id)``.
- The global running total then needs NO second exchange: pass 1 reads
  one summary row per sorted block (first-row identity + token sum —
  driver state is O(#blocks), ~1 row per 128 MB block at scale), the
  driver cumsums the block totals into per-block base offsets, and
  pass 2 filters block-locally at ``base + within-block cumsum <=
  budget``.

Unlike the per-key segment folds (``folds.exact_segment_fold``), the
scan order here is TOTAL — ``doc_id`` breaks every quality tie — so an
equal-quality run splitting across sorted blocks cannot corrupt the
result: each row's global position is independent of where Ray's block
boundaries fall, which is exactly the property the segment folds have
to reconstruct.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SELECT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.string()),
        ("n_tokens", pa.int64()),
        ("quality_score", pa.float64()),
    ]
)


def _annotate_block(batch: pa.Table) -> pa.Table:
    """(doc_id, lang, text) → (doc_id, lang, n_tokens, quality_score);
    the text column dies here, before the sort exchange."""
    from .text import quality_score_batch, token_stats_batch

    q = quality_score_batch(batch)
    t = token_stats_batch(batch.select(["doc_id", "text"]))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "lang": batch.column("lang"),
            "n_tokens": t.column("n_tokens"),
            "quality_score": q.column("quality_score"),
        }
    ).cast(SELECT_SCHEMA)


def select_token_budget(docs, budget: int):
    """Select documents in descending ``quality_score`` order (ties by
    ascending ``doc_id``) while the INCLUSIVE running token total stays
    <= ``budget``.  Equivalent SQL: ``WHERE sum(n_tokens) OVER (ORDER
    BY quality_score DESC, doc_id) <= budget``.

    Returns a Dataset of the selected rows with ``SELECT_SCHEMA``.
    """
    import ray.data as rd

    budget = int(budget)
    ann = docs.map_batches(
        _annotate_block, batch_format="pyarrow", zero_copy_batch=True
    )
    s = ann.sort(
        ["quality_score", "doc_id"], descending=[True, False]
    ).materialize()
    if s.schema() is None:  # empty input: nothing to select
        return rd.from_arrow(SELECT_SCHEMA.empty_table())

    info_schema = pa.schema(
        [("first_doc", pa.int64()), ("first_q", pa.float64()),
         ("toks", pa.int64())]
    )

    def block_info(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return info_schema.empty_table()
        batch = batch.combine_chunks()
        toks = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "first_doc": pa.array([batch.column("doc_id")[0].as_py()],
                                      type=pa.int64()),
                "first_q": pa.array(
                    [batch.column("quality_score")[0].as_py()],
                    type=pa.float64(),
                ),
                "toks": pa.array([int(toks.sum())], type=pa.int64()),
            }
        )

    # one row per sorted block — the only driver materialization
    infos = s.map_batches(
        block_info, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    # blocks are contiguous ranges of the total order, so ordering them
    # by their FIRST row's key reproduces the global block order; the
    # first row's doc_id is unique, so it keys the base-offset map
    infos.sort(key=lambda r: (-r["first_q"], r["first_doc"]))
    bases: dict[int, int] = {}
    running = 0
    for r in infos:
        bases[r["first_doc"]] = running
        running += r["toks"]

    def select_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return SELECT_SCHEMA.empty_table()
        batch = batch.combine_chunks()
        base = bases[batch.column("doc_id")[0].as_py()]
        if base >= budget:  # whole block past the cutoff
            return SELECT_SCHEMA.empty_table()
        toks = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        cum = base + np.cumsum(toks, dtype=np.int64)
        return batch.filter(pa.array(cum <= budget)).cast(SELECT_SCHEMA)

    return s.map_batches(
        select_block, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )


def cap_per_group(ds, *, group_col: str, order_cols: list[str],
                  descending: list[bool], k: int):
    """Keep at most ``k`` rows per ``group_col`` value, best-first by
    ``order_cols``/``descending`` — the per-domain/per-source cap of
    web curation (RefinedWeb/C4 cap hosts so one template farm cannot
    dominate the corpus).  The order must be made TOTAL by the caller
    (include a unique id as the last order column) for a deterministic
    result.

    Scale plan: a per-block partial top-k bounds the exchange to
    ``k x groups x blocks`` rows (same move as grouped top-N), then ONE
    sort on (group, order) and a per-group first-k fold that is exact
    under equal-key block splits (``folds.exact_segment_fold``; a hot
    group's boundary rows go to the capped driver residual).  The fold
    re-sorts each segment internally, so it is independent of residual
    row order.
    """
    import pyarrow.compute as pc

    from .folds import exact_segment_fold

    sort_cols = [group_col] + list(order_cols)
    sort_desc = [False] + list(descending)

    def partial_topk(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return batch
        idx = pc.sort_indices(
            batch,
            sort_keys=[(c, "descending" if d else "ascending")
                       for c, d in zip(sort_cols, sort_desc)],
        )
        batch = batch.take(idx).combine_chunks()
        from .dedup import _segment_bounds

        starts, ends = _segment_bounds(batch.column(group_col))
        keep = np.zeros(batch.num_rows, dtype=bool)
        for s, e in zip(starts, np.minimum(starts + k, ends)):
            keep[s:e] = True
        return batch.filter(pa.array(keep))

    pruned = ds.map_batches(partial_topk, batch_size=None,
                            batch_format="pyarrow", zero_copy_batch=True)
    row_schema = pa.schema(
        [(n, t) for n, t in zip(ds.schema().names, ds.schema().types)]
    )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return row_schema.empty_table()
        t = t.combine_chunks()
        idx = pc.sort_indices(
            t,
            sort_keys=[(c, "descending" if d else "ascending")
                       for c, d in zip(sort_cols, sort_desc)],
        )
        t = t.take(idx).combine_chunks()
        from .dedup import _segment_bounds

        starts, ends = _segment_bounds(t.column(group_col))
        keep = np.zeros(t.num_rows, dtype=bool)
        for s, e in zip(starts, np.minimum(starts + k, ends)):
            keep[s:e] = True
        return t.filter(pa.array(keep)).cast(row_schema)

    return exact_segment_fold(
        pruned.sort(sort_cols, descending=sort_desc),
        key_cols=[group_col], fold=fold,
        raw_schema=row_schema, out_schema=row_schema,
    )


def quantile_gate(docs, *, value_col: str, by: str, q: float = 0.5,
                  keep_cols: tuple = ("doc_id",)):
    """Adaptive per-group filter: keep rows whose ``value_col`` is >=
    their group's exact ``q``-quantile — "drop the shortest half per
    language" style gating, where the threshold ADAPTS to each group
    instead of a global magic number.

    Scale plan: the thresholds come from ``sketches.grouped_quantiles``
    (histogram-sized exchange, exact `quantile_disc` semantics); the
    per-group threshold table is group-count-sized, so it broadcasts
    (driver take_all + closure capture = ray.put once per task) and the
    gate itself is one exchange-free streaming filter."""
    from .sketches import grouped_quantiles

    name = f"p{q * 100:g}".replace(".", "_")
    rows = grouped_quantiles(docs, by, value_col, qs=(q,)).take_all()
    thresh = {r[by]: r[name] for r in rows}
    cols = list(keep_cols) + [by, value_col]

    def gate(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return batch.select(cols)
        vals = batch.column(value_col).to_numpy(zero_copy_only=False)
        # dictionary-encode the group column so the Python dict is hit
        # once per DISTINCT group per batch, not once per row (the
        # mix_by_rate pattern)
        grp = batch.column(by)
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        dic = grp.dictionary_encode()
        codes = np.asarray(dic.indices, dtype=np.int64)
        cut_of_code = np.array(
            [thresh[v] for v in dic.dictionary.to_pylist()],
            dtype=np.int64,
        )
        return batch.filter(pa.array(vals >= cut_of_code[codes])) \
                    .select(cols)

    return docs.map_batches(gate, batch_format="pyarrow",
                            zero_copy_batch=True)

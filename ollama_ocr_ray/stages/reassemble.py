"""Span reassembly: exploded+extracted rows → one row per document.

``reassemble_sorted_block`` restores each document's exact sequence —
sort by (offset, sub), drop the document sentinel, assign a dense
0-based ``order`` — generalizing the reference's page-order reassembly
(``ocr_router.py:279,294,301``) to batched execution: order is derived
from keys assigned at explode, never from the order the per-kind
extractors emit rows in.  The extraction stage
(``pipelines.extract.FusedExtractor``) runs it inside the actor call on
the span rows of one input batch, which hold every span of their
documents.

Besides the contract columns (doc_id, spans) each output row carries the
per-document metrics the reference put in its CSV summary row
(``ocr_router.py:406-408``): engine (first-span-kind election, G5),
chars (G1), span/error counts (G2) and summed OCR latency — consumed by
the summary aggregate and the partition lineage manifest.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import OUT_SPAN_STRUCT
from .explode import DOC_SENTINEL

REASSEMBLED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(OUT_SPAN_STRUCT)),
        pa.field("engine", pa.string()),
        pa.field("chars", pa.int64()),
        pa.field("n_spans", pa.int32()),
        pa.field("n_errors", pa.int32()),
        pa.field("ocr_ms", pa.float64()),
    ]
)


def reassemble_sorted_block(batch: pa.Table) -> pa.Table:
    """Vectorized many-documents-per-call reassembly.

    Input: span rows holding EVERY row of each of their documents, in
    any order — one extraction call's output.  Rows are put in
    (doc_id, offset, sub) order here with one block-local vectorized
    sort.  Output rows come in doc_id order; rows of one doc_id become
    one output row.

    One call reassembles every document in the block via segment
    boundaries (``np.diff`` on doc codes, cumsum segment sums,
    ``ListArray.from_arrays``), not one Python call per document.
    """
    batch = batch.combine_chunks()
    n = len(batch)
    if n == 0:
        return REASSEMBLED_SCHEMA.empty_table()
    idx = pc.sort_indices(
        batch,
        sort_keys=[("doc_id", "ascending"), ("offset", "ascending"),
                   ("sub", "ascending")],
    )
    batch = batch.take(idx).combine_chunks()
    doc_col = batch.column("doc_id").combine_chunks()
    # group boundaries: positions where doc_id changes (rows are sorted)
    neq = np.asarray(
        pc.not_equal(doc_col.slice(1, n - 1), doc_col.slice(0, n - 1))
    )
    starts = np.concatenate([[0], np.nonzero(neq)[0] + 1]).astype(np.int64)
    ends = np.concatenate([starts[1:], [n]])
    # body = non-sentinel rows; per-group body extents via mask cumsum
    kinds_all = batch.column("kind").combine_chunks()
    body_mask = pc.not_equal(kinds_all, DOC_SENTINEL)
    csum = np.concatenate([[0], np.cumsum(np.asarray(body_mask))])
    body_starts = csum[starts]
    body_ends = csum[ends]
    lengths = body_ends - body_starts
    body = batch.filter(body_mask).combine_chunks()
    total = len(body)
    kinds = body.column("kind").combine_chunks()
    texts = body.column("text").combine_chunks()
    # per-span dense order: global arange minus each group's start
    order = np.arange(total, dtype=np.int32) - np.repeat(
        body_starts, lengths
    ).astype(np.int32)
    struct = pa.StructArray.from_arrays(
        [
            kinds.combine_chunks() if isinstance(kinds, pa.ChunkedArray) else kinds,
            texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts,
            body.column("media_ref").combine_chunks(),
            pa.array(order),
        ],
        fields=list(OUT_SPAN_STRUCT),
    )
    offsets = pa.array(np.concatenate([body_starts, [total]]), type=pa.int32())
    spans = pa.ListArray.from_arrays(offsets, struct)
    # segment sums via cumsum difference (empty groups yield 0)
    ulen = np.concatenate(
        [[0], np.cumsum(np.asarray(pc.utf8_length(texts)), dtype=np.int64)]
    )
    chars = ulen[body_ends] - ulen[body_starts]
    errc = np.concatenate(
        [[0], np.cumsum(np.asarray(pc.equal(kinds, "error")).astype(np.int64))]
    )
    n_errors = (errc[body_ends] - errc[body_starts]).astype(np.int32)
    if "ocr_ms" in body.column_names:
        mcs = np.concatenate(
            [[0.0], np.cumsum(np.asarray(body.column("ocr_ms")))]
        )
        ocr_ms = mcs[body_ends] - mcs[body_starts]
    else:
        ocr_ms = np.zeros(len(starts))
    # engine election: kind of each group's first body span ("" if empty)
    nonempty = lengths > 0
    if total:
        first = kinds.take(pa.array(np.where(nonempty, body_starts, 0)))
        engine = pc.if_else(pa.array(nonempty), first, pa.scalar(""))
    else:
        engine = pa.array([""] * len(starts))
    return pa.table(
        {
            "doc_id": doc_col.take(pa.array(starts)),
            "spans": spans,
            "engine": engine,
            "chars": pa.array(chars, type=pa.int64()),
            "n_spans": pa.array(lengths.astype(np.int32)),
            "n_errors": pa.array(n_errors),
            "ocr_ms": pa.array(ocr_ms, type=pa.float64()),
        }
    ).cast(REASSEMBLED_SCHEMA)

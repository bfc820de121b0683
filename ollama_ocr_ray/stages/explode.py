"""Span explode: documents rows → one row per span.

The first step of the extraction kernel: each document is decomposed to
span rows so the per-kind extractors and OCR run vectorized over a whole
batch.  On the fused plan (``pipelines.extract.SpanExtractor``) all span
rows of a document stay in the actor call that exploded it, and the
(offset, sub) keys assigned here let ``reassemble_sorted_block`` restore
the exact sequence inside the same call (``FusedExtractor``).  On the
split plan explode is a task stage of its own: ``stamp=True`` adds each
document's row count (``doc_rows``), the rows are cut into fixed-size
blocks, so a media-heavy document's spans (the reference's
100-page-PDF-in-line problem, ``ocr_router.py:279-298``) spread over
the actor pool, and ``stages.reassemble.DocumentFold`` uses the stamp to
tell when every row of a document has come back.

A sentinel row (kind='__doc__', offset=-1) is emitted per document so
documents whose spans all extract to nothing still appear (with an empty
span list) in the output — the reference writes an output file per
document even when extraction is empty (``ocr_router.py:399-403``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..schema import PID

DOC_SENTINEL = "__doc__"

EXPLODED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("offset", pa.int32()),
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
    ]
)


def explode_batch(batch: pa.Table, offset_range=None,
                  stamp: bool = False) -> pa.Table:
    """``offset_range=(lo, hi)`` keeps only spans with lo <= offset < hi —
    the span-level analog of the reference's --page N selection
    (``ollama_cloud_ocr.py:689-690,722-731``), applied as a vectorized
    predicate before any extraction work (predicate pushdown, O3).

    The output ``offset`` of a kept span is its rank in its document by
    (input offset, position in the span list).  Spans that share an
    input offset so keep their input order, as in the oracle's stable
    sort, whatever order the per-kind extraction emits them in.

    ``stamp=True`` appends ``doc_rows``: the number of rows this call
    emits for the row's document, its sentinel included; and, when the
    batch carries partition ids (``schema.PID``), each row's document's
    id."""
    batch = batch.combine_chunks()
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()  # StructArray of all spans, parent-ordered
    lengths = np.asarray(spans.value_lengths())
    n_docs = len(batch)
    parent = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    offset = np.asarray(flat.field("offset"))
    doc_ids = batch.column("doc_id")
    exploded = pa.table(
        {
            "doc_id": doc_ids.take(pa.array(parent)),
            "offset": flat.field("offset"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )
    if offset_range is not None:
        lo, hi = offset_range
        keep = (offset >= lo) & (offset < hi)
        exploded = exploded.filter(pa.array(keep))
        parent, offset = parent[keep], offset[keep]
    # rank within each document: parent is non-decreasing, so a stable
    # sort by (parent, offset) keeps each document's rows in place
    order = np.lexsort((offset, parent))
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order)) - np.searchsorted(parent, parent[order])
    exploded = exploded.set_column(
        1, "offset", pa.array(rank)).cast(EXPLODED_SCHEMA)
    sentinels = pa.table(
        {
            "doc_id": doc_ids,
            "offset": pa.array(np.full(n_docs, -1, dtype=np.int32)),
            "kind": pa.array([DOC_SENTINEL] * n_docs),
            "text": pa.array([""] * n_docs),
            "media_ref": pa.array([""] * n_docs),
        }
    ).cast(EXPLODED_SCHEMA)
    out = pa.concat_tables([sentinels, exploded])
    if stamp:
        rows = np.bincount(parent, minlength=n_docs) + 1
        out = out.append_column("doc_rows", pa.array(
            np.concatenate([rows, rows[parent]]).astype(np.int32)))
        if PID in batch.column_names:
            out = out.append_column(PID, batch.column(PID).take(pa.array(
                np.concatenate([np.arange(n_docs), parent]))))
    return out

"""Span explode: documents rows → one row per span.

The first step of the extraction kernel (``pipelines.extract.SpanExtractor``):
each document is decomposed to span rows so the per-kind extractors and
OCR run vectorized over a whole batch.  All span rows of a document stay
in the actor call that exploded it (the reference's 100-page-PDF-in-line
problem, ``ocr_router.py:279-298``, is not split across actors); the
(offset, sub) keys assigned here let ``reassemble_sorted_block`` restore
the exact sequence inside the same call (``FusedExtractor``).

A sentinel row (kind='__doc__', offset=-1) is emitted per document so
documents whose spans all extract to nothing still appear (with an empty
span list) in the output — the reference writes an output file per
document even when extraction is empty (``ocr_router.py:399-403``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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


def explode_batch(batch: pa.Table, offset_range=None) -> pa.Table:
    """``offset_range=(lo, hi)`` keeps only spans with lo <= offset < hi —
    the span-level analog of the reference's --page N selection
    (``ollama_cloud_ocr.py:689-690,722-731``), applied as a vectorized
    predicate before any extraction work (predicate pushdown, O3).

    The output ``offset`` of a kept span is its rank in its document by
    (input offset, position in the span list).  Spans that share an
    input offset so keep their input order, as in the oracle's stable
    sort, whatever order the per-kind extraction emits them in."""
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
    return pa.concat_tables([sentinels, exploded])

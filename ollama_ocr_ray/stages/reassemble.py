"""Span reassembly: exploded+extracted rows → one row per document.

``reassemble_sorted_block`` restores each document's exact sequence —
sort by (offset, sub), drop the document sentinel, assign a dense
0-based ``order`` — generalizing the reference's page-order reassembly
(``ocr_router.py:279,294,301``) to batched execution: order is derived
from keys assigned at explode, never from the order the per-kind
extractors emit rows in.  The fused plan's extraction stage
(``pipelines.extract.FusedExtractor``) runs it inside the actor call on
the span rows of one input batch, which hold every span of their
documents.  The split plan spreads a document's span rows over many
actor calls; ``DocumentFold`` collects them by count and runs it once a
document's rows are all back.

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

from ..schema import OUT_SPAN_STRUCT, map_partitions
from .explode import DOC_SENTINEL

# kind of a split-plan tally row: one actor call consumed ``rows`` of the
# ``doc_rows`` rows ``explode_batch(stamp=True)`` made for a document
TALLY = "__rows__"

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


def tally_rows(batch: pa.Table) -> pa.Table:
    """One tally row per document of ``batch`` (stamped span rows, one
    split-plan actor call's input): ``rows`` is how many of the
    document's rows the call consumed, ``doc_rows`` their stamp.  A
    doc_id whose rows carry two stamps names two documents: refused."""
    g = batch.select(["doc_id", "doc_rows"]).group_by("doc_id").aggregate(
        [("doc_rows", "count"), ("doc_rows", "min"), ("doc_rows", "max")])
    clash = pc.not_equal(g.column("doc_rows_min"), g.column("doc_rows_max"))
    if pc.any(clash).as_py():
        raise _repeated(g.column("doc_id").filter(clash)[0].as_py())
    n = g.num_rows
    zeros = np.zeros(n, dtype=np.int32)
    return pa.table({
        "doc_id": g.column("doc_id"),
        "offset": pa.array(zeros - 1),
        "sub": pa.array(zeros),
        "kind": pa.array([TALLY] * n, type=pa.string()),
        "text": pa.array([""] * n, type=pa.string()),
        "media_ref": pa.array([""] * n, type=pa.string()),
        "rows": g.column("doc_rows_count").cast(pa.int32()),
        "doc_rows": g.column("doc_rows_min"),
    })


def _repeated(doc_id) -> ValueError:
    return ValueError(
        f"duplicate doc_id {doc_id!r}: more span rows arrived for it than "
        "its document has (the input repeats this doc_id, or a retried "
        "task delivered rows twice); doc_id must be unique")


class DocumentFold:
    """The split plan's count-completion fold: ONE stateful actor that
    takes span rows in any order and emits each document, through
    ``reassemble_sorted_block``, as soon as the tally rows for it add
    up to its stamp.

    No exchange, no global order and no end-of-stream hook: the state
    is, per partition (``schema.PID``; the whole input when rows carry
    none), a hash table of the documents in flight (their rows and
    counts) plus the set of emitted ids (one string per document).
    That set is what refuses a doc_id repeated in a partition (or rows
    delivered twice): a count past the stamp, two stamps for one id, or
    rows for an id already emitted all raise ``ValueError`` naming it.
    ``totals`` (``{pid: documents}``, known counts only) bounds the
    sets: once a partition has emitted all of its documents its ids are
    dropped, and any later row for it is refused as a repeat.  An id in
    two partitions is two documents, one per partition, as when each
    file runs alone.  A document is only ever emitted whole; one whose
    rows never all arrive is never emitted (``state.runner`` refuses to
    commit a partition that lost documents).  The actor must not
    restart (``max_restarts=0``): a restarted fold has lost its
    table."""

    def __init__(self, with_stats: bool = False, totals: dict | None = None):
        self.with_stats = with_stats
        self._totals = totals or {}
        # pid -> {doc_id: [rows, stamp, tables]}, pid -> emitted doc_ids
        self._open: dict = {}
        self._emitted: dict = {}
        self._complete: set = set()  # pids whose every document is out

    def __call__(self, batch: pa.Table) -> pa.Table:
        return map_partitions(self._fold, batch.combine_chunks())

    def _fold(self, batch: pa.Table, pid) -> pa.Table:
        open_ = self._open.setdefault(pid, {})
        emitted = self._emitted.setdefault(pid, set())
        is_tally = pc.equal(batch.column("kind"), TALLY)
        tallies = batch.filter(is_tally)
        docs = tallies.column("doc_id").to_pylist()
        for doc, n, stamp in zip(docs, tallies.column("rows").to_pylist(),
                                 tallies.column("doc_rows").to_pylist()):
            entry = open_.get(doc)
            if entry is None:
                if doc in emitted or pid in self._complete:
                    raise _repeated(doc)
                entry = open_[doc] = [0, stamp, []]
            entry[0] += n
            if entry[0] > entry[1] or stamp != entry[1]:
                raise _repeated(doc)
        rows = batch.filter(pc.invert(is_tally))
        if len(rows):
            rows = rows.take(pc.sort_indices(rows.column("doc_id")))
            ids = rows.column("doc_id").combine_chunks()
            n = len(ids)
            starts = np.concatenate([[0], np.nonzero(np.asarray(pc.not_equal(
                ids.slice(1), ids.slice(0, n - 1))))[0] + 1])
            ends = np.append(starts[1:], n)
            for doc, a, b in zip(ids.take(pa.array(starts)).to_pylist(),
                                 starts.tolist(), ends.tolist()):
                open_[doc][2].append(rows.slice(a, b - a))
        pieces = []
        for doc in dict.fromkeys(docs):
            if open_[doc][0] == open_[doc][1]:
                pieces.extend(open_.pop(doc)[2])
                emitted.add(doc)
        if len(emitted) == self._totals.get(pid):
            self._complete.add(pid)
            del self._open[pid], self._emitted[pid]
        out = (reassemble_sorted_block(pa.concat_tables(pieces)) if pieces
               else REASSEMBLED_SCHEMA.empty_table())
        return out if self.with_stats else out.select(["doc_id", "spans"])

"""Arrow schemas for the engine's tables.

The reference never declares a schema — its record shapes are implied by
CSV headers and filename conventions (``ocr_router.py:386,406-408``).
Here the schemas are first-class ``pyarrow.Schema`` constants and every
stage validates against them at ingest (replacing the per-file
``_validate_file`` checks at ``ollama_cloud_ocr.py:96-103``).
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input: one row per document, ordered interleaved spans.
# Matches BASELINE.json input_hint exactly.
# kind ∈ {'html', 'pdf', 'text', 'media'}
SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# ---------------------------------------------------------------------------
# Output: one row per document, extracted span sequence.
# kind ∈ {'text', 'ocr', 'error'}; order is 0-based dense and strictly
# increasing within a document (the page-order invariant of
# ``ocr_router.py:279,294`` generalized to spans).
OUT_SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("order", pa.int32()),
    ]
)

EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(OUT_SPAN_STRUCT)),
    ]
)

# ---------------------------------------------------------------------------
# Intermediate (exploded) row shape used between stages.  One row per
# *input* span before extraction, one row per *output* span after:
#   doc_id, offset (the input span's rank in its document, by input
#   offset then list position), sub (output index within the input
#   span), kind, text, media_ref.
EXPLODED_FIELDS = [
    ("doc_id", pa.string()),
    ("offset", pa.int32()),
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
]

# Per-document summary (analog of the reference CSV row
# ``file, engine, chars, pages, type`` at ``ocr_router.py:406-408``).
SUMMARY_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("engine", pa.string()),   # kind of first output span (G5 first-page-engine election)
        pa.field("chars", pa.int64()),     # total extracted chars (G1)
        pa.field("spans", pa.int32()),     # output span count (G2 page-count analog)
        pa.field("errors", pa.int32()),    # error-span count
    ]
)


def validate_documents(table: pa.Table) -> None:
    """Ingest-time schema check; raises ValueError on mismatch."""
    got = {f.name: f.type for f in table.schema}
    for f in DOCUMENTS_SCHEMA:
        if f.name not in got:
            raise ValueError(f"documents table missing column {f.name!r}")
        if not got[f.name].equals(f.type):
            # allow large_list/large_string promotions from some writers
            if f.name == "spans" and pa.types.is_list(got[f.name]):
                continue
            raise ValueError(
                f"documents column {f.name!r} has type {got[f.name]}, expected {f.type}"
            )


# ---------------------------------------------------------------------------
# Partition id: the column ``sources.io.read_documents_files(files,
# pids=...)`` adds to a job's documents (one id per input file).  Every
# extraction stage carries it to its output rows when its input has it,
# so one Dataset can run many resumable partitions.
PID = "pid"


def map_partitions(fn, table: pa.Table) -> pa.Table:
    """``fn(rows, pid)`` on each partition's rows of ``table``, and the
    outputs concatenated, each with its ``PID`` column put back.  A
    table without a ``PID`` column is one call, ``fn(table, None)``,
    and its output is returned as is; an empty one is one call with
    ``pid=None``."""
    import pyarrow.compute as pc

    if PID not in table.column_names:
        return fn(table, None)
    col = table.column(PID)
    pids = pc.unique(col).to_pylist() or [None]
    if len(pids) == 1:
        return _with_pid(fn(table, pids[0]), pids[0])
    return pa.concat_tables([
        _with_pid(fn(table.filter(pc.equal(col, pid)), pid), pid)
        for pid in pids])


def _with_pid(table: pa.Table, pid: int | None) -> pa.Table:
    return table.append_column(
        PID, pa.repeat(pa.scalar(pid, pa.int32()), table.num_rows))

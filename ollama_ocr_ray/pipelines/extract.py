"""Pipeline composition: documents Dataset → extracted Dataset.

Two physical plans over one extraction kernel (explode, per-kind
extract, OCR) and one reassembly (``reassemble_sorted_block``):

- **fused** runs the kernel and the reassembly in ONE actor call
  (``FusedExtractor``).  A document is one input row, so all of its
  span rows come out of one call and no exchange is needed (operator
  fusion).  Its skew unit is the batch: a media-heavy document's OCR
  calls all run inside one actor call (the reference's sequential
  100-page-PDF problem, ``ocr_router.py:279-298``).
- **split** explodes documents in a task stage that fuses with the
  read's validation map, cuts the span rows into fixed-size blocks
  (``repartition(target_num_rows_per_block=k)``, a streaming map with
  no barrier), extracts them on an actor pool (``SpanRowExtractor``),
  and reassembles each document in one stateful fold actor
  (``stages.reassemble.DocumentFold``) as soon as all of its rows are
  back: a heavy document's spans spread over the pool.

``choose_plan`` probes the input's first ``_SAMPLE_DOCS`` documents in
input order: the modeled OCR time of the heaviest one picks the plan,
and the sample sizes the actor pool (``ocr_pool``).  A parquet input
from ``sources.io.read_documents`` is probed on the driver from its
footers (row count, schema) and head row groups (the spans' ``kind``
leaf), a JSONL one from its head lines, with no Ray execution; any
other Dataset by one ordered Ray Data sample.  ``resolve_plan`` is the
one place the plan is decided; ``auto_pipeline`` and the resumable
runner (``state.runner.run_extract``) both go through it, then size
one pool and hand it to the plan's builder in ``PLANS``.  The runner
probes each input file, then runs the files of one plan as one
Dataset whose rows carry their partition id (``schema.PID``); every
stage passes that id through, and costs nothing without it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import SUMMARY_SCHEMA, map_partitions, validate_documents
from ..sources.io import source_files
from ..stages.explode import explode_batch
from ..stages.extract import extract_batch
from ..stages.ocr import OcrModel
from ..stages.reassemble import (DocumentFold, reassemble_sorted_block,
                                 tally_rows)

_BURN_MS_PER_ITER = 0.00055  # measured sha256 cost on the bench host
# The pool rule's two costs, measured on a 4-CPU host (BASELINE.md r6):
# extraction CPU per document outside OCR, and the wall time one more
# actor adds to a short pipeline (start-up, imports, first dispatch).
_DOC_MS = 0.25
_ACTOR_START_S = 0.25
# Documents ``choose_plan`` reads from the head of the input (a parquet
# input's head row groups, else 1-2 input blocks re-read by the main
# run — bounded cost at any corpus size).
_SAMPLE_DOCS = 512
# The split plan pays off once the heaviest sampled document's modeled
# OCR time passes this (the crossover of the 4-CPU sweep in BASELINE.md
# r6, "Span-split plan").
_SPLIT_DOC_S = 2.0
# The split plan's fold actor: light work (one reassembly per document),
# but it holds CPU like any actor and counts against the clamp.
_FOLD_CPUS = 0.25
# Fewest span rows per split-plan block: each block is one actor task,
# and a chain of operators dispatches a few tens of tasks per second.
_SPLIT_MIN_ROWS = 64


def _cluster_cpus() -> int:
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


class DocProbe(NamedTuple):
    """What a bounded sample of the input says about its OCR work."""

    docs: int           # documents in the sample
    total: int | None   # documents in the whole input, when known
    media_mean: float   # media spans per sampled document
    media_max: int = 0  # media spans of the heaviest sampled document


class OcrPool(NamedTuple):
    """One extraction stage's actor pool, as ``ocr_pool`` sizes it."""

    actors: int
    num_cpus: float     # per actor
    batch_size: int     # documents (split plan: span rows) per actor call

    def map_kwargs(self) -> dict:
        """``map_batches`` arguments: a FIXED pool (min = max) with one
        batch in flight per actor.  Ray hands bundles only to running
        actors, up to the in-flight limit (default 4), so a short
        pipeline's batches otherwise all queue on the first actor; and
        an autoscaling pool at in-flight 1 never grows past its min."""
        import ray.data

        return {
            "compute": ray.data.ActorPoolStrategy(
                size=self.actors, max_tasks_in_flight_per_actor=1),
            "num_cpus": self.num_cpus,
            "batch_size": self.batch_size,
        }


def _span_ms(ocr_burn: int, ocr_latency_ms: float) -> float:
    """Modeled OCR cost of one media span."""
    return ocr_latency_ms + ocr_burn * _BURN_MS_PER_ITER


def ocr_pool(probe: DocProbe, *, ocr_burn: int = 0,
             ocr_latency_ms: float = 0.0, cap: int | None = None,
             plan: str = "fused", largest: DocProbe | None = None) -> OcrPool:
    """The one sizing rule for the extraction actor pool, from the
    input's ``DocProbe`` (``resolve_plan``).

    Footprint: latency-bound inference (GPU/remote model, the
    reference's real profile, ``ollama_local_ocr.py:202``) sleeps more
    than it computes, so it runs ~3.5 actors per CPU at 0.25 CPU each
    (round-2 sweep, BASELINE.md); compute-bound work runs one 1-CPU
    actor per CPU.  ``cap`` (default: that footprint) bounds the actor
    count, and the clamp always leaves one whole CPU for the read
    stage: a pool covering every core starves the stream and it
    deadlocks (measured at num_cpus=4, round 4).  The split plan's fold
    actor (``_FOLD_CPUS``) comes out of the rest first: 12 span actors
    at 0.25 CPU plus the fold on 4 CPUs hung.

    Size: each actor costs ``_ACTOR_START_S`` and saves ``work / n``,
    so n = sqrt(work / start) minimizes the pipeline's wall time.
    Fused plan: when the probe knows the input's ``total`` (always for
    a parquet input, from its footers), the pool gets n actors for that
    many documents, the batch shrinks to give each actor one batch,
    and the pool never outnumbers its batches; an input of unknown size
    (JSONL/CSV or transformed, past the sample) gets the cap.  Split
    plan: the sample's span work sizes the pool even when the sample
    is not the whole input (a lower bound, so a long input may want a
    larger ``cap``); the fold is one of the n actors,
    and ``batch_size`` is span rows per block, enough to cut the
    heaviest sampled document into one block per actor.

    Several partitions in one Dataset (``state.runner.run_extract``):
    ``probe`` is their ``merge_probes`` and ``largest`` the probe of the
    largest one.  The actors come from the merged work; on the fused
    plan the batch is the one ``largest`` alone would get, so each
    partition fills waves of its own batches and commits before the job
    ends (a one-wave pool, batch = job / actors, finishes every
    partition at the end; BASELINE r6 "One Dataset per extract job").
    """
    pool = _pool_rule(probe, ocr_burn, ocr_latency_ms, cap, plan)
    if plan == "fused" and largest not in (None, probe):
        pool = pool._replace(batch_size=_pool_rule(
            largest, ocr_burn, ocr_latency_ms, cap, plan).batch_size)
    return pool


def _pool_rule(probe: DocProbe, ocr_burn: int, ocr_latency_ms: float,
               cap: int | None, plan: str) -> OcrPool:
    cpus = _cluster_cpus()
    per_span_ms = _span_ms(ocr_burn, ocr_latency_ms)
    if ocr_latency_ms > ocr_burn * _BURN_MS_PER_ITER:
        # 3.5 actors per CPU, but at most 4 per CPU beyond the first
        auto_cap, num_cpus, batch_size = min((7 * cpus) // 2,
                                             4 * (cpus - 1)), 0.25, 128
    else:
        auto_cap, num_cpus, batch_size = cpus - 1, 1, 64
    fold_cpus = _FOLD_CPUS if plan == "split" else 0.0
    budget = int((cpus - 1 - fold_cpus) / num_cpus)
    actors = max(1, min(auto_cap if cap is None else cap, budget))
    docs = probe.docs if plan == "split" else probe.total
    if docs is None:
        return OcrPool(actors, num_cpus, batch_size)
    work_s = docs * (_DOC_MS + probe.media_mean * per_span_ms) / 1e3
    best = math.ceil(math.sqrt(work_s / _ACTOR_START_S))
    if plan == "split":
        actors = max(1, min(actors, best - 1))
        batch_size = max(_SPLIT_MIN_ROWS,
                         math.ceil((probe.media_max + 1) / actors))
    else:
        actors = max(1, min(actors, best))
        batch_size = max(1, min(batch_size, math.ceil(docs / actors)))
        actors = max(1, min(actors, math.ceil(docs / batch_size)))
    return OcrPool(actors, num_cpus, batch_size)


def merge_probes(probes: list[DocProbe]) -> DocProbe:
    """One probe for several partitions run as one Dataset: documents,
    totals (unknown if any is) and media spans summed, ``media_max``
    the largest.  Over partitions the sample covers whole, it is the
    probe of their files read together."""
    if len(probes) == 1:
        return probes[0]
    docs = sum(p.docs for p in probes)
    media = sum(round(p.media_mean * p.docs) for p in probes)
    totals = [p.total for p in probes]
    return DocProbe(docs, None if None in totals else sum(totals),
                    media / docs if docs else 0.0,
                    max(p.media_max for p in probes))


class SpanExtractor:
    """explode + extract + OCR in ONE actor stage (document blocks in,
    span rows out).  One operator instead of a three-stage chain: the
    chain was dispatch-bound at ~5 tasks/s on the bench host
    (BASELINE.md r2)."""

    def __init__(self, offset_range=None, **ocr_kwargs):
        self._ocr = OcrModel(**ocr_kwargs)
        self.offset_range = offset_range

    def __call__(self, batch: pa.Table, tag=None) -> pa.Table:
        return self._ocr(
            extract_batch(
                explode_batch(batch, offset_range=self.offset_range)
            ),
            tag=tag,
        )


class FusedExtractor(SpanExtractor):
    """The extraction stage: ``SpanExtractor``'s kernel, then
    ``reassemble_sorted_block`` on the call's own span rows — every
    document is one input row, so its span rows never leave the call.
    Output is projected to (doc_id, spans) unless ``with_stats``.  A
    batch carrying partition ids (``schema.PID``) runs once per
    partition in it, and each output row keeps its document's id.

    Input contract: ``doc_id`` is unique within a partition, as for the
    incremental index (``state.dedup_index.ingest_neardup``).  A batch
    that repeats an id within a partition raises ``ValueError`` (its
    span ranks would collide and the rows would merge into one
    interleaved document); a repeat across batches is not detected and
    gives two output rows.  An id in two partitions is two documents,
    one per partition."""

    def __init__(self, with_stats: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.with_stats = with_stats

    def __call__(self, batch: pa.Table) -> pa.Table:
        return map_partitions(self._extract, batch)

    def _extract(self, batch: pa.Table, pid) -> pa.Table:
        ids = batch.column("doc_id")
        if pc.count_distinct(ids, mode="all").as_py() != len(ids):
            counts = ids.value_counts()
            dup = counts.field("values").filter(
                pc.greater(counts.field("counts"), 1))[0]
            raise ValueError(f"duplicate doc_id {dup.as_py()!r} in one "
                             "input batch; doc_id must be unique")
        out = reassemble_sorted_block(super().__call__(batch, tag=pid))
        return out if self.with_stats else out.select(["doc_id", "spans"])


def _fused_plan(docs, pool: OcrPool, *, offset_range=None,
                with_stats: bool = False, totals=None, **ocr_kwargs):
    """documents Dataset → extracted Dataset (EXTRACTED_SCHEMA
    [+stats]): one ``FusedExtractor`` actor stage on ``pool``;
    ``ocr_kwargs`` go to ``stages.ocr.OcrModel``.  A document is one
    input row, so no stage waits on a count: ``totals`` is unused."""
    return docs.map_batches(
        FusedExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_constructor_kwargs=dict(with_stats=with_stats,
                                   offset_range=offset_range, **ocr_kwargs),
        **pool.map_kwargs(),
    )


class SpanRowExtractor:
    """The split plan's actor stage: per-kind extract + OCR over stamped
    span rows (``explode_batch(stamp=True)``), plus one tally row per
    document the call saw (``stages.reassemble.tally_rows``).  Extraction
    changes row counts (HTML/PDF fan-out, empty text dropped, ``multi``
    OCR fan-out), so the fold counts consumed INPUT rows, never output
    rows.  Each partition (``schema.PID``) in a call runs on its own,
    and its output rows, tallies included, keep its id."""

    def __init__(self, **ocr_kwargs):
        self._ocr = OcrModel(**ocr_kwargs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return map_partitions(self._extract, batch)

    def _extract(self, rows: pa.Table, pid) -> pa.Table:
        return pa.concat_tables([self._ocr(extract_batch(rows), tag=pid),
                                 tally_rows(rows)],
                                promote_options="default")


def _split_plan(docs, pool: OcrPool, *, offset_range=None,
                with_stats: bool = False, totals=None, **ocr_kwargs):
    """documents Dataset → extracted Dataset (EXTRACTED_SCHEMA
    [+stats]) with a media-heavy document spread over the pool:
    explode (a task stage that fuses with the read's validation map),
    span rows cut into ``pool.batch_size``-row blocks
    (``StreamingRepartition``), a ``SpanRowExtractor`` actor stage on
    ``pool``, and one ``DocumentFold`` actor.  Output comes in
    completion order, not input order.  ``doc_id`` must be unique
    within a partition (the whole input when it carries no
    ``schema.PID``); a repeat raises ``ValueError``.  ``totals``
    (``{pid: documents}``, known counts only) lets the fold forget a
    partition's ids once all of them are out."""
    import ray.data

    spans = docs.map_batches(
        explode_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs=dict(offset_range=offset_range, stamp=True),
    ).repartition(target_num_rows_per_block=pool.batch_size)
    spans = spans.map_batches(
        SpanRowExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_constructor_kwargs=ocr_kwargs,
        **pool.map_kwargs(),
    )
    return spans.map_batches(
        DocumentFold,
        batch_format="pyarrow",
        batch_size=None,
        fn_constructor_kwargs=dict(with_stats=with_stats, totals=totals),
        compute=ray.data.ActorPoolStrategy(size=1),
        num_cpus=_FOLD_CPUS,
        max_restarts=0,
    )


# plan name → builder ``(docs, pool, *, offset_range, with_stats, totals,
# **OcrModel kwargs)``; ``resolve_plan`` picks the name
PLANS = {"fused": _fused_plan, "split": _split_plan}


def check_plan(plan: str | None) -> None:
    """``None`` and ``"auto"`` let the probe choose; ``"fused"`` and
    ``"split"`` name a plan; any other name (``"canonical"`` included)
    is a removed plan."""
    if plan not in (None, "auto", *PLANS):
        raise ValueError(
            f"extraction plan {plan!r} was removed: the plans are "
            "'fused' and 'split' (or pass None/'auto' to probe)")


def _probe(spans, total: int | None) -> DocProbe:
    """A sample's ``spans`` column (a list of structs with at least a
    ``kind`` field) → ``DocProbe``; both sample sources end here."""
    n = len(spans)
    is_media = np.asarray(pc.equal(pc.struct_field(
        pc.list_flatten(spans), "kind"), "media"))
    per_doc = np.bincount(np.repeat(np.arange(n), np.asarray(
        pc.list_value_length(spans).fill_null(0))),
        weights=is_media, minlength=n)
    media = int(per_doc.sum())
    return DocProbe(n, total, media / n if n else 0.0,
                    int(per_doc.max()) if n else 0)


def _parquet_probe(files: list[str]) -> DocProbe:
    """Probe a parquet input on the driver, with no Ray execution: the
    row count from the footers, and the first ``_SAMPLE_DOCS`` rows in
    file order from the head row groups, reading only the spans'
    ``kind`` leaf.  Each sampled file's footer schema goes through
    ``validate_documents``, so a wrong schema raises the ``ValueError``
    the read's validation map would."""
    import pyarrow.parquet as pq

    head, rows, total = [], 0, 0
    for path in files:
        with pq.ParquetFile(path) as f:
            total += f.metadata.num_rows
            if rows == _SAMPLE_DOCS:
                continue
            validate_documents(f.schema_arrow.empty_table())
            # the leaf's path names the writer's list level
            # ("spans.list.element.kind" or "spans.list.item.kind")
            kind = [path for path in (f.schema.column(i).path
                                      for i in range(len(f.schema)))
                    if path.startswith("spans.") and path.endswith(".kind")]
            if not kind:
                raise ValueError(
                    "documents column 'spans' has no 'kind' field")
            for batch in f.iter_batches(batch_size=_SAMPLE_DOCS,
                                        columns=kind[:1]):
                head.append(batch.column(0).slice(0, _SAMPLE_DOCS - rows))
                rows += len(head[-1])
                if rows == _SAMPLE_DOCS:
                    break
    if not head:
        return DocProbe(0, total, 0.0)
    return _probe(pa.chunked_array(head), total)


def _jsonl_probe(files: list[str]) -> DocProbe:
    """Probe a JSONL input on the driver, with no Ray execution: its
    first ``_SAMPLE_DOCS`` lines in file order, parsed by Arrow's JSON
    reader (Ray's read uses it too) and validated as the read's map
    would.  ``total`` is known when the input ends within the sample."""
    import io

    import pyarrow.json as pj

    head, more = [], False
    for path in files:
        with open(path, "rb") as f:
            for line in f:
                if not line.strip():
                    continue
                if len(head) == _SAMPLE_DOCS:
                    more = True
                    break
                head.append(line if line.endswith(b"\n") else line + b"\n")
        if more:
            break
    if not head:
        return DocProbe(0, 0, 0.0)
    sample = pj.read_json(io.BytesIO(b"".join(head)))
    validate_documents(sample)
    return _probe(sample["spans"], None if more else len(head))


def _dataset_probe(docs) -> DocProbe:
    """Probe any other Dataset with one Ray Data execution: its first
    ``_SAMPLE_DOCS`` rows in input order.  ``preserve_order`` is set on
    the Dataset's own context (shared along its chain, never the global
    ``DataContext``) for this execution only, so the sample does not
    depend on which blocks finish first."""
    opts = docs.context.execution_options
    ordered, opts.preserve_order = opts.preserve_order, True
    try:
        sample = docs.limit(_SAMPLE_DOCS).take_batch(
            _SAMPLE_DOCS, batch_format="pyarrow")
    except ValueError:
        # take_batch raises ValueError only for an exhausted/empty
        # dataset: nothing to probe.  Real read errors (corrupt
        # parquet, permissions) propagate.
        return DocProbe(0, 0, 0.0)
    finally:
        opts.preserve_order = ordered
    spans = sample["spans"]
    return _probe(spans, len(spans) if len(spans) < _SAMPLE_DOCS else None)


def choose_plan(docs, *, ocr_latency_ms: float = 0.0, ocr_burn: int = 0,
                with_probe: bool = False):
    """Probe the first ``_SAMPLE_DOCS`` documents in input order and
    return the plan: ``"split"`` when the heaviest sampled document's
    modeled OCR time (media spans × per-span cost) passes
    ``_SPLIT_DOC_S``, else ``"fused"``.

    The Dataset ``sources.io.read_documents`` returned over parquet
    files is probed from their footers and head row groups on the
    driver (``_parquet_probe``), over JSONL files from their head lines
    (``_jsonl_probe``); any other Dataset (transformed, in-memory, CSV)
    with one ordered Ray Data execution (``_dataset_probe``).
    ``with_probe=True`` returns ``(plan, DocProbe)`` so the sample
    sizes the actor pool (``ocr_pool``).
    """
    files = source_files(docs)
    if files is None:
        probe = _dataset_probe(docs)
    elif files[0].endswith(".parquet"):
        probe = _parquet_probe(files)
    else:
        probe = _jsonl_probe(files)
    heavy_s = probe.media_max * _span_ms(ocr_burn, ocr_latency_ms) / 1e3
    plan = "split" if heavy_s > _SPLIT_DOC_S else "fused"
    return (plan, probe) if with_probe else plan


def resolve_plan(docs, plan: str | None, *, ocr_latency_ms: float = 0.0,
                 ocr_burn: int = 0):
    """The one place an extraction plan is decided: ``check_plan``, then
    the probe (``choose_plan``), then the override — a plan name
    replaces only the probe's choice, and its ``DocProbe`` still sizes
    the pool (``ocr_pool``).  Returns ``(plan name, DocProbe)``."""
    check_plan(plan)
    chosen, probe = choose_plan(docs, ocr_latency_ms=ocr_latency_ms,
                                ocr_burn=ocr_burn, with_probe=True)
    return (plan if plan in PLANS else chosen), probe


def auto_pipeline(docs, *, ocr_burn: int = 0, ocr_latency_ms: float = 0.0,
                  policy: str = "text", offset_range=None,
                  ocr_concurrency: int | None = None,
                  with_stats: bool = False,
                  plan: str | None = None, model=None, media_store=None):
    """The engine's extraction entry point: probe the input, then run
    the plan ``resolve_plan`` decides on one pool ``ocr_pool`` sizes
    from the sample, capped at ``ocr_concurrency`` actors.  Returns
    (plan_name, ds).  ``media_store`` is the broadcast media lookup of
    ``stages.ocr.OcrModel``.
    """
    plan, probe = resolve_plan(docs, plan, ocr_latency_ms=ocr_latency_ms,
                               ocr_burn=ocr_burn)
    pool = ocr_pool(probe, ocr_burn=ocr_burn, ocr_latency_ms=ocr_latency_ms,
                    cap=ocr_concurrency, plan=plan)
    return plan, PLANS[plan](docs, pool, offset_range=offset_range,
                             with_stats=with_stats, burn_iters=ocr_burn,
                             latency_ms=ocr_latency_ms, policy=policy,
                             media_store=media_store, model=model)


def summary_table(extracted_with_stats):
    """Per-document summary (the reference CSV row analog,
    ``ocr_router.py:406-408``) from a with_stats extraction result."""

    def to_summary(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "engine": batch.column("engine"),
                "chars": batch.column("chars"),
                "spans": batch.column("n_spans"),
                "errors": batch.column("n_errors"),
            }
        ).cast(SUMMARY_SCHEMA)

    return extracted_with_stats.map_batches(to_summary, batch_format="pyarrow")


REF_CSV_COLUMNS = ["file", "engine", "chars", "pages", "type"]


def compat_summary_rows(stats: pa.Table) -> pa.Table:
    """with_stats rows → the reference's CSV columns (``ocr_router.py:
    386,406-408``: ``file, engine, chars, pages, type``): file = doc_id
    (the engine's document/file analog, SURVEY §1.1), pages = output
    span count (the page analog), type = ``pdf`` for multi-span
    documents and ``image`` for single-span ones — the reference's
    filename-suffix test re-expressed over the interleaved data model,
    where a document IS the ordered page sequence.  The columns match,
    the bytes do not: ``type`` is lower-case ``pdf``/``image``, and
    ``chars`` counts the span texts only, without the page separators
    the reference's joined text includes."""
    stats = stats.combine_chunks()
    pages = stats.column("n_spans").cast(pa.int64())
    return pa.table(
        {
            "file": stats.column("doc_id"),
            "engine": stats.column("engine"),
            "chars": stats.column("chars").cast(pa.int64()),
            "pages": pages,
            "type": pc.if_else(pc.greater(pages, 1),
                               pa.scalar("pdf"), pa.scalar("image")),
        }
    )


def write_csv_table(rows: pa.Table, path: str) -> None:
    """One ``compat_summary_rows`` table → one CSV with the reference's
    header row, written atomically (``state.manifest.atomic_file``)."""
    import csv

    from ..state.manifest import atomic_file

    with atomic_file(path, newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(REF_CSV_COLUMNS)
        w.writerows(zip(*(rows.column(c).to_pylist()
                          for c in REF_CSV_COLUMNS)))


def corpus_summary(extracted_with_stats):
    """Global batch totals (G3, ``ollama_local_ocr.py:397-427``): one-row
    aggregate over the per-document stats — docs, spans, chars, errors,
    mean OCR ms — via Dataset.aggregate (tiny exchange)."""
    from ray.data.aggregate import Count, Mean, Sum

    return extracted_with_stats.aggregate(
        Count(alias_name="docs"),
        Sum("n_spans", alias_name="spans"),
        Sum("chars", alias_name="chars"),
        Sum("n_errors", alias_name="errors"),
        Mean("ocr_ms", alias_name="mean_ocr_ms"),
    )


RECEIPTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("order", pa.int32()),
        pa.field("media_ref", pa.string()),
        pa.field("store_name", pa.string()),
        pa.field("total_amount", pa.float64()),
        pa.field("date", pa.string()),
        pa.field("n_items", pa.int32()),
    ]
)


def structured_receipts(extracted):
    """Typed relational view over 'structured'-policy output: parses the
    receipt-JSON spans (the reference only ever emits that JSON as text,
    ``ollama_cloud_ocr.py:401-414`` — this closes the loop into typed
    Arrow columns a downstream pipeline can aggregate)."""
    import json

    def parse(batch: pa.Table) -> pa.Table:
        rows = []
        for r in batch.to_pylist():
            for s in r["spans"]:
                if s["kind"] != "ocr":
                    continue
                try:
                    obj = json.loads(s["text"])
                except (ValueError, TypeError):
                    continue
                if not isinstance(obj, dict) or "store_name" not in obj:
                    continue
                rows.append(
                    {
                        "doc_id": r["doc_id"],
                        "order": s["order"],
                        "media_ref": s["media_ref"],
                        "store_name": obj.get("store_name", ""),
                        "total_amount": float(obj.get("total_amount", 0.0)),
                        "date": obj.get("date", ""),
                        "n_items": len(obj.get("items", [])),
                    }
                )
        return pa.Table.from_pylist(rows, schema=RECEIPTS_SCHEMA)

    return extracted.map_batches(parse, batch_format="pyarrow")

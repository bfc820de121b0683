"""Resumable partitioned runners (extract, prep, curate, export,
ingest).

Partition unit = one input data file of the documents table (a shard
for the export's pack phase).  Every partitioned job runs one way:
``Manifest.pending`` selects the partitions whose record does not match
the input's fingerprint (at most ``max_partitions`` of them), each runs
as one ``concurrent.futures.Future``, and ``_commit_each`` commits each
partition on the driver as it finishes, through the one protocol in
``state/manifest.py`` (clean, write to ``_tmp-*``, rename, then the
keyed record).  A failed partition does not stop the others: all
failures raise together once the rest have committed, and a rerun
redoes only what is missing (SURVEY.md §4.3).

What a partition's future runs depends on the work:

- **extract** (``run_extract``): a thread runs the partition's
  extraction pipeline as its own internally-parallel Dataset execution,
  decided exactly as ``pipelines.extract.auto_pipeline`` decides for any
  Dataset: the partition's own probe picks its plan and sizes its one
  pool; ``wave`` partitions run at once so the cluster stays
  saturated.
- **prep / curate annotate, export pack**: the per-partition work is a
  map-only pass whose parallelism unit IS the partition, so each runs
  as ONE plain Ray task (``_map_parquet_stream`` inside the task) and
  its ``ObjectRef.future()`` is the partition's future — per-partition
  Dataset executors measurably anti-scale on many-small-file inputs
  (BASELINE.md r3 'annotate phase').
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, as_completed

import numpy as np

from ..pipelines import extract as px
from ..sources.io import (list_input_files, read_documents,
                          read_documents_files, write_extracted)
from .manifest import (Manifest, done_record, fingerprint,
                       partition_fingerprint, publish_dir, read_record,
                       stage, write_record)


def _input_files(path: str, what: str = "input data files") -> list[str]:
    files = list_input_files(path)
    if not files:
        raise FileNotFoundError(f"no {what} under {path}")
    return files


def _commit_each(job: str, manifest: Manifest, futures: dict,
                 make_record=lambda pid, result: result) -> list[dict]:
    """The partition loop of every partitioned job.  ``futures`` maps
    each partition's ``Future`` to its ``(pid, source)``; as each one
    finishes, its partition commits on the DRIVER with the record
    ``make_record(pid, result)``, so the manifest stays single-writer.
    A failed partition does not stop the others from committing; once
    all have finished, every failure raises together as one
    ``RuntimeError`` chained to the first.  Returns the committed
    records."""
    records, failures = [], []
    for fut in as_completed(futures):
        pid, source = futures[fut]
        try:
            record = make_record(pid, fut.result())
        except Exception as e:  # noqa: BLE001 - commit the rest
            failures.append((source, e))
            continue
        manifest.commit(pid, record)
        records.append(record)
    if failures:
        raise RuntimeError(
            f"{len(failures)} {job} partition(s) failed "
            f"(others committed; rerun resumes): "
            + "; ".join(f"{name}: {e}" for name, e in failures[:5])
        ) from failures[0][1]
    return records


def _task_futures(fn, manifest: Manifest, sources: dict, *args) -> dict:
    """One Ray task ``fn(source, staging dir, *args)`` per partition of
    ``sources`` (``{pid: source path}``), keyed for ``_commit_each``."""
    import ray

    task = ray.remote(num_cpus=1)(fn)
    return {task.remote(src, manifest.stage(pid), *args).future(): (pid, src)
            for pid, src in sources.items()}


def _partition_metrics(part_dir: str) -> dict:
    """A written partition's record metrics; a ``doc_id`` on two output
    rows (a repeat across fused batches) raises ``ValueError``."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    stats = pads.dataset(part_dir).to_table(
        columns=["doc_id", "chars", "n_spans", "n_errors", "ocr_ms"]
    )
    counts = stats.column("doc_id").value_counts()
    if len(counts) < stats.num_rows:
        dup = counts.field("values").filter(
            pc.greater(counts.field("counts"), 1))[0]
        raise ValueError(f"duplicate doc_id {dup.as_py()!r} in the "
                         "partition's output; doc_id must be unique")
    ocr_ms = stats.column("ocr_ms").to_numpy()
    ocr_pos = ocr_ms[ocr_ms > 0]
    return {
        "docs": stats.num_rows,
        "spans_out": int(np.sum(stats.column("n_spans").to_numpy())),
        "chars": int(np.sum(stats.column("chars").to_numpy())),
        "errors": int(np.sum(stats.column("n_errors").to_numpy())),
        "ocr_latency_ms": {
            "p50": float(np.percentile(ocr_pos, 50)) if len(ocr_pos) else 0.0,
            "p95": float(np.percentile(ocr_pos, 95)) if len(ocr_pos) else 0.0,
            "count": int(len(ocr_pos)),
        },
    }


def _partition_csv_path(output_dir: str, pid: int) -> str:
    return os.path.join(output_dir, "summary", f"part-{pid:05d}.csv")


def _ensure_partition_csv(manifest, pid: int) -> None:
    """Write the reference-format summary csv for one COMMITTED
    partition if missing — projected from the written stats columns
    (no pipeline re-execution), atomic and idempotent.  Recommits
    unlink the old part first (see _run_partition), so 'missing'
    always means 'needs (re)generation'."""
    import pyarrow.dataset as pads

    from ..pipelines.extract import compat_summary_rows, write_csv_table

    csv_path = _partition_csv_path(manifest.output_dir, pid)
    if os.path.exists(csv_path):
        return
    os.makedirs(os.path.dirname(csv_path), exist_ok=True)
    rows = compat_summary_rows(
        pads.dataset(manifest.part_dir(pid)).to_table(
            columns=["doc_id", "engine", "chars", "n_spans"])
    ).sort_by("file")
    write_csv_table(rows, csv_path)


def _run_partition(
    pid: int,
    input_file: str,
    manifest: Manifest,
    *,
    plan: str | None,
    pipelines: int,
    ocr_burn: int,
    ocr_latency_ms: float,
    ocr_concurrency: int | None,
    policy,
    model=None,
    metrics_sink=None,
) -> dict:
    """Extract one partition into its staging dir and return its record
    (``_commit_each`` commits it), with the ``plan`` it ran, decided as
    ``auto_pipeline`` decides on the partition's file: ``resolve_plan``,
    then ONE ``ocr_pool`` call, capped at ``ocr_concurrency`` and at its
    share among ``pipelines`` partitions running at once.  Output short
    of the probe's known input count (``DocProbe.total``: parquet
    footers, or a probe that saw the whole file) raises."""
    ds = read_documents_files([input_file])
    plan, probe = px.resolve_plan(ds, plan, ocr_latency_ms=ocr_latency_ms,
                                  ocr_burn=ocr_burn)
    pool = px.ocr_pool(probe, ocr_burn=ocr_burn,
                       ocr_latency_ms=ocr_latency_ms, cap=ocr_concurrency,
                       pipelines=pipelines, plan=plan)
    out = px.PLANS[plan](
        ds, pool, with_stats=True, burn_iters=ocr_burn,
        latency_ms=ocr_latency_ms, policy=policy, model=model,
        metrics_sink=metrics_sink, metrics_tag=pid,
    )
    tmp_dir = manifest.stage(pid)
    # a recommitted partition invalidates any previous summary csv;
    # drop it so a non-csv run never leaves a stale part claiming to
    # summarize the new data (the csv_summary path rewrites it via
    # _ensure_partition_csv in run_extract)
    stale_csv = _partition_csv_path(manifest.output_dir, pid)
    if os.path.exists(stale_csv):
        os.remove(stale_csv)
    write_extracted(out, tmp_dir)
    record = {
        "input_file": os.path.abspath(input_file),
        "input_fingerprint": partition_fingerprint(input_file),
        "plan": plan,
        **_partition_metrics(tmp_dir),
    }
    if probe.total is not None and record["docs"] != probe.total:
        # every input document has an output row (an empty span list at
        # least); a missing one was lost, never commit it as done
        raise RuntimeError(f"partition {pid} ({input_file}): extracted "
                           f"{record['docs']} of {probe.total} documents")
    if metrics_sink is not None:
        # drain THIS partition's actor resource samples (the write +
        # metrics read above give in-flight fire-and-forget pushes time
        # to land; a straggler sample is dropped, never misattributed).
        # Telemetry must never fail the job: a dead/unreachable sink
        # degrades the record, not the commit.
        import ray

        from .metrics import aggregate_samples

        try:
            record["resources"] = aggregate_samples(
                ray.get(metrics_sink.drain.remote(pid), timeout=30)
            )
        except Exception as e:  # noqa: BLE001 - telemetry only
            record["resources"] = {"samples": 0,
                                   "error": f"sink unavailable: {e}"}
    return record


def _map_parquet_stream(files: list[str], tmp_dir: str, fn,
                        batch_rows: int):
    """Stream the ``(doc_id, text)`` rows of ``files`` in units of
    ``batch_rows`` rows or more (coalesced across files and row groups;
    the last unit may be shorter), write ``fn(unit)`` of each unit to
    ``tmp_dir/part-0.parquet`` and yield it.  Input without rows still
    writes ``fn`` of one empty unit, so the part carries its schema.
    Memory stays bounded by one unit.  The raw tasks below run it; the
    driver commits ``tmp_dir``, hence the shared-FS requirement in
    ``state/manifest.py``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def units():
        pending, rows, sent = [], 0, False
        for path in files:
            for rb in pq.ParquetFile(path).iter_batches(
                    batch_size=batch_rows, columns=["doc_id", "text"]):
                if rb.num_rows:
                    pending.append(rb)
                    rows += rb.num_rows
                if rows >= batch_rows:
                    yield pa.Table.from_batches(pending).combine_chunks()
                    pending, rows, sent = [], 0, True
        if pending:
            yield pa.Table.from_batches(pending).combine_chunks()
        elif not sent:
            yield pa.table({"doc_id": pa.array([], type=pa.int64()),
                            "text": pa.array([], type=pa.string())})

    os.makedirs(tmp_dir, exist_ok=True)
    writer = None
    try:
        for unit in units():
            t = fn(unit)
            if writer is None:
                writer = pq.ParquetWriter(
                    os.path.join(tmp_dir, "part-0.parquet"), t.schema)
            writer.write_table(t)
            yield t
    finally:
        if writer is not None:
            writer.close()


def _annotate_file_task(input_file: str, tmp_dir: str, make_annotator,
                        batch_rows: int = 16384) -> int:
    """Annotate+gate ONE input file inside a single Ray TASK; returns
    the kept row count.

    Deliberately NOT a Ray Data pipeline: a per-file streaming executor
    costs ~0.4-0.5 s of fixed setup/dispatch, and — measured on a
    32-core host — that cost GROWS with cluster size (200 small files at
    num_cpus=32 ran 2x SLOWER than at 8 through per-file Datasets,
    while one task per file scales linearly; BASELINE.md r3 'annotate
    phase' note).  The partition is already the parallelism unit, the
    stage is map-only, and the stream bounds memory to one batch — the
    Dataset machinery buys nothing here.  This is the sanctioned
    raw-task escape hatch: a per-file commit unit the Dataset API
    cannot express without paying per-file executors."""
    return sum(t.num_rows for t in _map_parquet_stream(
        [input_file], tmp_dir, make_annotator(), batch_rows))


def _run_two_phase(
    job: str,
    input_path: str,
    output_dir: str,
    *,
    make_annotator,
    annotate_sig: str,
    build_finalize,
    finalize_sig: str,
    write_kwargs: dict | None = None,
    record_extra: dict | None = None,
    max_partitions: int | None = None,
) -> dict:
    """Generic resumable two-phase export (VERDICT r2 #6 — the
    reference reruns everything on a crash, ``ollama_cloud_ocr.py:889``;
    a 100-TB export must not):

    1. **Annotate** (resumable, partition = input file):
       ``make_annotator()`` maps each document block to its scalar
       annotation rows, text dropped at the stage boundary.  Each
       partition runs as one Ray task and commits under
       ``output_dir/annotated`` (``_commit_each``); a rerun
       fingerprint-matches and redoes only missing partitions.
       ``annotate_sig`` folds the gate/annotate config into the
       partition fingerprint, so a config change redoes the annotate
       pass.
    2. **Finalize** (global, cheap): ``build_finalize(ann_ds)`` runs the
       cross-partition step (dedup / sample / shuffle) over the
       committed annotations — scalar columns only, no text — committed
       to ``output_dir/data``.  The finalize record is keyed on the
       sorted partition fingerprints plus ``finalize_sig``, so input or
       export-config changes re-run only this pass.

    A kill anywhere leaves either nothing or a committed unit; resume
    cost is bounded by one partition plus the finalize pass.
    ``max_partitions`` bounds phase-1 work (the kill-simulation hook);
    when partitions remain pending the summary reports
    ``status="partial"`` and finalize is skipped.
    """
    files = _input_files(input_path)
    ann_dir = os.path.join(output_dir, "annotated")
    os.makedirs(ann_dir, exist_ok=True)
    manifest = Manifest(ann_dir)
    fps = {
        pid: f"{partition_fingerprint(f)}:{annotate_sig}"
        for pid, f in enumerate(files)
    }
    todo = manifest.pending(fps, max_partitions)
    _commit_each(
        "annotate", manifest,
        _task_futures(_annotate_file_task, manifest,
                      {pid: files[pid] for pid in todo}, make_annotator),
        lambda pid, kept: {
            "input_file": os.path.abspath(files[pid]),
            "input_fingerprint": fps[pid],
            "docs_kept": kept,
            **(record_extra or {}),
        },
    )
    left = manifest.pending(fps)
    summary = {
        "job": job,
        "partitions_total": len(files),
        "partitions_skipped": len(files) - len(left) - len(todo),
        "partitions_run": len(todo),
        "output": output_dir,
        "data_dir": os.path.join(output_dir, "data"),
    }
    if left:
        return {**summary, "status": "partial", "rows_kept": None}

    # --- finalize: the global pass over the committed annotations ----
    finalize_key = fingerprint([fps[pid] for pid in sorted(fps)]
                               + [finalize_sig])
    final_rec_path = os.path.join(output_dir, "final.json")
    data_dir = summary["data_dir"]
    final_rec = done_record(final_rec_path, "finalize_key", finalize_key,
                            data_dir)
    if final_rec is not None:
        return {**summary, "status": "done",
                "rows_kept": final_rec["rows_kept"], "finalized": False}

    import pyarrow.dataset as pads
    import ray.data as rd

    part_files = [
        os.path.join(d, f)
        for d in (manifest.part_dir(pid) for pid in sorted(fps))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    out = build_finalize(rd.read_parquet(part_files))
    # a 0-row write (every document gated away) creates no directory;
    # publish_dir commits an empty one so resume/read see a valid export
    out.write_parquet(stage(data_dir), **(write_kwargs or {}))
    publish_dir(data_dir)
    rows_kept = pads.dataset(data_dir, partitioning="hive").count_rows()
    write_record(final_rec_path, {"finalize_key": finalize_key,
                                  "rows_kept": rows_kept, "status": "done"})
    return {**summary, "status": "done", "rows_kept": rows_kept,
            "finalized": True}


def run_prep(
    input_path: str,
    output_dir: str,
    *,
    quality_threshold: float = 0.01,
    max_partitions: int | None = None,
    shuffle_seed: int | None = None,
    partition_by: str | None = None,
) -> dict:
    """Run (or resume) the corpus-prep export: quality-gated annotate
    partitions, then the global exact-dedup keep-min-doc_id (+ optional
    seeded shuffle).  See ``_run_two_phase`` for the checkpoint
    protocol."""
    from ..functions.prep import ANNOTATE_SCHEMA, PrepAnnotate, dedup_keep_min

    def build_finalize(ann):
        out = dedup_keep_min(ann, empty_schema=ANNOTATE_SCHEMA)
        if shuffle_seed is not None:
            out = out.random_shuffle(seed=shuffle_seed)
        return out

    return _run_two_phase(
        "prep", input_path, output_dir,
        make_annotator=lambda: PrepAnnotate(quality_threshold),
        annotate_sig=f"q={quality_threshold!r}",
        build_finalize=build_finalize,
        finalize_sig=f"shuffle={shuffle_seed!r}:part={partition_by!r}",
        write_kwargs={"partition_cols": [partition_by]}
        if partition_by else None,
        record_extra={"quality_threshold": quality_threshold},
        max_partitions=max_partitions,
    )


def run_curate(
    input_path: str,
    output_dir: str,
    *,
    quality_threshold: float = 0.01,
    max_top2gram_e4: int = 800,
    sample_k: int = 20,
    sample_seed: int = 0,
    fan_in: int = 64,
    max_partitions: int | None = None,
) -> dict:
    """Run (or resume) the training-mix curation export: quality +
    phrase-repetition gated annotate partitions, then the global
    exact-dedup + seeded stratified sample per predicted language.
    Same checkpoint protocol as ``run_prep`` (``_run_two_phase``)."""
    from ..functions.prep import ANNOTATE_SCHEMA, CurateAnnotate, dedup_keep_min
    from ..functions.sampling import sample_stratified

    def build_finalize(ann):
        return sample_stratified(dedup_keep_min(ann,
                                                empty_schema=ANNOTATE_SCHEMA),
                                 stratum_col="pred_lang",
                                 k=sample_k, seed=sample_seed,
                                 fan_in=fan_in)

    return _run_two_phase(
        "curate", input_path, output_dir,
        make_annotator=lambda: CurateAnnotate(quality_threshold,
                                              max_top2gram_e4),
        annotate_sig=f"q={quality_threshold!r}:rep={max_top2gram_e4}",
        build_finalize=build_finalize,
        finalize_sig=f"k={sample_k}:seed={sample_seed}",
        record_extra={"quality_threshold": quality_threshold,
                      "max_top2gram_e4": max_top2gram_e4},
        max_partitions=max_partitions,
    )


def _pack_shard_task(shard_dir: str, tmp_dir: str, capacity: int,
                     batch_rows: int = 8192) -> dict:
    """Pack ONE selected shard inside a single Ray task: stream the
    shard's (doc_id, text) rows, run next-fit-decreasing packing +
    concatenation per ``batch_rows``-row unit (``packed_examples_block``),
    write one parquet.  The select phase writes one file per exchange
    block — often tiny (11-row files observed at 1M-doc volume) — so
    the stream COALESCES rows across files/row-groups up to
    ``batch_rows`` before packing; packing tiny units one-per-file
    leaves packs ~25% full.  Pack-id uniqueness holds across units and
    shards because both partition the doc_id space (units are disjoint
    doc sets, so their min-doc_id prefixes differ).  Same raw-task
    escape hatch as ``_annotate_file_task``."""
    from ..functions.packing import packed_examples_block

    files = (
        sorted(
            os.path.join(shard_dir, f) for f in os.listdir(shard_dir)
            if f.endswith(".parquet")
        )
        if os.path.isdir(shard_dir) else []
    )
    n_docs = n_packs = n_tokens = 0
    for t in _map_parquet_stream(
            files, tmp_dir,
            lambda unit: packed_examples_block(unit, capacity=capacity),
            batch_rows):
        n_packs += t.num_rows
        n_docs += int(np.sum(t.column("n_docs").to_numpy()))
        n_tokens += int(np.sum(t.column("n_tokens").to_numpy()))
    return {"docs": n_docs, "packs": n_packs, "tokens": n_tokens}


def run_export(
    input_path: str,
    output_dir: str,
    *,
    manifest_path: str,
    capacity: int = 2048,
    n_shards: int = 16,
    max_partitions: int | None = None,
) -> dict:
    """Resumable packed-corpus export (VERDICT r3 missing #3): join a
    mix manifest (``doc_id`` rows from a prep/curate export) back to
    document TEXT and write actual training examples — one row per
    pack, documents concatenated in next-fit-decreasing order.

    Phase 1 **select** (global, the one exchange): the manifest's
    doc_ids co-partition with the corpus via ``relational.hash_join``
    (the manifest may be corpus-sized — never a driver-side id set);
    each selected doc gets a deterministic shard (``doc_id %
    n_shards``) and the joined rows commit ATOMICALLY as a whole
    (tmp → rename + ``select.json`` keyed on input + manifest
    fingerprints + shard count).  A matching key skips the join on
    rerun.

    Phase 2 **pack** (per-shard, resumable): each shard packs in one
    Ray task and commits through the standard partition manifest, its
    fingerprint embedding the select key + capacity — so a new
    selection or capacity change redoes the packing, a killed run
    redoes only missing shards.  ``max_partitions`` bounds phase-2
    shards per run (the kill-simulation hook).
    """
    import ray.data as rd

    files = _input_files(input_path)
    man_files = _input_files(manifest_path, "mix-manifest parquet")
    os.makedirs(output_dir, exist_ok=True)
    select_key = fingerprint(
        [partition_fingerprint(f) for f in files]
        + [partition_fingerprint(f) for f in man_files]
        + [f"shards={n_shards}"]
    )
    selected_dir = os.path.join(output_dir, "selected")
    sel_rec_path = os.path.join(output_dir, "select.json")
    selected_fresh = done_record(sel_rec_path, "select_key", select_key,
                                 selected_dir) is None
    if selected_fresh:
        from ..functions.relational import hash_join

        import pyarrow as pa

        docs = rd.read_parquet(files, columns=["doc_id", "text"])
        mix = rd.read_parquet(man_files, columns=["doc_id"])
        joined = hash_join(mix, docs, key="doc_id", left_cols=[],
                           right_cols=["text"])

        def add_shard(batch: pa.Table) -> pa.Table:
            batch = batch.combine_chunks()
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.append_column(
                "shard", pa.array((ids % n_shards).astype(np.int64))
            )

        out = joined.map_batches(add_shard, batch_format="pyarrow",
                                 zero_copy_batch=True)
        out.write_parquet(stage(selected_dir), partition_cols=["shard"])
        publish_dir(selected_dir)
        write_record(sel_rec_path, {"select_key": select_key,
                                    "n_shards": n_shards})

    data_dir = os.path.join(output_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    manifest = Manifest(data_dir)
    fps = {k: f"{select_key}:cap={capacity}:shard={k}"
           for k in range(n_shards)}
    todo = manifest.pending(fps, max_partitions)
    _commit_each(
        "pack", manifest,
        _task_futures(_pack_shard_task, manifest,
                      {k: os.path.join(selected_dir, f"shard={k}")
                       for k in todo}, capacity),
        lambda k, stats: {"input_fingerprint": fps[k],
                          "capacity": capacity, **stats},
    )
    left = manifest.pending(fps)
    summary = {
        "job": "export",
        "shards_total": n_shards,
        "shards_skipped": n_shards - len(left) - len(todo),
        "shards_run": len(todo),
        "selected_fresh": selected_fresh,
        "output": output_dir,
        "data_dir": data_dir,
    }
    if left:
        return {**summary, "status": "partial"}
    # totals over THIS selection's shards only (a stale record from an
    # older, larger shard count must not leak into the sums)
    recs = [manifest.record(k) for k in range(n_shards)]
    return {
        **summary,
        "status": "done",
        "docs": sum(r.get("docs", 0) for r in recs),
        "packs": sum(r.get("packs", 0) for r in recs),
        "tokens": sum(r.get("tokens", 0) for r in recs),
    }


def run_extract(
    input_path: str,
    output_dir: str,
    *,
    plan: str = "auto",
    ocr_burn: int = 0,
    ocr_latency_ms: float = 0.0,
    ocr_concurrency: int | None = None,
    policy="text",
    model=None,
    wave: int = 4,
    max_partitions: int | None = None,
    csv_summary: bool = False,
) -> dict:
    """Run (or resume) extraction over all partitions of ``input_path``.

    Returns a summary: partitions done/skipped and aggregate metrics.
    ``max_partitions`` bounds how many pending partitions run (the
    kill-simulation hook for resume tests).  Every partition decides
    its plan (``plan`` overrides only the choice) and its one fixed
    actor pool from its own probe, as ``auto_pipeline`` does, capped at
    ``ocr_concurrency`` actors and at its share of the cluster among the
    ``wave`` partitions running at once.  The summary's ``plan`` is the
    plans the partitions ran, sorted and joined with ``+`` (the one
    asked for when none was pending).  A partition whose output holds
    fewer documents than its counted input, or a ``doc_id`` twice, is
    not committed; the others still commit, and the run then raises
    once for every failed partition (``_commit_each``).  A ``doc_id``
    shared by two input files is still not detected.
    """
    px.check_plan(plan)
    files = _input_files(input_path)
    os.makedirs(output_dir, exist_ok=True)
    manifest = Manifest(output_dir)
    fps = {pid: partition_fingerprint(f) for pid, f in enumerate(files)}
    todo = manifest.pending(fps, max_partitions)
    done = []
    if todo:
        from .metrics import make_sink

        kwargs = dict(
            plan=plan,
            pipelines=max(1, min(wave, len(todo))),
            ocr_burn=ocr_burn,
            ocr_latency_ms=ocr_latency_ms,
            ocr_concurrency=ocr_concurrency,
            policy=policy,
            model=model,
            # one zero-CPU metrics sink per job: every OCR actor pushes
            # one resource sample per batch, drained per partition
            metrics_sink=make_sink(),
        )
        with ThreadPoolExecutor(max_workers=max(1, wave)) as pool:
            done = _commit_each("extract", manifest, {
                pool.submit(_run_partition, pid, files[pid], manifest,
                            **kwargs): (pid, files[pid])
                for pid in todo})
    left = manifest.pending(fps)
    if csv_summary:
        # reference-format CSVs (K3 compat, ocr_router.py:378-386):
        # AFTER the partition loop so a resumed run also fills parts
        # for partitions committed by an earlier non-csv run — the
        # summary dir always covers exactly the committed partitions
        for pid in sorted(fps.keys() - set(left)):
            _ensure_partition_csv(manifest, pid)
    return {
        "partitions_total": len(files),
        "partitions_skipped": len(files) - len(left) - len(done),
        "partitions_run": len(done),
        "docs": sum(r["docs"] for r in done),
        "spans_out": sum(r["spans_out"] for r in done),
        "errors": sum(r["errors"] for r in done),
        "plan": "+".join(sorted({r["plan"] for r in done})) or plan,
        "output_dir": output_dir,
    }


def run_ingest(input_path: str, output_dir: str, *,
               index_path: str | None = None, n_shards: int = 8,
               mode: str = "exact", threshold: float = 0.7,
               hot_bucket_cap: int = 4096) -> dict:
    """Resumable incremental-ingest job: dedup ``input_path`` against
    (and into) a persistent index (``state/dedup_index.py``), write the
    surviving rows, and snapshot the grown index for the NEXT epoch —
    the daily-shards-vs-exported-history workflow the batch dedup
    exchange can't serve.  ``mode='exact'`` uses the content-hash
    index; ``mode='near'`` uses the LSH signature index at the given
    estimated-Jaccard ``threshold`` — both accept flat text corpora
    AND the interleaved shape (near mode shingles the canonical
    ``render_spans_text`` rendering).

    Layout: ``data/`` (kept rows), ``index/`` (the new sealed
    snapshot), ``ingest.json`` (completion record, written last, keyed
    on the input files' fingerprints, ``mode``, the near-mode
    ``threshold`` and ``hot_bucket_cap``, and the absolute
    ``index_path``).  Crash anywhere → rerun with the same arguments:
    offers are idempotent, the filter pass is deterministic (global min
    doc_id wins), and the data dir and snapshot are rebuilt from
    scratch when the record is missing.  A rerun with the same key
    returns the recorded summary; an output dir holding another key's
    epoch (or a record without a key) raises ``ValueError`` —
    snapshots are append-only, so a different epoch needs a fresh
    output dir.  ``index_path`` is the previous epoch's snapshot (omit
    for epoch 0); its pinned shard fan-out and MinHash parameters win
    over the arguments here, which is why ``n_shards`` is not part of
    the key.
    """
    from .dedup_index import (DedupIndex, NearDupIndex, ingest_dedup,
                              ingest_neardup, render_spans_text)

    if mode not in ("exact", "near"):
        raise ValueError(f"run_ingest: unknown mode {mode!r} "
                         "(expected 'exact' or 'near')")

    data_dir = os.path.join(output_dir, "data")
    index_dir = os.path.join(output_dir, "index")
    if index_path and os.path.abspath(index_path) == os.path.abspath(
            index_dir):
        raise ValueError(f"run_ingest: {index_path} is this epoch's own "
                         "output snapshot; snapshots are append-only, so "
                         "pick a fresh output dir")
    rec_path = os.path.join(output_dir, "ingest.json")
    ingest_key = fingerprint(
        [partition_fingerprint(f) for f in list_input_files(input_path)]
        + [f"mode={mode}"]
        + ([f"threshold={threshold!r}", f"cap={hot_bucket_cap}"]
           if mode == "near" else [])
        + [f"index={os.path.abspath(index_path) if index_path else None}"]
    )
    rec = read_record(rec_path)
    if rec is not None and rec.get("ingest_key") != ingest_key:
        raise ValueError(
            f"run_ingest: {output_dir} holds a different ingest epoch "
            "(other input files, mode, threshold, hot_bucket_cap or "
            "index); index snapshots are append-only, so pick a fresh "
            "output dir for this one")
    if done_record(rec_path, "ingest_key", ingest_key, data_dir):
        rec.pop("ingest_key")
        return rec  # resume: this epoch is already complete
    os.makedirs(output_dir, exist_ok=True)

    # the exact index accepts BOTH corpus shapes (interleaved spans or
    # flat text); the interleaved schema validator only applies to the
    # former, so probe the schema first
    docs = read_documents(input_path, validate=False)
    names = docs.schema().names
    if "spans" in names:
        docs = read_documents(input_path, validate=True)
    keep_cols = [c for c in names]
    stats: dict = {}
    if mode == "near":
        if "text" not in names:
            if "spans" not in names:
                raise ValueError(
                    "--dedup near needs a 'text' or 'spans' column; "
                    f"got columns {sorted(names)}"
                )
            # interleaved corpus: shingle the canonical rendering
            # (render_spans_text is snapshot-format-bearing — it lives
            # in dedup_index beside the signature fold)
            import pyarrow as pa

            def render(batch: pa.Table) -> pa.Table:
                texts = [render_spans_text(spans)
                         for spans in batch.column("spans").to_pylist()]
                return batch.append_column(
                    "text", pa.array(texts, type=pa.string()))

            docs = docs.map_batches(render, batch_format="pyarrow")
        index = (NearDupIndex.load(index_path) if index_path
                 else NearDupIndex(n_shards=n_shards))
        kept = ingest_neardup(docs, index, threshold=threshold,
                              keep_cols=keep_cols, stats=stats,
                              hot_bucket_cap=hot_bucket_cap)
    else:
        index = (DedupIndex.load(index_path) if index_path
                 else DedupIndex(n_shards=n_shards))
        kept = ingest_dedup(docs, index, keep_cols=keep_cols,
                            stats=stats)

    # deterministic rebuild after a crash; an all-duplicates epoch
    # writes ZERO files and publishes an empty (valid) data dir
    kept.write_parquet(stage(data_dir))
    publish_dir(data_dir)
    n_input = stats["n_input"]

    # an index dir without this epoch's record is a killed run's
    # leftover, maybe of other input: clean it and save this index
    stage(index_dir)
    n_entries = index.save(index_dir)

    import pyarrow.parquet as pq

    parts = [f for f in os.listdir(data_dir) if f.endswith(".parquet")]
    n_kept = (pq.read_table(data_dir, columns=["doc_id"]).num_rows
              if parts else 0)
    summary = {
        "job": "ingest",
        "mode": mode,
        "input_docs": int(n_input),
        "kept": int(n_kept),
        "dropped": int(n_input - n_kept),
        "index_entries": int(n_entries),
        "index_dir": index_dir,
    }
    # near-mode phase timings + the hot-bucket saturation diagnostic
    for k in ("t_offer_s", "t_decide_s", "n_saturated_bucket_probes"):
        if k in stats:
            summary[k] = stats[k]
    write_record(rec_path, {**summary, "ingest_key": ingest_key})
    return summary

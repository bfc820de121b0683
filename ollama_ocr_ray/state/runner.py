"""Resumable partitioned runners (extract, prep, curate, export,
ingest).

Partition unit = one input data file of the documents table (a shard
for the export's pack phase).  Every unit commits through the one
protocol in ``state/manifest.py`` (clean, write to ``_tmp-*``, rename,
then the keyed record), and a killed run resumes by fingerprint-matching
the records, redoing only missing units (SURVEY.md §4.3).

Two execution shapes, chosen by what the per-partition work needs:

- **extract** (``run_extract``): each partition runs the extraction
  pipeline as its own internally-parallel Dataset execution (one
  actor-pool stage that extracts and reassembles each batch of
  documents); ``wave`` partitions run concurrently so the cluster
  stays saturated.
- **prep / curate annotate, export pack** (``_run_tasks``): the
  per-partition work is a map-only pass whose parallelism unit IS the
  partition, so each runs as ONE plain Ray task (streaming parquet read
  inside the task) — per-partition Dataset executors measurably
  anti-scale on many-small-file inputs (BASELINE.md r3 'annotate
  phase').
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..pipelines.extract import PLANS, check_plan
from ..sources.io import (list_input_files, read_documents,
                          read_documents_files, write_extracted)
from .manifest import (Manifest, done_record, fingerprint,
                       partition_fingerprint, publish_dir, read_record,
                       stage, write_record)


def _partition_metrics(part_dir: str) -> dict:
    import pyarrow.dataset as pads

    stats = pads.dataset(part_dir).to_table(
        columns=["chars", "n_spans", "n_errors", "ocr_ms"]
    )
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
    ocr_burn: int,
    ocr_latency_ms: float,
    ocr_concurrency: int | None,
    policy,
    model=None,
    metrics_sink=None,
    probe=None,
    plan: str = "fused",
) -> dict:
    ds = read_documents_files([input_file])
    n_in = None
    if input_file.endswith(".parquet"):
        import pyarrow.parquet as pq

        n_in = pq.ParquetFile(input_file).metadata.num_rows
    if probe is not None:
        # the job's media-per-doc sample, scaled to this partition's
        # exact doc count when its footer says it (parquet)
        probe = (probe._replace(docs=n_in, exact=True) if n_in is not None
                 else probe._replace(exact=False))
    out = PLANS[plan](
        ds, ocr_burn=ocr_burn, ocr_latency_ms=ocr_latency_ms,
        concurrency=ocr_concurrency, policy=policy, with_stats=True,
        model=model, metrics_sink=metrics_sink, metrics_tag=pid,
        probe=probe,
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
        **_partition_metrics(tmp_dir),
    }
    if n_in is not None and record["docs"] != n_in:
        # every input document has an output row (an empty span list at
        # least); a missing one was lost, never commit it as done
        raise RuntimeError(f"partition {pid} ({input_file}): extracted "
                           f"{record['docs']} of {n_in} documents")
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
    manifest.commit(pid, record)
    return record


def _annotate_file_task(input_file: str, tmp_dir: str, make_annotator,
                        batch_rows: int = 16384) -> int:
    """Annotate+gate ONE input file inside a single Ray TASK.

    Deliberately NOT a Ray Data pipeline: a per-file streaming executor
    costs ~0.4-0.5 s of fixed setup/dispatch, and — measured on this
    host — that cost GROWS with cluster size (200 small files at
    num_cpus=32 ran 2x SLOWER than at 8 through per-file Datasets,
    while one task per file scales linearly; BASELINE.md r3 'annotate
    phase' note).  The partition is already the parallelism unit, the
    stage is map-only, and ``ParquetFile.iter_batches`` bounds memory
    to one batch — the Dataset machinery buys nothing here.  This is
    the sanctioned raw-task escape hatch: a per-file commit unit the
    Dataset API cannot express without paying per-file executors.  The
    driver commits ``tmp_dir`` (``_run_tasks``), hence the shared-FS
    requirement in ``state/manifest.py``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    ann = make_annotator()
    os.makedirs(tmp_dir, exist_ok=True)
    out_path = os.path.join(tmp_dir, "part-0.parquet")
    pf = pq.ParquetFile(input_file)
    writer = None
    kept = 0
    try:
        for rb in pf.iter_batches(batch_size=batch_rows,
                                  columns=["doc_id", "text"]):
            t = ann(pa.Table.from_batches([rb]))
            if writer is None:
                writer = pq.ParquetWriter(out_path, t.schema)
            writer.write_table(t)
            kept += t.num_rows
        if writer is None:  # empty input file: still commit the schema
            t = ann(pa.table({"doc_id": pa.array([], type=pa.int64()),
                              "text": pa.array([], type=pa.string())}))
            writer = pq.ParquetWriter(out_path, t.schema)
            writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()
    return kept


def _run_tasks(job: str, manifest: Manifest, fn, inputs: dict,
               make_record, *fn_args) -> None:
    """Run ``fn(input, tmp_dir, *fn_args)`` as one Ray task per
    partition of ``inputs`` (``{pid: input path}``) and commit each
    partition, with ``make_record(pid, result)``, on the DRIVER as its
    task finishes, so the manifest stays single-writer.  A failed task
    does not stop the others from committing; all failures raise
    together at the end, and the committed partitions are skipped on
    the rerun."""
    import ray

    task = ray.remote(num_cpus=1)(fn)
    refs = {task.remote(src, manifest.stage(pid), *fn_args): (pid, src)
            for pid, src in inputs.items()}
    failures = []
    while refs:
        # drain every ready task per round (one wait RTT per task
        # serialized the commit loop on 200-tiny-file inputs)
        done_refs, _ = ray.wait(
            list(refs), num_returns=min(len(refs), 64), timeout=1.0
        )
        for ref in done_refs:
            pid, name = refs.pop(ref)
            try:
                result = ray.get(ref)
            except Exception as e:  # noqa: BLE001 - commit the rest
                failures.append((name, e))
                continue
            manifest.commit(pid, make_record(pid, result))
    if failures:
        raise RuntimeError(
            f"{len(failures)} {job} partition(s) failed "
            f"(others committed; rerun resumes): "
            + "; ".join(f"{name}: {e}" for name, e in failures[:5])
        )


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
       ``output_dir/annotated`` (``_run_tasks``); a rerun
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
    files = list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no input data files under {input_path}")
    ann_dir = os.path.join(output_dir, "annotated")
    os.makedirs(ann_dir, exist_ok=True)
    manifest = Manifest(ann_dir)
    fps = {
        pid: f"{partition_fingerprint(f)}:{annotate_sig}"
        for pid, f in enumerate(files)
    }
    pending = [
        (pid, f) for pid, f in enumerate(files)
        if not manifest.is_done(pid, fps[pid])
    ]
    skipped = len(files) - len(pending)
    if max_partitions is not None:
        pending = pending[:max_partitions]
    if pending:
        _run_tasks(
            "annotate", manifest, _annotate_file_task,
            dict(pending),
            lambda pid, kept: {
                "input_file": os.path.abspath(files[pid]),
                "input_fingerprint": fps[pid],
                "docs_kept": kept,
                **(record_extra or {}),
            },
            make_annotator,
        )
    summary = {
        "job": job,
        "partitions_total": len(files),
        "partitions_skipped": skipped,
        "partitions_run": len(pending),
        "output": output_dir,
        "data_dir": os.path.join(output_dir, "data"),
    }
    if any(not manifest.is_done(pid, fps[pid]) for pid in fps):
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
    rows are COALESCED across files/row-groups up to ``batch_rows``
    before packing; packing tiny units one-per-file leaves packs ~25%
    full.  Pack-id uniqueness holds across units and shards because
    both partition the doc_id space (units are disjoint doc sets, so
    their min-doc_id prefixes differ).  Same raw-task escape hatch and
    SHARED-FS requirement as ``_annotate_file_task``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..functions.packing import packed_examples_block

    os.makedirs(tmp_dir, exist_ok=True)
    out_path = os.path.join(tmp_dir, "part-0.parquet")
    files = (
        sorted(
            os.path.join(shard_dir, f) for f in os.listdir(shard_dir)
            if f.endswith(".parquet")
        )
        if os.path.isdir(shard_dir) else []
    )
    writer = None
    n_docs = n_packs = n_tokens = 0
    pending: list = []
    pending_rows = 0

    def _flush():
        nonlocal writer, n_docs, n_packs, n_tokens, pending, pending_rows
        t = packed_examples_block(
            pa.Table.from_batches(pending).combine_chunks(),
            capacity=capacity,
        )
        pending, pending_rows = [], 0
        if writer is None:
            writer = pq.ParquetWriter(out_path, t.schema)
        writer.write_table(t)
        n_packs += t.num_rows
        n_docs += int(np.sum(t.column("n_docs").to_numpy()))
        n_tokens += int(np.sum(t.column("n_tokens").to_numpy()))

    try:
        for path in files:
            pf = pq.ParquetFile(path)
            for rb in pf.iter_batches(batch_size=batch_rows,
                                      columns=["doc_id", "text"]):
                if rb.num_rows == 0:
                    continue
                pending.append(rb)
                pending_rows += rb.num_rows
                if pending_rows >= batch_rows:
                    _flush()
        if pending:
            _flush()
        if writer is None:  # empty shard: still commit the schema
            t = packed_examples_block(
                pa.table({"doc_id": pa.array([], type=pa.int64()),
                          "text": pa.array([], type=pa.string())}),
                capacity=capacity,
            )
            writer = pq.ParquetWriter(out_path, t.schema)
            writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()
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

    files = list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no input data files under {input_path}")
    man_files = list_input_files(manifest_path)
    if not man_files:
        raise FileNotFoundError(
            f"no mix-manifest parquet under {manifest_path}"
        )
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

    def shard_fp(k: int) -> str:
        return f"{select_key}:cap={capacity}:shard={k}"

    pending = [
        k for k in range(n_shards) if not manifest.is_done(k, shard_fp(k))
    ]
    skipped = n_shards - len(pending)
    if max_partitions is not None:
        pending = pending[:max_partitions]
    if pending:
        _run_tasks(
            "pack", manifest, _pack_shard_task,
            {k: os.path.join(selected_dir, f"shard={k}") for k in pending},
            lambda k, stats: {"input_fingerprint": shard_fp(k),
                              "capacity": capacity, **stats},
            capacity,
        )
    summary = {
        "job": "export",
        "shards_total": n_shards,
        "shards_skipped": skipped,
        "shards_run": len(pending),
        "selected_fresh": selected_fresh,
        "output": output_dir,
        "data_dir": data_dir,
    }
    if any(not manifest.is_done(k, shard_fp(k)) for k in range(n_shards)):
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
    kill-simulation hook for resume tests).  Each partition gets a
    fixed actor pool sized by ``ocr_pool`` from its doc count and the
    job's probe, capped at ``ocr_concurrency`` actors and at its share
    of the cluster among the ``wave`` partitions running at once.
    ``plan`` is checked by ``pipelines.extract.check_plan``; ``"auto"``
    (or ``None``) takes the plan ``choose_plan`` picks from a sample of
    the first input file, and the summary reports the plan that ran
    (the one asked for when no partition was pending).  A partition
    whose output holds fewer documents than its parquet input is not
    committed: the run raises.
    """
    check_plan(plan)
    files = list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no input data files under {input_path}")
    os.makedirs(output_dir, exist_ok=True)
    manifest = Manifest(output_dir)
    pending: list[tuple[int, str]] = []
    skipped = 0
    for pid, f in enumerate(files):
        if manifest.is_done(pid, partition_fingerprint(f)):
            skipped += 1
        else:
            pending.append((pid, f))
    if max_partitions is not None:
        pending = pending[:max_partitions]
    probe = None
    if pending:
        # one probe per job: it picks the plan (as ``auto_pipeline``
        # does) and its sample sizes every partition's pool
        from ..pipelines import extract as px

        chosen, probe = px.choose_plan(read_documents_files([files[0]]),
                                       ocr_latency_ms=ocr_latency_ms,
                                       ocr_burn=ocr_burn, with_probe=True)
        plan = plan if plan in px.PLANS else chosen
        ocr_concurrency = px.ocr_pool(
            ocr_burn=ocr_burn, ocr_latency_ms=ocr_latency_ms,
            cap=ocr_concurrency, plan=plan,
            pipelines=max(1, min(wave, len(pending)))).actors
    # one zero-CPU metrics sink per job: every OCR actor pushes one
    # resource sample per batch, drained per partition at commit
    from .metrics import make_sink

    metrics_sink = make_sink() if pending else None
    kwargs = dict(
        plan=plan,
        ocr_burn=ocr_burn,
        ocr_latency_ms=ocr_latency_ms,
        ocr_concurrency=ocr_concurrency,
        policy=policy,
        model=model,
        metrics_sink=metrics_sink,
        probe=probe,
    )
    done = []
    if pending:
        with ThreadPoolExecutor(max_workers=max(1, wave)) as pool:
            futs = [
                pool.submit(_run_partition, pid, f, manifest, **kwargs)
                for pid, f in pending
            ]
            done = [f.result() for f in futs]
    if csv_summary:
        # reference-format CSVs (K3 compat, ocr_router.py:378-386):
        # AFTER the partition loop so a resumed run also fills parts
        # for partitions committed by an earlier non-csv run — the
        # summary dir always covers exactly the committed partitions
        for pid, f in enumerate(files):
            if manifest.is_done(pid, partition_fingerprint(f)):
                _ensure_partition_csv(manifest, pid)
    return {
        "partitions_total": len(files),
        "partitions_skipped": skipped,
        "partitions_run": len(done),
        "docs": sum(r["docs"] for r in done),
        "spans_out": sum(r["spans_out"] for r in done),
        "errors": sum(r["errors"] for r in done),
        "plan": plan,
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

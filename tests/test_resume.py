"""Checkpoint/resume tests (SURVEY.md §5.2.3): kill after a partition
subset → rerun → identical final output, finished partitions untouched."""

import os

import pyarrow.dataset as pads
import pytest

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.pipelines import extract as px
from ollama_ocr_ray.state.manifest import Manifest, partition_fingerprint
from ollama_ocr_ray.state.runner import run_extract


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    # write_corpus shards into multiple parquet files (partitions)
    root = tmp_path_factory.mktemp("resume")
    return synth.write_corpus(str(root), 200, seed=11)


def _read_spans(output_dir):
    files = [
        os.path.join(output_dir, d, f)
        for d in sorted(os.listdir(output_dir))
        if d.startswith("part-")
        for f in sorted(os.listdir(os.path.join(output_dir, d)))
    ]
    return _spans(files)


def _spans(source):
    t = pads.dataset(source).to_table(columns=["doc_id", "spans"])
    return {
        r["doc_id"]: [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in r["spans"]
        ]
        for r in t.to_pylist()
    }


def test_partial_run_then_resume(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "out")
    # "killed" run: only 2 partitions complete
    s1 = run_extract(corpus_dir, out, max_partitions=2, wave=2, ocr_concurrency=1)
    assert s1["partitions_run"] == 2 and s1["partitions_skipped"] == 0
    m = Manifest(out)
    assert len(m.records()) == 2
    mtimes = {
        pid: os.stat(m.part_dir(pid)).st_mtime_ns for pid in (0, 1)
    }

    # resume: finishes the rest, leaves done partitions untouched
    s2 = run_extract(corpus_dir, out, wave=2, ocr_concurrency=1)
    assert s2["partitions_skipped"] == 2
    assert s2["partitions_run"] == s2["partitions_total"] - 2
    for pid, mt in mtimes.items():
        assert os.stat(m.part_dir(pid)).st_mtime_ns == mt, "done partition rewritten"

    # final output equals the oracle over the whole corpus
    expected = oracle.extract_corpus(
        synth.gen_table(200, seed=11)
    )
    assert _read_spans(out) == expected

    # idempotent: a third run does nothing
    s3 = run_extract(corpus_dir, out, ocr_concurrency=1)
    assert s3["partitions_run"] == 0


def test_fingerprint_invalidation(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "out2")
    run_extract(corpus_dir, out, max_partitions=1, ocr_concurrency=1)
    m = Manifest(out)
    rec = m.record(0)
    assert rec["status"] == "done"
    assert rec["docs"] > 0 and rec["spans_out"] > 0
    assert "ocr_latency_ms" in rec
    # touch the input file → fingerprint changes → partition redone
    f0 = rec["input_file"]
    os.utime(f0)
    assert not m.is_done(0, partition_fingerprint(f0))
    s = run_extract(corpus_dir, out, max_partitions=1, ocr_concurrency=1)
    assert s["partitions_run"] == 1


def test_fused_plan_runner(ray_session, corpus_dir, tmp_path):
    out = str(tmp_path / "fused")
    s = run_extract(corpus_dir, out, plan="fused", wave=2, ocr_concurrency=1)
    assert s["partitions_run"] == s["partitions_total"]
    expected = oracle.extract_corpus(synth.gen_table(200, seed=11))
    assert _read_spans(out) == expected


def test_extract_output_stays_parquet_when_lance_imports(
        ray_session, tmp_path, monkeypatch):
    """The runner reads every committed partition back as Parquet, so
    an extract job writes Parquet even where pylance is installed."""
    import pyarrow.parquet as pq

    from ollama_ocr_ray.sources import io

    monkeypatch.setattr(io, "_has_lance", lambda: True)
    table = synth.gen_table(20, seed=3)
    (tmp_path / "in").mkdir()
    pq.write_table(table, str(tmp_path / "in" / "part-00000.parquet"))
    out = str(tmp_path / "out")
    s = run_extract(str(tmp_path / "in"), out, wave=1, ocr_concurrency=1)
    assert (s["partitions_run"], s["docs"]) == (1, 20)
    assert [r["docs"] for r in Manifest(out).records()] == [20]
    assert _read_spans(out) == oracle.extract_corpus(table)


def test_lance_partitions_run_as_one_dataset(ray_session, tmp_path,
                                             monkeypatch):
    """A Lance read records no path, so a job over ``.lance`` inputs
    tags each file's rows with its partition id as it reads them.
    Here ``ray.data.read_lance`` reads parquet: the three files run as
    one Dataset, and each partition commits its own file's documents,
    equal to the oracle."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ollama_ocr_ray.sources import io

    read_parquet = rd.read_parquet
    monkeypatch.setattr(io, "_has_lance", lambda: True)
    monkeypatch.setattr(rd, "read_lance", lambda path, **kw: read_parquet(
        path, file_extensions=None, **kw))
    fused, builds = px.PLANS["fused"], []

    def counted(ds, pool, **kw):
        builds.append(pool)
        return fused(ds, pool, **kw)

    monkeypatch.setitem(px.PLANS, "fused", counted)
    table = synth.gen_table(60, seed=23)
    src = tmp_path / "in"
    src.mkdir()
    for i in range(3):
        pq.write_table(table.slice(20 * i, 20),
                       str(src / f"part-{i:05d}.lance"))
    out = str(tmp_path / "out")
    s = run_extract(str(src), out, plan="fused", ocr_concurrency=1)
    assert (len(builds), s["partitions_run"], s["docs"]) == (1, 3, 60)
    for i in range(3):
        assert _spans(Manifest(out).part_dir(i)) \
            == oracle.extract_corpus(table.slice(20 * i, 20))


def test_driver_killed_between_commits_resumes_the_rest(
        ray_session, tmp_path, monkeypatch):
    """A driver that dies between two partition commits (here: the
    second ``Manifest.commit`` raises) leaves exactly one committed
    partition and no published part without its record; the rerun
    skips that one, runs the other two, and the output equals the
    oracle."""
    import gc

    import pyarrow.parquet as pq

    table = synth.gen_table(60, seed=21)
    src = tmp_path / "in"
    src.mkdir()
    for i in range(3):
        pq.write_table(table.slice(20 * i, 20),
                       str(src / f"part-{i:05d}.parquet"))
    out = str(tmp_path / "out")
    commit, calls = Manifest.commit, []

    def dying_commit(self, pid, record):
        calls.append(pid)
        if len(calls) == 2:
            raise RuntimeError("driver killed")
        commit(self, pid, record)

    monkeypatch.setattr(Manifest, "commit", dying_commit)
    with pytest.raises(RuntimeError, match="driver killed"):
        run_extract(str(src), out, ocr_concurrency=1)
    monkeypatch.setattr(Manifest, "commit", commit)
    m = Manifest(out)
    assert [r["partition_id"] for r in m.records()] == calls[:1]
    assert sorted(d for d in os.listdir(out) if d.startswith("part-")) \
        == [f"part-{calls[0]:05d}"]
    gc.collect()  # release the aborted job's pool before the rerun
    s = run_extract(str(src), out, ocr_concurrency=1)
    assert (s["partitions_skipped"], s["partitions_run"]) == (1, 2)
    assert _read_spans(out) == oracle.extract_corpus(table)


def test_cli_prep_job(ray_session, tmp_path, capsys):
    """--job prep streams the composed prep pipeline to partitioned
    parquet; kept rows = the library pipeline's own output."""
    import json

    import ray.data as rd

    from ollama_ocr_ray.functions.prep import prep_corpus
    from ollama_ocr_ray.run import main

    src = "/root/testdata/sf0.001/documents.parquet"
    out = str(tmp_path / "prep")
    assert main(["--input", src, "--output", out, "--job", "prep"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    direct = prep_corpus(rd.read_parquet(src)).count()
    assert summary["rows_kept"] == direct > 0
    assert summary["status"] == "done"
    assert rd.read_parquet(summary["data_dir"]).count() == direct
    # re-running is a RESUME: nothing reruns, same rows, no data rewrite
    assert main(["--input", src, "--output", out, "--job", "prep"]) == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["partitions_run"] == 0 and s2["rows_kept"] == direct
    assert s2["finalized"] is False
    # a non-empty output WITHOUT a prep manifest is foreign: fail fast...
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    (foreign / "stale.parquet").write_bytes(b"x")
    with pytest.raises(SystemExit, match="no prep manifest"):
        main(["--input", src, "--output", str(foreign), "--job", "prep"])
    # ...and --overwrite replaces it
    assert main(["--input", src, "--output", str(foreign), "--job", "prep",
                 "--overwrite"]) == 0
    s3 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s3["rows_kept"] == direct


@pytest.fixture(scope="module")
def docs_shards(tmp_path_factory):
    """The sf0.001 documents table resharded into 4 files (prep's
    resumable partition unit is the input file)."""
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"])
    root = tmp_path_factory.mktemp("docs_shards")
    n = t.num_rows
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step),
                       str(root / f"docs-{i:02d}.parquet"))
    return str(root)


def test_prep_partial_run_then_resume(ray_session, docs_shards, tmp_path):
    """Kill prep after 2 of 4 annotate partitions → resume finishes the
    rest + the global dedup finalize; done partitions untouched; output
    equals the one-shot library pipeline (VERDICT r2 #6)."""
    import ray.data as rd

    from ollama_ocr_ray.functions.prep import prep_corpus
    from ollama_ocr_ray.state.runner import run_prep

    out = str(tmp_path / "prep")
    s1 = run_prep(docs_shards, out, max_partitions=2)
    assert s1["status"] == "partial" and s1["partitions_run"] == 2
    assert s1["rows_kept"] is None
    assert not os.path.isdir(s1["data_dir"]), "finalize must not run partial"
    m = Manifest(os.path.join(out, "annotated"))
    assert len(m.records()) == 2
    mtimes = {pid: os.stat(m.part_dir(pid)).st_mtime_ns for pid in (0, 1)}

    s2 = run_prep(docs_shards, out)
    assert s2["status"] == "done" and s2["partitions_skipped"] == 2
    assert s2["partitions_run"] == 2 and s2["finalized"] is True
    for pid, mt in mtimes.items():
        assert os.stat(m.part_dir(pid)).st_mtime_ns == mt, \
            "done partition rewritten"

    def rows(ds):
        return sorted(
            (r["doc_id"], r["pred_lang"], r["n_chars"], r["fingerprint"])
            for r in ds.take_all()
        )

    direct = prep_corpus(rd.read_parquet(docs_shards))
    assert rows(rd.read_parquet(s2["data_dir"])) == rows(direct)

    # idempotent third run: no annotate, no finalize
    data_mtime = os.stat(s2["data_dir"]).st_mtime_ns
    s3 = run_prep(docs_shards, out)
    assert s3["partitions_run"] == 0 and s3["finalized"] is False
    assert s3["rows_kept"] == s2["rows_kept"]
    assert os.stat(s3["data_dir"]).st_mtime_ns == data_mtime

    # changing the gate invalidates the annotate partitions too
    s4 = run_prep(docs_shards, out, quality_threshold=0.02)
    assert s4["partitions_run"] == s4["partitions_total"]


def test_curate_run_and_resume(ray_session, docs_shards, tmp_path, capsys):
    """--job curate: partial run → resume → output equals the one-shot
    library curate_corpus; idempotent rerun skips finalize."""
    import json

    import ray.data as rd

    from ollama_ocr_ray.functions.prep import curate_corpus
    from ollama_ocr_ray.run import main
    from ollama_ocr_ray.state.runner import run_curate

    out = str(tmp_path / "curate")
    s1 = run_curate(docs_shards, out, sample_k=5, sample_seed=7,
                    max_partitions=2)
    assert s1["status"] == "partial" and s1["partitions_run"] == 2

    assert main(["--input", docs_shards, "--output", out, "--job",
                 "curate", "--sample-k", "5", "--sample-seed", "7"]) == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["status"] == "done" and s2["partitions_skipped"] == 2

    def rows(ds):
        return sorted(
            (r["pred_lang"], r["rn"], r["doc_id"], r["sample_key"])
            for r in ds.take_all()
        )

    direct = curate_corpus(rd.read_parquet(docs_shards), k=5, seed=7,
                           fan_in=4)
    assert rows(rd.read_parquet(s2["data_dir"])) == rows(direct)
    assert s2["rows_kept"] == len(rows(direct)) > 0

    s3 = run_curate(docs_shards, out, sample_k=5, sample_seed=7)
    assert s3["partitions_run"] == 0 and s3["finalized"] is False
    # a different sample seed re-runs ONLY the finalize pass
    s4 = run_curate(docs_shards, out, sample_k=5, sample_seed=8)
    assert s4["partitions_run"] == 0 and s4["finalized"] is True


def test_cli_warns_for_flags_its_job_does_not_read(ray_session, tmp_path,
                                                   capsys):
    """--job prep reads no OCR flag: a prep run given --ocr-latency-ms
    still runs, and names the flag once on stderr."""
    import pyarrow.parquet as pq

    from ollama_ocr_ray.run import main

    src = tmp_path / "src"
    src.mkdir()
    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"]).slice(0, 20)
    pq.write_table(t, str(src / "docs-00.parquet"))
    assert main(["--input", str(src), "--output", str(tmp_path / "out"),
                 "--job", "prep", "--ocr-latency-ms", "5"]) == 0
    err = capsys.readouterr().err
    assert ("warning: --ocr-latency-ms does not apply to --job prep; "
            "ignored") in err
    assert err.count("does not apply") == 1


def test_prep_append_new_partition(ray_session, docs_shards, tmp_path):
    """Appending an input file to a finished prep export reruns ONLY the
    new partition + the finalize pass (the incremental-ingest claim of
    the two-phase design)."""
    import shutil

    import ray.data as rd

    from ollama_ocr_ray.state.runner import run_prep

    src = str(tmp_path / "src")
    shutil.copytree(docs_shards, src)
    out = str(tmp_path / "prep")
    s1 = run_prep(src, out)
    assert s1["status"] == "done" and s1["partitions_total"] == 4

    # append: re-shard one file under a new name sorting LAST so the
    # existing pid->file mapping is unchanged
    files = sorted(os.listdir(src))
    shutil.copy(os.path.join(src, files[0]),
                os.path.join(src, "docs-99-extra.parquet"))
    s2 = run_prep(src, out)
    assert s2["partitions_total"] == 5
    assert s2["partitions_skipped"] == 4 and s2["partitions_run"] == 1
    assert s2["finalized"] is True
    # the duplicated shard's docs dedup away: same rows as before
    assert s2["rows_kept"] == s1["rows_kept"]
    assert rd.read_parquet(s2["data_dir"]).count() == s1["rows_kept"]


def test_prep_all_documents_gated_finalizes_empty(ray_session, tmp_path):
    """A gate rejecting EVERY document (seen at 1M-doc volume with a
    stopword-free corpus) must still finalize: empty typed export, a
    committed data dir, and a clean resume — not a schema-derivation
    crash in dedup_keep_min or a missing-tmp-dir os.replace failure."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ollama_ocr_ray.state.runner import run_prep

    src = str(tmp_path / "src")
    os.makedirs(src)
    pq.write_table(
        pa.table({"doc_id": pa.array(range(50), type=pa.int64()),
                  "text": ["xqz bbb ccc"] * 50}),
        os.path.join(src, "docs-0.parquet"),
    )
    out = str(tmp_path / "prep")
    s1 = run_prep(src, out, quality_threshold=1.0)
    assert s1["status"] == "done" and s1["rows_kept"] == 0
    assert os.path.isdir(s1["data_dir"])
    s2 = run_prep(src, out, quality_threshold=1.0)
    assert s2["rows_kept"] == 0 and s2["finalized"] is False


def test_prep_one_bad_partition_commits_others(ray_session, docs_shards,
                                               tmp_path):
    """A corrupt input file fails ITS partition but every other
    completed partition still commits (review fix: the drain loop must
    not abort on the first task error); fixing the file resumes with
    only that partition."""
    import shutil

    from ollama_ocr_ray.state.runner import run_prep

    src = str(tmp_path / "src")
    shutil.copytree(docs_shards, src)
    good = os.path.join(src, sorted(os.listdir(src))[0])
    bad = os.path.join(src, "docs-98-bad.parquet")
    with open(bad, "wb") as f:
        f.write(b"this is not parquet")
    out = str(tmp_path / "prep")
    with pytest.raises(RuntimeError, match="1 annotate partition"):
        run_prep(src, out)
    m = Manifest(os.path.join(out, "annotated"))
    assert len(m.records()) == 4  # the 4 good shards committed
    shutil.copy(good, bad)  # "fix" the corrupt file
    s = run_prep(src, out)
    assert s["partitions_run"] == 1 and s["partitions_skipped"] == 4
    assert s["status"] == "done"


def test_export_one_bad_shard_commits_others(ray_session, docs_shards,
                                             tmp_path):
    """A pack task that fails on a corrupt selected shard must not
    discard the other shards' finished packs: they commit, only the
    failed shard's staging dir stays, and one error names the count.
    A fresh selection then resumes with only that shard."""
    import pyarrow.parquet as pq

    from ollama_ocr_ray.state.runner import run_export

    man = tmp_path / "mix"
    man.mkdir()
    pq.write_table(pq.read_table(docs_shards, columns=["doc_id"]),
                   str(man / "part-0.parquet"))
    out = str(tmp_path / "export")
    kw = dict(manifest_path=str(man), capacity=256, n_shards=4)
    s0 = run_export(docs_shards, out, max_partitions=0, **kw)  # select only
    assert s0["status"] == "partial" and s0["shards_run"] == 0
    shard0 = os.path.join(out, "selected", "shard=0")
    victim = os.path.join(shard0, sorted(os.listdir(shard0))[0])
    with open(victim, "wb") as f:
        f.write(b"this is not parquet")
    with pytest.raises(RuntimeError, match="1 pack partition"):
        run_export(docs_shards, out, **kw)
    data = os.path.join(out, "data")
    assert sorted(r["partition_id"] for r in Manifest(data).records()) \
        == [1, 2, 3]
    assert [d for d in os.listdir(data) if d.startswith("_tmp-")] \
        == ["_tmp-part-00000"]
    os.remove(os.path.join(out, "select.json"))  # force a re-select
    s = run_export(docs_shards, out, **kw)
    assert s["status"] == "done" and s["selected_fresh"] is True
    assert s["shards_run"] == 1 and s["shards_skipped"] == 3
    assert s["docs"] == 500


def test_export_packed_shards_run_and_resume(ray_session, docs_shards,
                                             tmp_path, capsys):
    """--job export (VERDICT r3 missing #3): curate mix manifest →
    hash_join back to text → packed training-example shards.  Kill
    after 2 of 4 shards → CLI resume finishes the rest, reusing the
    committed select phase and shards; invariants hold over the final
    shards (every manifest doc packed exactly once, concatenated chars
    conserved, capacity respected, pack ids globally unique)."""
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from ollama_ocr_ray.run import main
    from ollama_ocr_ray.state.runner import run_curate, run_export

    cur = str(tmp_path / "curate")
    sc = run_curate(docs_shards, cur, sample_k=8, sample_seed=3)
    assert sc["status"] == "done"
    man_dir = sc["data_dir"]

    out = str(tmp_path / "export")
    s1 = run_export(docs_shards, out, manifest_path=man_dir,
                    capacity=256, n_shards=4, max_partitions=2)
    assert s1["status"] == "partial" and s1["shards_run"] == 2
    assert s1["selected_fresh"] is True

    m = Manifest(os.path.join(out, "data"))
    done_pids = [r["partition_id"] for r in m.records()]
    assert len(done_pids) == 2
    mtimes = {k: os.stat(m.part_dir(k)).st_mtime_ns for k in done_pids}

    assert main(["--input", docs_shards, "--output", out, "--job",
                 "export", "--manifest", man_dir, "--capacity", "256",
                 "--n-shards", "4"]) == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["status"] == "done" and s2["shards_skipped"] == 2
    assert s2["selected_fresh"] is False
    for k, mt in mtimes.items():
        assert os.stat(m.part_dir(k)).st_mtime_ns == mt, \
            "done shard rewritten on resume"

    # --- invariant gate over the final shards -----------------------
    manifest_ids = set(
        r["doc_id"] for r in rd.read_parquet(man_dir).take_all()
    )
    doc_chars = {
        r["doc_id"]: len(r["text"])
        for r in rd.read_parquet(docs_shards).take_all()
        if r["doc_id"] in manifest_ids
    }
    packs = [
        pq.read_table(os.path.join(m.part_dir(k), f))
        for k in range(4)
        for f in sorted(os.listdir(m.part_dir(k)))
        if f.endswith(".parquet")
    ]
    import pyarrow as pa

    packs = pa.concat_tables(packs).to_pylist()
    assert s2["docs"] == sum(p["n_docs"] for p in packs) == len(manifest_ids)
    assert s2["packs"] == len(packs) > 0
    net_chars = sum(len(p["text"]) - 2 * (p["n_docs"] - 1) for p in packs)
    assert net_chars == sum(doc_chars.values())
    assert all(p["n_tokens"] <= 256 for p in packs if not p["overflow"])
    assert len({p["pack_id"] for p in packs}) == len(packs)

    # idempotent third run: nothing reruns
    s3 = run_export(docs_shards, out, manifest_path=man_dir,
                    capacity=256, n_shards=4)
    assert s3["shards_run"] == 0 and s3["selected_fresh"] is False
    assert s3["docs"] == s2["docs"]
    # a capacity change redoes ONLY the packing phase (select reused)
    s4 = run_export(docs_shards, out, manifest_path=man_dir,
                    capacity=128, n_shards=4)
    assert s4["selected_fresh"] is False and s4["shards_run"] == 4
    assert s4["docs"] == s2["docs"]


def test_pack_shard_task_coalesces_tiny_files(tmp_path):
    """The select phase writes one file per exchange block — at volume
    these were 11-row files and per-file packing left packs ~25% full.
    _pack_shard_task must coalesce rows across files up to batch_rows
    so NFD sees real units: near-capacity mean fill, exactly-once docs,
    globally-unique pack ids."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ollama_ocr_ray.state.runner import _pack_shard_task

    shard = tmp_path / "shard=0"
    shard.mkdir()
    did = 0
    for f in range(30):  # 30 tiny files x 10 docs x ~10 tokens
        ids = list(range(did, did + 10))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": ["tok " * 9 + "tok"] * 10}),
            str(shard / f"blk-{f:03d}.parquet"),
        )
        did += 10
    out = tmp_path / "out"
    stats = _pack_shard_task(str(shard), str(out), capacity=100)
    t = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(str(out / "*.parquet"))]
    )
    assert stats["docs"] == 300 and int(pc.sum(t.column("n_docs")).as_py()) == 300
    assert t.num_rows == stats["packs"]
    # 300 docs x 10 tokens / capacity 100 -> 30 full packs optimal;
    # per-file packing would emit 30 packs of 3.3 docs (fill 0.33)
    assert stats["packs"] <= 32
    nonov = t.filter(pc.invert(t.column("overflow")))
    assert float(pc.mean(nonov.column("n_tokens")).as_py()) >= 90
    assert len(set(t.column("pack_id").to_pylist())) == t.num_rows


def test_ingest_job_two_epochs_and_resume(ray_session, tmp_path):
    """CLI --job ingest over the interleaved corpus: epoch 0 dedups
    within itself (span-content identity) and snapshots the index;
    epoch 1 dedups new shards against the snapshot (old content drops,
    new survives); rerunning a finished epoch is a no-op resume."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.run import main

    def capture(argv):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(argv) == 0
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    # epoch 0: 30 interleaved docs with one internal content dup
    t0 = synth.gen_table(30, seed=3)
    ids = t0.column("doc_id").to_pylist()
    spans = t0.column("spans").to_pylist()
    spans[7] = spans[2]  # same content, different doc_id
    t0 = pa.table({"doc_id": pa.array(ids),
                   "spans": pa.array(spans, type=t0.schema.field("spans").type)})
    e0_in = tmp_path / "in0"
    e0_in.mkdir()
    pq.write_table(t0, e0_in / "part-0.parquet")
    e0_out = str(tmp_path / "epoch0")
    s0 = capture(["--input", str(e0_in), "--output", e0_out,
                  "--job", "ingest", "--index-shards", "3"])
    assert s0["input_docs"] == 30 and s0["kept"] == 29

    # resume: rerun returns the recorded summary, completion key untouched
    mtime = os.path.getmtime(os.path.join(e0_out, "ingest.json"))
    s0b = capture(["--input", str(e0_in), "--output", e0_out,
                   "--job", "ingest"])
    assert s0b == s0
    assert os.path.getmtime(os.path.join(e0_out, "ingest.json")) == mtime

    # epoch 1: 10 fresh-id docs, 3 of which repeat epoch-0 content
    t1 = synth.gen_table(10, seed=77)
    ids1 = [f"zz-{i:04d}" for i in range(10)]
    spans1 = t1.column("spans").to_pylist()
    for i in range(3):
        spans1[i] = spans[10 + i]
    t1 = pa.table({"doc_id": pa.array(ids1),
                   "spans": pa.array(spans1, type=t1.schema.field("spans").type)})
    e1_in = tmp_path / "in1"
    e1_in.mkdir()
    pq.write_table(t1, e1_in / "part-0.parquet")
    s1 = capture(["--input", str(e1_in), "--output",
                  str(tmp_path / "epoch1"), "--job", "ingest",
                  "--index", s0["index_dir"]])
    assert s1["input_docs"] == 10
    assert s1["kept"] == 7 and s1["dropped"] == 3
    assert s1["index_entries"] == 29 + 7


def test_ingest_all_duplicates_epoch_completes(ray_session, tmp_path):
    """The flagship use case's worst day: every input doc is already
    in history — the epoch must complete with an empty (but valid)
    data dir, not crash on the rename of a never-created tmp dir."""
    import json

    import pyarrow.parquet as pq

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.state.runner import run_ingest

    t = synth.gen_table(20, seed=5)
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "part-0.parquet")
    s0 = run_ingest(str(src), str(tmp_path / "e0"), n_shards=2)
    assert s0["kept"] == 20

    # same content, fresh ids -> 100% duplicates of history
    import pyarrow as pa

    t1 = pa.table({
        "doc_id": pa.array([f"new-{i}" for i in range(20)]),
        "spans": t.column("spans"),
    })
    src1 = tmp_path / "in1"
    src1.mkdir()
    pq.write_table(t1, src1 / "part-0.parquet")
    s1 = run_ingest(str(src1), str(tmp_path / "e1"),
                    index_path=s0["index_dir"])
    assert s1 == {"job": "ingest", "mode": "exact", "input_docs": 20,
                  "kept": 0, "dropped": 20, "index_entries": 20,
                  "index_dir": s1["index_dir"]}
    assert os.path.isdir(os.path.join(str(tmp_path / "e1"), "data"))
    # the completion key makes the rerun a no-op even with 0 rows
    assert run_ingest(str(src1), str(tmp_path / "e1"),
                      index_path=s0["index_dir"]) == s1


def test_ingest_refuses_another_epoch_in_its_output_dir(ray_session,
                                                         tmp_path):
    """The ingest record is keyed on what the epoch reads: the same
    arguments return the recorded summary, while other input, another
    mode or a record without a key raise instead of handing back the
    old epoch's summary as the new one; a snapshot left without a
    record is rebuilt, not reused."""
    import json

    import pyarrow.parquet as pq

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.state.runner import run_ingest

    def corpus(name, n, seed):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(synth.gen_table(n, seed=seed), d / "part-0.parquet")
        return str(d)

    a, b = corpus("a", 20, 5), corpus("b", 35, 6)
    out = str(tmp_path / "out")
    s0 = run_ingest(a, out, n_shards=2)
    assert s0["input_docs"] == 20
    assert run_ingest(a, out) == s0  # same key: the recorded summary
    with pytest.raises(ValueError, match="fresh output dir"):
        run_ingest(b, out)
    with pytest.raises(ValueError, match="fresh output dir"):
        run_ingest(a, out, mode="near")
    rec_path = os.path.join(out, "ingest.json")
    with open(rec_path) as f:
        rec = json.load(f)
    del rec["ingest_key"]  # a record written before the key existed
    with open(rec_path, "w") as f:
        json.dump(rec, f)
    with pytest.raises(ValueError, match="fresh output dir"):
        run_ingest(a, out)
    with pytest.raises(ValueError, match="own output snapshot"):
        run_ingest(a, out, index_path=os.path.join(out, "index"))
    # killed after the snapshot, before the record: another input's
    # rerun must not publish its data beside the leftover snapshot
    os.remove(rec_path)
    s1 = run_ingest(b, out)
    assert s1["input_docs"] == 35
    assert s1["index_entries"] == s1["kept"] == 35


def test_ingest_mixed_id_types_across_epochs(ray_session, tmp_path):
    """Epoch 0 with int64 ids (parquet corpus), epoch 1 with string ids
    (JSONL crawl shard): the snapshot must round-trip both id kinds and
    old content must drop regardless of id type."""
    import json

    import pyarrow as pa

    from ollama_ocr_ray.state.dedup_index import DedupIndex, ingest_dedup
    import ray.data as rd

    a = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(["alpha", "beta"])})
    idx = DedupIndex(n_shards=2)
    ingest_dedup(rd.from_arrow(a), idx).materialize()
    snap0 = str(tmp_path / "s0")
    assert idx.save(snap0) == 2

    idx1 = DedupIndex.load(snap0)
    b = pa.table({"doc_id": pa.array(["x1", "x2", "x3"]),
                  "text": pa.array(["alpha", "gamma", "gamma"])})
    kept = {r["doc_id"] for r in ingest_dedup(
        rd.from_arrow(b).repartition(2), idx1).take_all()}
    assert kept == {"x2"}
    snap1 = str(tmp_path / "s1")
    assert idx1.save(snap1) == 3  # 2 sealed ints + 1 new string winner

    idx2 = DedupIndex.load(snap1)
    sizes = idx2.sizes()
    assert sum(s for s, _ in sizes) == 3


def test_list_input_files_ignores_json_sidecars(tmp_path):
    """A .json metadata sidecar next to parquet parts is not data; a
    JSONL-only directory still reads JSONL."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ollama_ocr_ray.sources.io import list_input_files

    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(pa.table({"a": [1]}), d / "part-0.parquet")
    with open(d / "ingest.json", "w") as f:
        _json.dump({"meta": True}, f)
    files = list_input_files(str(d))
    assert files == [str(d / "part-0.parquet")]

    d2 = tmp_path / "t2"
    d2.mkdir()
    with open(d2 / "part-0.jsonl", "w") as f:
        f.write('{"a": 1}\n')
    with open(d2 / "state.json", "w") as f:
        _json.dump({"meta": True}, f)
    assert list_input_files(str(d2)) == [str(d2 / "part-0.jsonl")]


def _word_doc(rng, n=60):
    return " ".join(f"w{rng.randint(0, 5000):04d}" for _ in range(n))


def test_neardup_index_within_epoch(ray_session):
    """Planted mutated copies drop (min id wins), distinct docs all
    survive — the deterministic pairwise keep-rule."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        NearDupIndex,
        ingest_neardup,
    )

    rng = np.random.RandomState(13)
    texts, ids = [], []
    for g in range(10):                      # 10 near-dup pairs
        base = _word_doc(rng)
        words = base.split()
        words[5] = "CHANGED"
        texts += [base, " ".join(words)]
        ids += [2 * g, 2 * g + 1]
    for i in range(30):                      # 30 singles
        texts.append(_word_doc(rng))
        ids.append(100 + i)
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(texts)})
    index = NearDupIndex(n_shards=3)
    kept = {
        r["doc_id"]
        for r in ingest_neardup(
            rd.from_arrow(t).repartition(5), index, threshold=0.7
        ).take_all()
    }
    assert kept == {2 * g for g in range(10)} | {100 + i
                                                 for i in range(30)}


def test_neardup_hot_bucket_cap(ray_session):
    """r5 hot-bucket guard: a single-template corpus puts every doc in
    the same LSH mega-buckets (an unbounded candidate verify went
    quadratic at 1M docs — measured).  With a small cap the ingest
    must still be exact on template-IDENTICAL docs (the capped prefix
    is the min-id entries, which ARE their near-dups): one winner per
    identical group, distinct docs kept, saturation surfaced."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        NearDupIndex,
        ingest_neardup,
    )

    # 60 identical template docs (ids 0..59) + 20 distinct docs
    template = "nav header menu footer copyright about contact terms"
    rng = np.random.RandomState(29)
    texts = [template] * 60 + [_word_doc(rng) for _ in range(20)]
    ids = list(range(60)) + list(range(1000, 1020))
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(texts)})
    index = NearDupIndex(n_shards=3)
    stats: dict = {}
    kept = {
        r["doc_id"]
        for r in ingest_neardup(
            rd.from_arrow(t).repartition(7), index, threshold=0.7,
            stats=stats, hot_bucket_cap=4,
        ).take_all()
    }
    assert kept == {0} | set(range(1000, 1020))
    assert stats["n_saturated_bucket_probes"] > 0
    # and with the default generous cap: identical answer, no
    # saturation on this small corpus... (cap 4096 > 60 entries)
    index2 = NearDupIndex(n_shards=3)
    stats2: dict = {}
    kept2 = {
        r["doc_id"]
        for r in ingest_neardup(
            rd.from_arrow(t).repartition(3), index2, threshold=0.7,
            stats=stats2,
        ).take_all()
    }
    assert kept2 == kept
    assert stats2["n_saturated_bucket_probes"] == 0
    # cap of 1 would defeat the count>=2 candidate prefilter entirely
    with pytest.raises(ValueError, match="hot_bucket_cap"):
        ingest_neardup(rd.from_arrow(t), NearDupIndex(n_shards=2),
                       hot_bucket_cap=1)
    # the capped prefix must follow NUMERIC id order, not the encoded
    # string order ('i:9' > 'i:100' lexicographically): identical docs
    # with ids {9, 100..104} at cap 4 must still collapse onto 9 —
    # a lexicographic prefix would keep 100 as a second winner
    ids3 = [9, 100, 101, 102, 103, 104]
    t3 = pa.table({"doc_id": pa.array(ids3, type=pa.int64()),
                   "text": pa.array([template] * len(ids3))})
    kept3 = {
        r["doc_id"]
        for r in ingest_neardup(
            rd.from_arrow(t3).repartition(3), NearDupIndex(n_shards=2),
            threshold=0.7, hot_bucket_cap=4,
        ).take_all()
    }
    assert kept3 == {9}


def test_neardup_index_cross_epoch_save_load(ray_session, tmp_path):
    """Epoch 0 sealed + saved; epoch 1's mutated copies of history
    drop, fresh docs survive — through a snapshot round-trip."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        NearDupIndex,
        ingest_neardup,
    )

    rng = np.random.RandomState(29)
    old = [_word_doc(rng) for _ in range(8)]
    t0 = pa.table({"doc_id": pa.array(range(8), type=pa.int64()),
                   "text": pa.array(old)})
    idx = NearDupIndex(n_shards=2, num_perm=64, bands=16)
    ingest_neardup(rd.from_arrow(t0).repartition(2), idx)  # returns materialized
    snap = str(tmp_path / "nd-epoch0")
    assert idx.save(snap) > 0

    idx1 = NearDupIndex.load(snap)
    assert idx1.params["num_perm"] == 64
    texts1, ids1 = [], []
    for i in range(4):                      # mutated copies of history
        words = old[i].split()
        words[3] = "EDITED"
        texts1.append(" ".join(words))
        ids1.append(1000 + i)
    fresh = [_word_doc(rng) for _ in range(5)]
    texts1 += fresh
    ids1 += [2000 + i for i in range(5)]
    t1 = pa.table({"doc_id": pa.array(ids1, type=pa.int64()),
                   "text": pa.array(texts1)})
    kept = {
        r["doc_id"]
        for r in ingest_neardup(
            rd.from_arrow(t1).repartition(3), idx1, threshold=0.7
        ).take_all()
    }
    assert kept == {2000 + i for i in range(5)}


def test_neardup_seal_prunes_dropped_signatures(ray_session, tmp_path):
    """Review repro: a dropped doc's signature must NOT become history.
    Epoch 0: A and B near-dup -> B drops, only A exports.  Epoch 1: C
    is a near-dup of B but NOT of A -> C must SURVIVE (its only
    near-dup was never exported), and the snapshot must not contain
    B's signature."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        NearDupIndex,
        ingest_neardup,
    )

    rng = np.random.RandomState(41)
    a = _word_doc(rng, n=60)
    words = a.split()
    # B: A with 10 words changed (sim(A,B) high); C: B with 10 MORE
    # changed (sim(B,C) high, sim(A,C) lower)
    wb = list(words)
    for i in range(0, 10):
        wb[i] = f"B{i}"
    wc = list(wb)
    for i in range(30, 40):
        wc[i] = f"C{i}"
    b, c = " ".join(wb), " ".join(wc)

    idx = NearDupIndex(n_shards=2)
    t0 = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                   "text": pa.array([a, b])})
    kept0 = {r["doc_id"] for r in ingest_neardup(
        rd.from_arrow(t0).repartition(2), idx, threshold=0.6
    ).take_all()}
    assert kept0 == {1}  # B dropped
    snap = str(tmp_path / "nd")
    n_entries = idx.save(snap)
    # only A's signature persists: bands x 1 doc
    assert n_entries == idx.params["bands"]

    idx1 = NearDupIndex.load(snap)
    t1 = pa.table({"doc_id": pa.array([100], type=pa.int64()),
                   "text": pa.array([c])})
    kept1 = {r["doc_id"] for r in ingest_neardup(
        rd.from_arrow(t1).repartition(1), idx1, threshold=0.6
    ).take_all()}
    assert kept1 == {100}  # C survives: its only near-dup was B


def test_index_snapshot_kinds_not_interchangeable(ray_session, tmp_path):
    """Loading an exact snapshot as near-dup (or vice versa) fails
    with a clear error, not a KeyError deep in a remote task."""
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        DedupIndex,
        NearDupIndex,
        ingest_dedup,
    )

    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "text": pa.array(["x"])})
    idx = DedupIndex(n_shards=2)
    ingest_dedup(rd.from_arrow(t), idx).materialize()
    snap = str(tmp_path / "exact-snap")
    idx.save(snap)
    with pytest.raises(ValueError, match="not 'neardup'"):
        NearDupIndex.load(snap)


def test_ingest_job_near_mode(ray_session, tmp_path):
    """CLI --job ingest --dedup near: mutated copies of history drop
    across a snapshot; interleaved corpora shingle the canonical span
    rendering (an exact span re-ingest under fresh ids drops)."""
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ollama_ocr_ray.state.runner import run_ingest

    rng = np.random.RandomState(53)
    old = [_word_doc(rng) for _ in range(10)]
    e0 = tmp_path / "in0"
    e0.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(10), type=pa.int64()),
                  "text": pa.array(old)}),
        e0 / "part-0.parquet")
    s0 = run_ingest(str(e0), str(tmp_path / "o0"), mode="near",
                    n_shards=2)
    assert s0["mode"] == "near" and s0["kept"] == 10

    texts1 = []
    for i in range(4):
        w = old[i].split()
        w[2] = "EDIT"
        texts1.append(" ".join(w))
    texts1 += [_word_doc(rng) for _ in range(3)]
    e1 = tmp_path / "in1"
    e1.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(100, 107), type=pa.int64()),
                  "text": pa.array(texts1)}),
        e1 / "part-0.parquet")
    s1 = run_ingest(str(e1), str(tmp_path / "o1"), mode="near",
                    index_path=s0["index_dir"])
    assert s1["kept"] == 3 and s1["dropped"] == 4

    # the interleaved shape shingles a canonical span rendering: an
    # exact re-ingest of the same spans under fresh ids drops everything
    from ollama_ocr_ray import synth

    t2 = synth.gen_table(6, seed=1)
    e2 = tmp_path / "in2"
    e2.mkdir()
    pq.write_table(t2, e2 / "part-0.parquet")
    s2 = run_ingest(str(e2), str(tmp_path / "o2"), mode="near",
                    n_shards=2)
    assert s2["kept"] == 6
    import pyarrow as pa

    t3 = pa.table({"doc_id": pa.array([f"re-{i}" for i in range(6)]),
                   "spans": t2.column("spans")})
    e3 = tmp_path / "in3"
    e3.mkdir()
    pq.write_table(t3, e3 / "part-0.parquet")
    s3 = run_ingest(str(e3), str(tmp_path / "o3"), mode="near",
                    index_path=s2["index_dir"])
    assert s3["kept"] == 0 and s3["dropped"] == 6


def test_neardup_snapshot_sig_format_checked(ray_session, tmp_path):
    """A snapshot from a different signature format (or a bogus mode
    string) fails loudly, not deep in a map task."""
    import json

    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state.dedup_index import (
        NearDupIndex,
        ingest_neardup,
    )
    from ollama_ocr_ray.state.runner import run_ingest

    idx = NearDupIndex(n_shards=2)
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "text": pa.array(["hello world sample text"])})
    ingest_neardup(rd.from_arrow(t), idx)
    snap = str(tmp_path / "s")
    idx.save(snap)
    meta_path = os.path.join(snap, "index.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["sig_format"] = "u64raw"
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="sig|format"):
        NearDupIndex.load(snap)

    with pytest.raises(ValueError, match="unknown mode"):
        run_ingest("/tmp/nonexistent", str(tmp_path / "o"),
                   mode="NEAR")


def test_neardup_antijoin_droplist_path(ray_session, monkeypatch):
    """The apply pass switches to the co-partitioned anti-join when
    the epoch's droplist exceeds the driver bound; forcing the bound
    to zero must yield exactly the broadcast path's survivors."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ollama_ocr_ray.state import dedup_index as di

    rng = np.random.RandomState(7)
    texts, ids = [], []
    for g in range(6):                       # 6 near-dup pairs
        base = _word_doc(rng)
        words = base.split()
        words[2] = "CHANGED"
        texts += [base, " ".join(words)]
        ids += [2 * g, 2 * g + 1]
    for i in range(20):
        texts.append(_word_doc(rng))
        ids.append(100 + i)
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(texts)})

    def run():
        return {
            r["doc_id"]
            for r in di.ingest_neardup(
                rd.from_arrow(t).repartition(4),
                di.NearDupIndex(n_shards=3), threshold=0.7
            ).take_all()
        }

    want = run()                             # broadcast path
    monkeypatch.setattr(di, "_DROPLIST_DRIVER_MAX", 0)
    got = run()                              # anti-join path
    assert got == want
    assert want == {2 * g for g in range(6)} | {100 + i
                                                for i in range(20)}


def test_csv_summary_compat(ray_session, corpus_dir, tmp_path):
    """Reference-format CSV summary (K3 compat, r5): --csv analog
    writes one summary part per committed partition with the literal
    header file,engine,chars,pages,type; rows agree with the stats
    parquet (pages = span count, type pdf/image by multi-span); a
    resumed csv run fills the parts of earlier non-csv commits."""
    import csv

    out = str(tmp_path / "csvout")
    s = run_extract(corpus_dir, out, wave=2, ocr_concurrency=1,
                    csv_summary=True)
    csv_dir = os.path.join(out, "summary")
    parts = sorted(os.listdir(csv_dir))
    assert len(parts) == s["partitions_total"]
    rows = []
    for p in parts:
        with open(os.path.join(csv_dir, p), newline="") as f:
            r = csv.reader(f)
            header = next(r)
            assert header == ["file", "engine", "chars", "pages", "type"]
            rows.extend(r)
    assert len(rows) == s["docs"]
    stats_files = [
        os.path.join(out, d, f)
        for d in sorted(os.listdir(out)) if d.startswith("part-")
        for f in sorted(os.listdir(os.path.join(out, d)))
    ]
    stats = pads.dataset(stats_files).to_table(
        columns=["doc_id", "engine", "chars", "n_spans"])
    by_id = {r["doc_id"]: r for r in stats.to_pylist()}
    for file, engine, chars, pages, typ in rows:
        ref = by_id[file]
        assert engine == ref["engine"]
        assert int(chars) == ref["chars"]
        assert int(pages) == ref["n_spans"]
        assert typ == ("pdf" if ref["n_spans"] > 1 else "image")
    # resume coverage: partitions committed by a NON-csv run get their
    # summary parts on the next csv run (no silent holes)
    out2 = str(tmp_path / "csvout2")
    run_extract(corpus_dir, out2, max_partitions=1, wave=2,
                ocr_concurrency=1)
    assert not os.path.exists(os.path.join(out2, "summary"))
    s2 = run_extract(corpus_dir, out2, wave=2, ocr_concurrency=1,
                     csv_summary=True)
    parts2 = sorted(os.listdir(os.path.join(out2, "summary")))
    assert len(parts2) == s2["partitions_total"]

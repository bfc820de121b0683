"""The span-split plan (``pipelines.extract.PLANS["split"]``): stamped
explode, span-row extraction with tally rows, the count-completion fold
(``stages.reassemble.DocumentFold``), the probe that picks the plan, and
what happens when rows repeat, go missing or an actor dies."""

import gc
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd
from hypothesis import given, settings, strategies as st

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.pipelines import extract as px
from ollama_ocr_ray.pipelines.extract import (DocProbe, FusedExtractor,
                                              OcrPool, SpanRowExtractor,
                                              auto_pipeline, choose_plan)
from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA
from ollama_ocr_ray.sources.io import read_documents
from ollama_ocr_ray.stages.explode import explode_batch
from ollama_ocr_ray.stages.reassemble import DocumentFold


def _doc(doc_id: str, media: int, text: int = 2) -> dict:
    spans = [{"kind": "text", "text": f"t{i} of {doc_id}", "media_ref": "",
              "offset": i} for i in range(text)]
    spans += [{"kind": "media", "text": "", "media_ref":
               f"media://{doc_id}/{i}", "offset": text + i}
              for i in range(media)]
    return {"doc_id": doc_id, "spans": spans}


def _table(docs) -> pa.Table:
    return pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA)


def _skewed(heavy_media: int, light: int = 40) -> pa.Table:
    return _table([_doc(f"d{i:03d}", i % 2) for i in range(light)]
                  + [_doc("heavy", heavy_media)])


def _spans(tables) -> dict:
    return {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["order"])
                          for s in r["spans"]]
            for t in tables for r in t.to_pylist()}


def _drain(ds) -> list:
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


def _chunks(table: pa.Table, cuts) -> list:
    rows = explode_batch(table, stamp=True)
    bounds = [0, *sorted(c % (len(rows) + 1) for c in cuts), len(rows)]
    return [rows.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


@pytest.fixture(autouse=True)
def _release_pools():
    """A finished pipeline's actor pool is released only when the
    garbage collector breaks its reference cycles; collect before each
    test so its pools do not wait on an earlier test's.  The Ray cases
    also model OCR latency, which gives 0.25-CPU actors, not 1-CPU ones."""
    gc.collect()


# --- kernels, one process -------------------------------------------------
def test_explode_stamps_each_row_with_its_documents_row_count():
    table = synth.gen_table(30, seed=3)
    for offset_range in (None, (1, 4)):
        rows = explode_batch(table, offset_range=offset_range, stamp=True)
        counts = rows.group_by("doc_id").aggregate(
            [("doc_rows", "count"), ("doc_rows", "min"), ("doc_rows", "max")])
        for r in counts.to_pylist():
            assert r["doc_rows_count"] == r["doc_rows_min"] == r["doc_rows_max"]
        assert explode_batch(table, offset_range=offset_range).equals(
            rows.drop_columns(["doc_rows"]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30),
       cuts=st.lists(st.integers(0, 10**6), max_size=12),
       order=st.randoms(use_true_random=False),
       policy=st.sampled_from(["text", "multi"]))
def test_fold_reassembles_any_cut_in_any_order(seed, n, cuts, order, policy):
    """However the span rows are cut into actor calls and whatever order
    the calls come back in, the fold gives the fused plan's output."""
    table = synth.gen_table(n, seed=seed)
    extractor = SpanRowExtractor(policy=policy)
    outs = [extractor(c) for c in _chunks(table, cuts)]
    order.shuffle(outs)
    fold = DocumentFold()
    got = _spans([fold(o) for o in outs])
    assert got == _spans([FusedExtractor(policy=policy)(table)])


def test_fold_refuses_rows_delivered_twice():
    table = synth.gen_table(20, seed=5)
    outs = [SpanRowExtractor()(c) for c in _chunks(table, [17, 40])]
    fold = DocumentFold()
    fold(outs[0])
    fold(outs[1])
    with pytest.raises(ValueError, match="duplicate doc_id"):
        fold(outs[1])


def test_fold_never_emits_a_short_document():
    """A call whose rows never arrive leaves its documents out: every
    document that comes back is whole."""
    table = synth.gen_table(20, seed=6)
    outs = [SpanRowExtractor()(c) for c in _chunks(table, [25, 50])]
    fold = DocumentFold()
    got = _spans([fold(outs[0]), fold(outs[2])])
    want = oracle.extract_corpus(table)
    assert got and len(got) < len(want)
    assert all(got[d] == want[d] for d in got)


def test_two_stamps_for_one_doc_id_are_refused():
    table = _table([_doc("same", 1), _doc("same", 3)])
    with pytest.raises(ValueError, match="duplicate doc_id 'same'"):
        SpanRowExtractor()(explode_batch(table, stamp=True))


# --- the probe ------------------------------------------------------------
def test_choose_plan_splits_a_skewed_sample(ray_session):
    """260 media spans x 20 ms in one document (the benchmark's skew
    corpus) picks the split plan; the probe reports that document."""
    plan, probe = choose_plan(rd.from_arrow(_skewed(260)),
                              ocr_latency_ms=20.0, with_probe=True)
    assert plan == "split" and probe.media_max == 260
    # the same sample with free OCR has nothing to spread
    assert choose_plan(rd.from_arrow(_skewed(260))) == "fused"


def test_explicit_fused_plan_still_sizes_the_pool_from_the_probe(
        ray_session, tmp_path, monkeypatch):
    """A plan name overrides only the probe's choice: ``auto_pipeline``
    and ``run_extract`` both hand the probe's ``DocProbe`` to
    ``ocr_pool`` for an explicit ``"fused"``."""
    from ollama_ocr_ray.state.runner import run_extract

    probes = []
    pool_rule = px.ocr_pool

    def spy(probe, **kw):
        probes.append(probe)
        return pool_rule(probe, **kw)

    monkeypatch.setattr(px, "ocr_pool", spy)
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(_skewed(2, light=8), str(src / "part-00000.parquet"))
    plan, _ = auto_pipeline(read_documents(str(src)), plan="fused")
    assert plan == "fused" and isinstance(probes[-1], DocProbe)
    probes.clear()
    s = run_extract(str(src), str(tmp_path / "out"), plan="fused",
                    ocr_latency_ms=1.0, wave=1)
    assert s["plan"] == "fused"
    assert any(isinstance(p, DocProbe) for p in probes)


def test_choose_plan_keeps_a_uniform_sample_fused(ray_session):
    """At most 15 media spans x 10 ms per document (the shape of the
    resumable-job benchmark) stays on the fused plan."""
    table = _table([_doc(f"u{i}", i % 16) for i in range(200)])
    plan, probe = choose_plan(rd.from_arrow(table), ocr_latency_ms=10.0,
                              with_probe=True)
    assert plan == "fused" and probe.media_max == 15


def _heavy_at(row: int, n: int = 1024) -> pa.Table:
    """``n`` light documents (0 or 1 media span) with a 260-media one at
    ``row``, the benchmark's skew shape."""
    return _table([_doc(f"d{i:04d}", 260 if i == row else i % 2)
                   for i in range(n)])


def _no_ray_execution(monkeypatch) -> None:
    def refuse(*a, **kw):
        raise AssertionError("the probe ran a Ray Data execution")

    monkeypatch.setattr(rd.Dataset, "take_batch", refuse)


def test_parquet_probe_reads_the_head_in_file_order_without_ray(
        ray_session, tmp_path, monkeypatch):
    """The probe of a ``read_documents`` parquet input comes from the
    footers and head row groups on the driver: the same sample every
    call (the first 512 rows, holding the heavy document at row 300
    behind 64-row row groups), and no Ray Data execution."""
    table = _heavy_at(300)
    pq.write_table(table, str(tmp_path / "part-00000.parquet"),
                   row_group_size=64)
    media = sum(s["kind"] == "media" for r in
                table.slice(0, 512).column("spans").to_pylist() for s in r)
    _no_ray_execution(monkeypatch)
    for _ in range(5):
        assert choose_plan(read_documents(str(tmp_path)), ocr_latency_ms=20.0,
                           with_probe=True) \
            == ("split", DocProbe(512, 1024, media / 512, 260))


def test_parquet_probe_counts_every_file_and_samples_across_them(
        ray_session, tmp_path, monkeypatch):
    """Three 200-row files: the sample is files 1-2 and the first 112
    rows of file 3, so a heavy document at input row 450 is in it and
    one at row 550 is not; a 512-row input is counted exact."""
    _no_ray_execution(monkeypatch)
    for row, heavy in ((450, 260), (550, 1)):
        src = tmp_path / f"h{row}"
        src.mkdir()
        table = _heavy_at(row, 600)
        for i in range(3):
            pq.write_table(table.slice(200 * i, 200),
                           str(src / f"part-{i}.parquet"))
        _, probe = choose_plan(read_documents(str(src)), with_probe=True)
        assert (probe.docs, probe.total, probe.media_max) == (512, 600,
                                                               heavy)
    pq.write_table(_heavy_at(0, 512), str(tmp_path / "exact.parquet"))
    _, probe = choose_plan(read_documents(str(tmp_path / "exact.parquet")),
                           with_probe=True)
    assert (probe.docs, probe.total) == (512, 512)


def test_footer_probe_applies_only_to_the_dataset_read_documents_returned(
        ray_session, tmp_path):
    """A transformed Dataset is a new object: it is probed by the Ray
    sample (``take_batch`` runs), which sees its rows, not the files'."""
    pq.write_table(_heavy_at(300), str(tmp_path / "part-00000.parquet"))
    _, probe = choose_plan(read_documents(str(tmp_path)).limit(10),
                           with_probe=True)
    assert (probe.docs, probe.total) == (10, 10)


def test_jsonl_probe_samples_the_head_in_input_order(ray_session, tmp_path,
                                                     monkeypatch):
    """JSONL takes the Ray sample path, in input order: the block holding
    the heavy document (row 300) finishing last does not drop it from
    the sample, and the Dataset's own ordering setting is restored."""
    import json
    import time

    src = tmp_path / "in"
    src.mkdir()
    rows = _heavy_at(300).to_pylist()
    for i in range(8):      # one read task per 128-row file
        with open(src / f"part-{i}.jsonl", "w") as f:
            f.writelines(json.dumps(r) + "\n"
                         for r in rows[128 * i:128 * (i + 1)])
    calls = []
    take_batch = rd.Dataset.take_batch

    def spy(self, *a, **kw):
        calls.append(self)
        return take_batch(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "take_batch", spy)

    def slow_heavy_block(batch: pa.Table) -> pa.Table:
        if "d0300" in batch.column("doc_id").to_pylist():
            time.sleep(1.0)
        return batch

    docs = read_documents(str(src)).map_batches(
        slow_heavy_block, batch_format="pyarrow", batch_size=None)
    plan, probe = choose_plan(docs, ocr_latency_ms=20.0, with_probe=True)
    assert calls and (plan, probe.docs, probe.media_max) == ("split", 512,
                                                             260)
    assert docs.context.execution_options.preserve_order is False


def test_mistyped_parquet_spans_fail_before_any_pipeline_runs(
        ray_session, tmp_path, monkeypatch):
    """The footer probe validates each sampled file's schema: a ``spans``
    column of strings, or of lists without a ``kind`` field, raises
    ``ValueError`` from ``auto_pipeline`` before a plan is built or
    anything runs on Ray."""
    _no_ray_execution(monkeypatch)

    def refuse(*a, **kw):
        raise AssertionError("a pipeline was built")

    for name in px.PLANS:
        monkeypatch.setitem(px.PLANS, name, refuse)
    for i, (spans, error) in enumerate((
            (["x", "y"], "'spans' has type string"),
            ([["x"], ["y"]], "'spans' has no 'kind' field"))):
        src = tmp_path / f"bad{i}"
        src.mkdir()
        pq.write_table(pa.table({"doc_id": ["a", "b"], "spans": spans}),
                       str(src / "part-00000.parquet"))
        with pytest.raises(ValueError, match=error):
            auto_pipeline(read_documents(str(src)))


def test_fused_pool_over_a_long_parquet_input_is_sized_from_its_footers(
        ray_session, tmp_path):
    """Past the 512-doc sample, the probe carries the footers' count
    (``total``), so ``ocr_pool`` sizes the fused pool from the whole
    input's work instead of giving it the actor cap; the split plan
    keeps the sample."""
    pq.write_table(_heavy_at(300), str(tmp_path / "part-00000.parquet"))
    ds = read_documents(str(tmp_path))
    plan, probe = px.resolve_plan(ds, "fused", ocr_latency_ms=20.0)
    assert (plan, probe.docs, probe.total) == ("fused", 512, 1024)
    whole = probe._replace(docs=1024)
    assert px.ocr_pool(probe, ocr_latency_ms=20.0) \
        == px.ocr_pool(whole, ocr_latency_ms=20.0) \
        != px.ocr_pool(probe._replace(total=None), ocr_latency_ms=20.0)
    plan, probe = px.resolve_plan(ds, None, ocr_latency_ms=20.0)
    assert (plan, probe.docs, probe.total) == ("split", 512, 1024)
    assert px.ocr_pool(probe, ocr_latency_ms=20.0, plan="split") \
        == px.ocr_pool(probe._replace(total=None), ocr_latency_ms=20.0,
                       plan="split")


# --- the plan on Ray ------------------------------------------------------
def test_split_pipeline_matches_oracle(ray_session):
    table = synth.gen_table(200, seed=42)    # holds 230-media documents
    plan, out = auto_pipeline(rd.from_arrow(table).repartition(3),
                              plan="split", with_stats=True)
    tables = _drain(out)
    assert plan == "split"
    assert _spans(tables) == oracle.extract_corpus(table)
    stats = pa.concat_tables(tables).sort_by("doc_id")
    want = FusedExtractor(with_stats=True)(table).sort_by("doc_id")
    assert stats.drop_columns(["ocr_ms"]).equals(
        want.drop_columns(["ocr_ms"]))


def test_doc_id_shared_by_two_input_files_is_refused(ray_session, tmp_path):
    for i in range(2):
        docs = [_doc(f"f{i}-{j}", 1) for j in range(30)]
        pq.write_table(_table(docs + [_doc("dup-1", 3 + i)]),
                       str(tmp_path / f"part-{i}.parquet"))
    _, out = auto_pipeline(read_documents(str(tmp_path)), plan="split")
    # the fold's ValueError reaches the caller wrapped by Ray Data
    with pytest.raises(Exception, match="duplicate doc_id 'dup-1'"):
        _drain(out)


def test_run_extract_picks_and_reports_the_split_plan(ray_session, tmp_path):
    """Each partition decides from its own probe: a uniform file runs
    fused, and the file after it, whose heaviest document passes the
    probe's threshold, runs split.  Each record says its plan, the
    summary both, and each part matches the oracle."""
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    latency = 10.0
    heavy = int(px._SPLIT_DOC_S * 1e3 / latency) + 1
    tables = [_table([_doc(f"u{i:03d}", i % 2) for i in range(40)]),
              _skewed(heavy)]
    src = tmp_path / "in"
    src.mkdir()
    for pid, table in enumerate(tables):
        pq.write_table(table, str(src / f"part-{pid:05d}.parquet"))
    out = str(tmp_path / "out")
    s = run_extract(str(src), out, plan="auto",
                    ocr_latency_ms=latency, wave=1)
    assert (s["plan"], s["docs"]) == ("fused+split", 81)
    assert [(r["plan"], r["docs"]) for r in Manifest(out).records()] \
        == [("fused", 40), ("split", 41)]
    for pid, table in enumerate(tables):
        got = pq.read_table(os.path.join(out, f"part-{pid:05d}"))
        assert _spans([got.select(["doc_id", "spans"])]) \
            == oracle.extract_corpus(table)


def test_partition_that_loses_a_document_is_not_committed(
        ray_session, tmp_path, monkeypatch):
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    fused = px.PLANS["fused"]

    def lossy(ds, pool, **kw):
        return fused(ds, pool, **kw).filter(lambda r: r["doc_id"] != "d003")

    monkeypatch.setitem(px.PLANS, "fused", lossy)
    (tmp_path / "in").mkdir()
    pq.write_table(_skewed(2), str(tmp_path / "in" / "part-00000.parquet"))
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="extracted 40 of 41 documents"):
        run_extract(str(tmp_path / "in"), out, plan="fused",
                    ocr_latency_ms=1.0, wave=1)
    assert Manifest(out).records() == []


def test_doc_id_repeated_across_fused_batches_is_refused(ray_session,
                                                         tmp_path):
    """The fused plan refuses a repeated ``doc_id`` only inside one
    batch; a repeat in two batches of one partition is refused at the
    commit, naming the id, and nothing commits."""
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    table = _table([_doc(f"d{i:03d}", i % 2) for i in range(40)]
                   + [_doc("d000", 1)])
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(table, str(src / "part-00000.parquet"))
    latency = 20.0
    plan, probe = px.resolve_plan(read_documents(str(src)), None,
                                  ocr_latency_ms=latency)
    pool = px.ocr_pool(probe, ocr_latency_ms=latency, plan=plan)
    assert plan == "fused" and -(-table.num_rows // pool.batch_size) >= 2
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError,
                       match="duplicate doc_id 'd000' in the partition"):
        run_extract(str(src), out, ocr_latency_ms=latency, wave=1)
    assert Manifest(out).records() == []


def test_failed_partitions_raise_together_and_rerun_redoes_them(
        ray_session, tmp_path, monkeypatch):
    """Two of three partitions lose a document: the good one commits,
    one RuntimeError names both failed files (chained to the first
    failure), and the rerun redoes only those two."""
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    fused = px.PLANS["fused"]

    def lossy(ds, pool, **kw):
        return fused(ds, pool, **kw).filter(
            lambda r: r["doc_id"] not in ("a1", "c1"))

    monkeypatch.setitem(px.PLANS, "fused", lossy)
    src = tmp_path / "in"
    src.mkdir()
    for name in "abc":
        pq.write_table(_table([_doc(f"{name}{i}", i % 2) for i in range(4)]),
                       str(src / f"part-{name}.parquet"))
    out = str(tmp_path / "out")
    kw = dict(plan="fused", ocr_latency_ms=1.0, wave=3)
    with pytest.raises(RuntimeError, match="2 extract partition") as err:
        run_extract(str(src), out, **kw)
    assert "part-a.parquet" in str(err.value)
    assert "part-c.parquet" in str(err.value)
    assert "extracted 3 of 4 documents" in str(err.value.__cause__)
    assert [r["input_file"] for r in Manifest(out).records()] \
        == [str(src / "part-b.parquet")]
    monkeypatch.setitem(px.PLANS, "fused", fused)
    s = run_extract(str(src), out, **kw)
    assert (s["partitions_run"], s["partitions_skipped"], s["docs"]) \
        == (2, 1, 8)
    assert [r["docs"] for r in Manifest(out).records()] == [4, 4, 4]


# --- actor death ----------------------------------------------------------
def test_killed_fold_actor_fails_the_job(ray_session, monkeypatch):
    """The fold holds the only copy of the documents in flight: when its
    actor dies the job fails, it never restarts on an empty table."""

    class DyingFold(DocumentFold):
        def __call__(self, batch):
            if self._emitted:  # after its first output
                os._exit(1)
            return super().__call__(batch)

    monkeypatch.setattr(px, "DocumentFold", DyingFold)
    out = px.PLANS["split"](rd.from_arrow(_skewed(60)), OcrPool(2, 0.25, 16),
                            latency_ms=1.0)
    with pytest.raises(ray.exceptions.ActorDiedError, match="DyingFold"):
        _drain(out)


def test_killed_span_actor_gives_identical_output_or_fails(ray_session,
                                                           tmp_path):
    """An extraction actor that dies mid-call is restarted and its call
    retried: the output is the oracle's, or, if the retry delivered rows
    twice, the fold refuses them.  It never comes back short."""
    marker = str(tmp_path / "killed")

    def model(payloads):
        from ollama_ocr_ray.spec import mock_transcript

        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return [mock_transcript(p) for p in payloads]

    table = _skewed(60)
    out = px.PLANS["split"](rd.from_arrow(table), OcrPool(2, 0.25, 16),
                            latency_ms=1.0, model=model)
    try:
        got = _spans(_drain(out))
    except Exception as e:  # noqa: BLE001 - Ray Data wraps the ValueError
        assert "duplicate doc_id" in str(e)
    else:
        assert got == oracle.extract_corpus(table)
    assert os.path.exists(marker)

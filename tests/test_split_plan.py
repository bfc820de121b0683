"""The span-split plan (``pipelines.extract.split_pipeline``): stamped
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
from ollama_ocr_ray.pipelines.extract import (FusedExtractor,
                                              SpanRowExtractor, auto_pipeline,
                                              choose_plan, split_pipeline)
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


def test_choose_plan_keeps_a_uniform_sample_fused(ray_session):
    """At most 15 media spans x 10 ms per document (the shape of the
    resumable-job benchmark) stays on the fused plan."""
    table = _table([_doc(f"u{i}", i % 16) for i in range(200)])
    plan, probe = choose_plan(rd.from_arrow(table), ocr_latency_ms=10.0,
                              with_probe=True)
    assert plan == "fused" and probe.media_max == 15


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
    """A one-file job whose heaviest document passes the probe's
    threshold runs the split plan, reports it and matches the oracle."""
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    latency = 10.0
    heavy = int(1.5 * px._SPLIT_DOC_S * 1e3 / latency)
    table = _skewed(heavy)
    (tmp_path / "in").mkdir()
    pq.write_table(table, str(tmp_path / "in" / "part-00000.parquet"))
    out = str(tmp_path / "out")
    s = run_extract(str(tmp_path / "in"), out, plan="auto",
                    ocr_latency_ms=latency, wave=1)
    assert (s["plan"], s["docs"]) == ("split", table.num_rows)
    assert [r["docs"] for r in Manifest(out).records()] == [table.num_rows]
    got = pq.read_table(os.path.join(out, "part-00000"))
    assert _spans([got.select(["doc_id", "spans"])]) \
        == oracle.extract_corpus(table)


def test_partition_that_loses_a_document_is_not_committed(
        ray_session, tmp_path, monkeypatch):
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    fused = px.PLANS["fused"]

    def lossy(ds, **kw):
        return fused(ds, **kw).filter(lambda r: r["doc_id"] != "d003")

    monkeypatch.setitem(px.PLANS, "fused", lossy)
    (tmp_path / "in").mkdir()
    pq.write_table(_skewed(2), str(tmp_path / "in" / "part-00000.parquet"))
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="extracted 40 of 41 documents"):
        run_extract(str(tmp_path / "in"), out, plan="fused",
                    ocr_latency_ms=1.0, wave=1)
    assert Manifest(out).records() == []


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
    out = split_pipeline(rd.from_arrow(_skewed(60)), batch_size=16,
                         concurrency=2, ocr_latency_ms=1.0)
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
    out = split_pipeline(rd.from_arrow(table), batch_size=16, concurrency=2,
                         ocr_latency_ms=1.0, model=model)
    try:
        got = _spans(_drain(out))
    except Exception as e:  # noqa: BLE001 - Ray Data wraps the ValueError
        assert "duplicate doc_id" in str(e)
    else:
        assert got == oracle.extract_corpus(table)
    assert os.path.exists(marker)

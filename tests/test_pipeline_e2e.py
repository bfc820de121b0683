"""End-to-end span-sequence equality of the Ray pipelines vs the
sequential oracle (SURVEY.md §5.2.2-4): the fused plan on an explicit
pool and through ``auto_pipeline``'s probe-sized pool, and structural
invariants."""

import pytest
import ray.data as rd

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.pipelines.extract import (
    PLANS,
    OcrPool,
    auto_pipeline,
    summary_table,
)

N_DOCS = 300
SEED = 42


def _collect(ds):
    import pyarrow as pa

    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(tables)


def _spans_map(table):
    out = {}
    for r in table.to_pylist():
        out[r["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in r["spans"]
        ]
    return out


@pytest.fixture(scope="module")
def corpus():
    return synth.gen_table(N_DOCS, seed=SEED)


@pytest.fixture(scope="module")
def expected(corpus):
    return oracle.extract_corpus(corpus)


def test_auto_pipeline_matches_oracle(ray_session, corpus, expected):
    ds = rd.from_arrow(corpus).repartition(8)
    plan, out = auto_pipeline(ds, ocr_concurrency=2)
    assert plan == "fused"
    got = _spans_map(_collect(out))
    assert set(got) == set(expected)
    for doc_id in expected:
        assert got[doc_id] == expected[doc_id], doc_id


def test_fused_pipeline_matches_oracle(ray_session, corpus, expected):
    ds = rd.from_arrow(corpus).repartition(8)
    out = PLANS["fused"](ds, OcrPool(2, 1, 32))
    got = _spans_map(_collect(out))
    assert got == expected


def test_structural_invariants(ray_session, corpus, expected):
    """Property-style checks: no doc lost/duplicated; order dense and
    strictly increasing; media spans preserved 1:1."""
    ds = rd.from_arrow(corpus)
    out = _collect(auto_pipeline(ds, plan="fused")[1])
    ids = out.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids)) == N_DOCS
    for r in out.to_pylist():
        orders = [s["order"] for s in r["spans"]]
        assert orders == list(range(len(orders)))
    n_media_in = sum(
        sum(s["kind"] == "media" for s in r["spans"]) for r in corpus.to_pylist()
    )
    n_media_out = sum(
        sum(s["kind"] in ("ocr", "error") for s in r["spans"])
        for r in out.to_pylist()
    )
    assert n_media_in == n_media_out


def test_summary_table(ray_session, corpus, expected):
    ds = rd.from_arrow(corpus)
    _, stats = auto_pipeline(ds, plan="fused", with_stats=True)
    summ = _collect(summary_table(stats))
    assert len(summ) == N_DOCS
    by_id = {r["doc_id"]: r for r in summ.to_pylist()}
    for doc_id, spans in expected.items():
        row = by_id[doc_id]
        assert row["spans"] == len(spans)
        assert row["chars"] == sum(len(s[1]) for s in spans)
        assert row["errors"] == sum(1 for s in spans if s[0] == "error")
        assert row["engine"] == (spans[0][0] if spans else "")


def test_stats_agree_across_plans(ray_session, corpus):
    """The plan reports stats for every document, and charges OCR
    latency only to documents that have media spans (per-document stat
    values are checked against the oracle in test_summary_table)."""
    got = {r["doc_id"]: r for r in _collect(
        PLANS["fused"](rd.from_arrow(corpus), OcrPool(2, 1, 32),
                       with_stats=True).select_columns(
            ["doc_id", "ocr_ms"])
    ).to_pylist()}
    assert set(got) == set(corpus["doc_id"].to_pylist())
    for doc in corpus.to_pylist():
        if not any(s["kind"] == "media" for s in doc["spans"]):
            assert got[doc["doc_id"]]["ocr_ms"] == 0.0, doc["doc_id"]


def test_very_wide_doc(ray_session):
    """SURVEY §7.3: a single doc with 10k media spans must flow through
    the plan without blowing a block and reassemble exactly; it shares
    its input batch with a small document."""
    import ray.data as rd

    import pyarrow as pa

    from ollama_ocr_ray.oracle import extract_document
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA

    n = 10_000
    doc = {
        "doc_id": "wide-1",
        "spans": [
            {"kind": "media", "text": "", "media_ref": f"media://wide/{i}",
             "offset": i}
            for i in range(n)
        ],
    }
    small = {
        "doc_id": "tiny-1",
        "spans": [{"kind": "text", "text": " ok ", "media_ref": "",
                   "offset": 0}],
    }
    table = pa.Table.from_pylist([doc, small], schema=DOCUMENTS_SCHEMA)
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused",
                           ocr_concurrency=4)
    rows = {
        r["doc_id"]: r["spans"]
        for b in out.iter_batches(batch_size=None, batch_format="pyarrow")
        for r in b.to_pylist()
    }
    assert len(rows["wide-1"]) == n
    want = extract_document(doc)["spans"]
    assert rows["wide-1"] == want          # exact order
    assert rows["tiny-1"][0]["text"] == "ok"


def test_auto_plan_empty_corpus(ray_session):
    import ray.data as rd

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.pipelines.extract import auto_pipeline

    empty = rd.from_arrow(synth.gen_table(0))
    plan, out = auto_pipeline(empty, ocr_latency_ms=5.0)
    assert plan == "fused"
    n = sum(b.num_rows
            for b in out.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert n == 0


def test_removed_plan_raises(tmp_path):
    """The canonical plan is gone: naming it (or any plan but the one)
    fails loudly before any work, in the pipeline and in the runner."""
    from ollama_ocr_ray.state.runner import run_extract

    with pytest.raises(ValueError, match="'canonical' was removed"):
        auto_pipeline(None, plan="canonical")
    with pytest.raises(ValueError, match="'canonical' was removed"):
        run_extract(str(tmp_path), str(tmp_path / "out"), plan="canonical")

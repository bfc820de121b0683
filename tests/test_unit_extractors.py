"""Unit tests: per-operator, table-in/table-out, no Ray needed.

Each operator is checked against hand-built inputs AND against the
independently-written oracle on random payloads (SURVEY.md §5.2.1/5).
"""

import random
import time

import pyarrow as pa
import pytest

from ollama_ocr_ray import oracle, spec, synth
from ollama_ocr_ray.stages.explode import DOC_SENTINEL, explode_batch
from ollama_ocr_ray.stages.extract import extract_batch
from ollama_ocr_ray.stages.html_extract import extract_html_stage
from ollama_ocr_ray.stages.ocr import OcrModel
from ollama_ocr_ray.stages.pdf_parse import parse_pdf_stage
from ollama_ocr_ray.pipelines.extract import FusedExtractor
from ollama_ocr_ray.stages.reassemble import reassemble_sorted_block


# --- HTML -------------------------------------------------------------------
def test_html_boilerplate_pruned():
    m = ("<html><body><nav><a href='/'>home is where all the links go "
         "and they go on and on</a></nav>"
         "<p>this paragraph is long enough to pass the minimum block "
         "size filter easily</p></body></html>")
    assert extract_html_stage(m) == [
        "this paragraph is long enough to pass the minimum block size filter easily"
    ]


def test_html_link_density_drop():
    m = ("<p><a>many linked words here filling space</a> "
         "<a>and even more linked words</a> tail</p>")
    assert extract_html_stage(m) == []


def test_html_short_block_dropped_heading_kept():
    m = "<h2>Tiny</h2><p>too short</p>"
    assert extract_html_stage(m) == ["Tiny"]


def test_html_entities_and_inline_markup():
    m = "<p>alpha &amp; beta <b>gamma</b> delta padded to minimum length ok</p>"
    out = extract_html_stage(m)
    assert out == ["alpha & beta gamma delta padded to minimum length ok"]


def test_html_nested_blocks_leaf_only():
    m = ("<blockquote>intro words <p>the inner paragraph is long enough "
         "to be kept by the filter</p></blockquote>")
    assert extract_html_stage(m) == [
        "the inner paragraph is long enough to be kept by the filter"
    ]


def test_html_self_closing_block_is_a_block_child():
    """Spec step 3: ``<p/>`` is a block descendant, so the cell holding
    it is no leaf block and is dropped."""
    m = "<td><p/>table cell text that is long enough to keep</td>"
    assert extract_html_stage(m) == oracle.extract_html(m) == []


def test_html_link_around_block_is_not_link_text():
    """Spec step 4: only an <a> inside the block makes link text; a
    link wrapping the whole block (a card) does not."""
    m = '<a href="/x"><p>a card title that is long enough to keep</p></a>'
    assert extract_html_stage(m) == oracle.extract_html(m) == [
        "a card title that is long enough to keep"
    ]


def test_html_stage_matches_oracle_random():
    rng = random.Random(1234)
    for _ in range(200):
        m = synth._html_payload(rng)
        assert extract_html_stage(m) == oracle.extract_html(m)


def test_html_deep_nest_matches_oracle():
    """50,000 nested <div>s: neither side recurses per level."""
    m = "<div>" * 50_000 + "<p>" + "deeply nested words " * 3 + "</p>"
    assert extract_html_stage(m) == oracle.extract_html(m) == [
        "deeply nested words deeply nested words deeply nested words"]


def _best_time(fn, markup, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn(markup)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_html_hostile_pages_read_in_one_pass():
    """Pages on which a tokenizer that rescans from every "<" turns
    quadratic.  20,000 unclosed <script> tags: the regex reads them in
    one pass (the first one's raw text runs to the end, as in
    HTMLParser), where a rescan takes over 10 s.  7,000 unclosed
    comments go to the HTMLParser fallback, which is itself quadratic
    on them (the oracle as well): the stage may add no rescan of its
    own to that cost, where one would triple it."""
    script = "<p>" + "<script>" * 20_000
    out, secs = _best_time(extract_html_stage, script)
    assert out == oracle.extract_html(script) == []
    assert secs < 1.0, secs

    comments = "<p>" + "<!--" * 7_000
    out, secs = _best_time(extract_html_stage, comments)
    want, oracle_secs = _best_time(oracle.extract_html, comments)
    assert out == want
    assert secs < 2 * oracle_secs + 0.05, (secs, oracle_secs)


# --- PDF --------------------------------------------------------------------
def test_pdf_block_order_and_pages():
    payload = "2|10|0|second page\n1|20|5|b\n1|10|0|a\n1|20|0|ab\nnoise\n1|5|0|"
    assert parse_pdf_stage(payload) == ["a\nab\nb", "second page"]


def test_pdf_stage_matches_oracle_random():
    rng = random.Random(99)
    for _ in range(200):
        p = synth._pdf_payload(rng)
        assert parse_pdf_stage(p) == oracle.extract_pdf(p)


# --- OCR actor --------------------------------------------------------------
def _span_batch(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows]),
            "offset": pa.array([r[1] for r in rows], type=pa.int32()),
            "sub": pa.array([0] * len(rows), type=pa.int32()),
            "kind": pa.array([r[2] for r in rows]),
            "text": pa.array([r[3] for r in rows]),
            "media_ref": pa.array([r[4] for r in rows]),
        }
    )


def test_ocr_actor_transcribes_and_errors():
    model = OcrModel()
    batch = _span_batch(
        [
            ("d1", 0, "media", "", "media://d1/0"),
            ("d1", 1, "media", "", "media://d1/1#corrupt"),
            ("d1", 2, "text", "keep me", ""),
        ]
    )
    out = model(batch)
    rows = {r["offset"]: r for r in out.to_pylist()}
    assert rows[0]["kind"] == "ocr"
    assert rows[0]["text"] == spec.mock_transcript("media://d1/0")
    assert rows[1]["kind"] == "error"
    assert rows[1]["text"] == spec.ERROR_TEXT
    assert rows[1]["media_ref"] == "media://d1/1#corrupt"
    assert rows[2]["kind"] == "text" and rows[2]["text"] == "keep me"
    assert "ocr_ms" in out.column_names


# --- explode / extract / reassemble round trip ------------------------------
def test_explode_emits_sentinels_and_spans():
    t = synth.gen_table(5, seed=42)
    ex = explode_batch(t)
    kinds = ex.column("kind").to_pylist()
    assert kinds.count(DOC_SENTINEL) == 5
    n_spans = sum(len(r["spans"]) for r in t.to_pylist())
    assert len(ex) == n_spans + 5


def test_batch_roundtrip_matches_oracle():
    t = synth.gen_table(40, seed=7)
    spans = OcrModel()(extract_batch(explode_batch(t)))
    got = {
        row["doc_id"]: [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in row["spans"]
        ]
        for row in reassemble_sorted_block(spans).to_pylist()
    }
    assert got == oracle.extract_corpus(t)


def test_empty_doc_preserved():
    t = pa.Table.from_pylist(
        [
            {
                "doc_id": "d-empty",
                "spans": [
                    {"kind": "text", "text": "   ", "media_ref": "", "offset": 0}
                ],
            }
        ],
        schema=synth.DOCUMENTS_SCHEMA,
    )
    spans = OcrModel()(extract_batch(explode_batch(t)))
    row = reassemble_sorted_block(spans).to_pylist()[0]
    assert row["doc_id"] == "d-empty" and row["spans"] == []


# --- generator determinism --------------------------------------------------
def test_synth_deterministic_and_order_independent():
    a = synth.make_doc(17, seed=42)
    b = synth.make_doc(17, seed=42)
    assert a == b
    t1 = synth.gen_table(10, seed=42)
    t2 = synth.gen_table(5, seed=42, start=5)
    assert t1.slice(5, 5).to_pylist() == t2.to_pylist()


def test_corpus_has_all_fixture_features():
    t = synth.gen_table(400, seed=42)
    kinds, corrupt, heavy = set(), 0, 0
    for r in t.to_pylist():
        n_media = 0
        for s in r["spans"]:
            kinds.add(s["kind"])
            if s["kind"] == "media":
                n_media += 1
                if s["media_ref"].endswith(spec.CORRUPT_SUFFIX):
                    corrupt += 1
        if n_media >= 200:
            heavy += 1
    assert kinds == {"html", "pdf", "text", "media"}
    assert corrupt > 0 and heavy > 0


def _three_way_spans(doc: dict) -> list[list[dict]]:
    """One document's output spans from the oracle, the kernel's stages
    run one by one (span rows, then reassembly) and ``FusedExtractor``."""
    t = pa.Table.from_pylist([doc], schema=synth.DOCUMENTS_SCHEMA)
    spans = OcrModel()(extract_batch(explode_batch(t)))
    return [
        oracle.extract_document(doc)["spans"],
        reassemble_sorted_block(spans).to_pylist()[0]["spans"],
        FusedExtractor()(t).to_pylist()[0]["spans"],
    ]


def test_duplicate_doc_id_in_one_batch_raises():
    """Two input rows with one doc_id would get colliding span ranks and
    merge into one interleaved document: the extraction stage refuses
    the batch and names the id."""
    rows = [
        {"doc_id": "d-dup", "spans": [{"kind": "text", "text": "first",
                                        "media_ref": "", "offset": 0}]},
        {"doc_id": "d-ok", "spans": []},
        {"doc_id": "d-dup", "spans": [{"kind": "text", "text": "second",
                                        "media_ref": "", "offset": 0}]},
    ]
    t = pa.Table.from_pylist(rows, schema=synth.DOCUMENTS_SCHEMA)
    with pytest.raises(ValueError, match="duplicate doc_id 'd-dup'"):
        FusedExtractor()(t)
    assert FusedExtractor()(t.slice(0, 2)).num_rows == 2


def test_unknown_kind_becomes_error_span_everywhere():
    """Unknown span kinds yield the same inline error span in oracle,
    the kernel's stages, and fused extractor (found by a verify probe)."""
    doc = {
        "doc_id": "d-bad",
        "spans": [{"kind": "video", "text": "", "media_ref": "m://x", "offset": 0}],
    }
    expected = [
        {
            "kind": "error",
            "text": spec.unsupported_text("video"),
            "media_ref": "m://x",
            "order": 0,
        }
    ]
    assert _three_way_spans(doc) == [expected] * 3


def test_shared_offset_keeps_input_order_everywhere():
    """Spans of one document that share an offset keep their input
    order on every path, whatever their kinds: the per-kind extraction
    groups rows by kind, and offset ties must not fall back to that
    grouping."""
    doc = {
        "doc_id": "d-tie",
        "spans": [
            {"kind": "text", "text": "last", "media_ref": "", "offset": 5},
            {"kind": "text", "text": "first", "media_ref": "", "offset": 0},
            {"kind": "media", "text": "", "media_ref": "media://a/0",
             "offset": 0},
        ],
    }
    for spans in _three_way_spans(doc):
        assert [(s["kind"], s["order"]) for s in spans] == [
            ("text", 0), ("ocr", 1), ("text", 2)]
        assert (spans[0]["text"], spans[2]["text"]) == ("first", "last")

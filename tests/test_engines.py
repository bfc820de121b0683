"""Real-engine adapter tests (VERDICT r2 #7): the named adapters
construct cheaply without their engine packages, fail loudly at first
inference when a dependency is missing, and the ``--model`` CLI flag
drives the full injection path (resolve → actor ctor → batched
``infer_texts``) end-to-end with the deterministic demo engine."""

import json
import os

import pyarrow.dataset as pads
import pytest

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.stages.engines import (DemoHashModel, OllamaModel,
                                           TesseractModel, TrOCRModel,
                                           resolve_model)


def test_resolve_model_named():
    assert resolve_model(None) is None
    assert resolve_model("") is None
    assert resolve_model("mock") is None
    assert isinstance(resolve_model("demo"), DemoHashModel)
    # construction never imports engine packages (pickle-cheap rule):
    # these succeed even though pytesseract/torch/ollama are absent here
    t = resolve_model("tesseract:deu")
    assert isinstance(t, TesseractModel) and t.lang == "deu"
    tr = resolve_model("trocr:microsoft/trocr-base-printed")
    assert isinstance(tr, TrOCRModel)
    assert tr.model_name == "microsoft/trocr-base-printed"
    ol = resolve_model("ollama:llava")
    assert isinstance(ol, OllamaModel) and ol.model_name == "llava"


def test_resolve_model_dotted_and_errors():
    m = resolve_model("ollama_ocr_ray.stages.engines:DemoHashModel")
    assert isinstance(m, DemoHashModel)
    with pytest.raises(ValueError, match="unknown model spec"):
        resolve_model("nonsense")
    with pytest.raises(ValueError, match="cannot resolve"):
        resolve_model("ollama_ocr_ray.stages.engines:NoSuchThing")


def test_import_guards_fail_loudly():
    """Without the engine packages, first inference raises an
    ImportError NAMING the missing package (not a bare ModuleNotFound
    deep in a worker stack)."""
    for cls, pkg in ((TesseractModel, "pytesseract"),
                     (TrOCRModel, "torch"),
                     (OllamaModel, "ollama")):
        try:
            __import__(pkg)
        except ImportError:
            with pytest.raises(ImportError, match=pkg):
                cls()([b"payload"])
        else:  # pragma: no cover - not this sandbox
            pytest.skip(f"{pkg} installed; guard not exercisable")


def test_pdf_adapter_seam():
    """Pdf2ImageModel (VERDICT r3 missing #2): resolves + composes from
    the CLI spec without importing pdf2image; in this sandbox the first
    render raises an ImportError NAMING the package; a mocked renderer
    proves the page → inner-engine → form-feed-join contract."""
    from ollama_ocr_ray.stages.engines import Pdf2ImageModel

    m = resolve_model("pdf")
    assert isinstance(m, Pdf2ImageModel)
    assert isinstance(m.inner, TesseractModel)  # reference default path
    m2 = resolve_model("pdf:demo")
    assert isinstance(m2.inner, DemoHashModel)
    m3 = resolve_model("pdf:trocr:microsoft/trocr-base-printed")
    assert isinstance(m3.inner, TrOCRModel)
    try:
        import pdf2image  # noqa: F401
    except ImportError:
        with pytest.raises(ImportError, match="pdf2image"):
            m2([b"%PDF-1.4 fake"])
    else:  # pragma: no cover - not this sandbox
        pytest.skip("pdf2image installed; guard not exercisable")

    # contract check with the import seam mocked: two "pages" per doc,
    # inner engine batched once per doc, texts joined with \f
    class FakePage:
        def __init__(self, tag):
            self.tag = tag

        def save(self, buf, format):  # noqa: A002 - PIL signature
            buf.write(self.tag)

    m2._render = lambda data, dpi: [FakePage(b"p1:" + data[:6]),
                                    FakePage(b"p2:" + data[:6])]
    out = m2([b"%PDF-A", b"%PDF-B"])
    assert len(out) == 2
    for doc in out:
        a, b = doc.split("\f")
        assert a.startswith("DEMO::") and b.startswith("DEMO::")
        assert a != b
    assert out[0] != out[1]


def test_demo_model_lazy_load_and_determinism():
    m = DemoHashModel()
    assert m.loads == 0
    out1 = m(["media://a/1", b"bytes"])
    out2 = m(["media://a/1", b"bytes"])
    assert out1 == out2 and m.loads == 1 and m.calls == 2
    assert out1[0].startswith("DEMO::")


def test_media_store_objectref_payloads_reach_model(ray_session):
    """ray.put sidecar store + injected engine through the REAL actor
    pool (VERDICT r3 #7): the adapter receives PAYLOAD BYTES — two refs
    with identical bytes transcribe to the identical engine output, a
    distinct payload differs, and the transcript equals the engine's
    content digest (so refs never leak to the model)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from ollama_ocr_ray.pipelines.extract import auto_pipeline
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA

    doc = {
        "doc_id": "m1",
        "spans": [
            {"kind": "media", "text": "", "media_ref": "s3://a", "offset": 0},
            {"kind": "media", "text": "", "media_ref": "s3://b", "offset": 1},
            {"kind": "media", "text": "", "media_ref": "s3://c", "offset": 2},
        ],
    }
    table = pa.Table.from_pylist([doc], schema=DOCUMENTS_SCHEMA)
    store = ray.put({"s3://a": b"same-bytes", "s3://b": b"same-bytes",
                     "s3://c": b"other-bytes"})
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused",
                           media_store=store, model=DemoHashModel(),
                           ocr_concurrency=2)
    t = pa.concat_tables(
        list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    spans = t.to_pylist()[0]["spans"]
    assert [s["kind"] for s in spans] == ["ocr", "ocr", "ocr"]
    texts = [s["text"] for s in spans]
    assert texts[0] == texts[1] == DemoHashModel.transcribe(b"same-bytes")
    assert texts[2] == DemoHashModel.transcribe(b"other-bytes")
    assert texts[2] != texts[0]


def test_cli_extract_with_injected_model(ray_session, tmp_path, capsys):
    """--model demo through --job extract end-to-end: every ocr span is
    the demo engine's transcript, error semantics unchanged, resume
    metrics intact (the seam the reference exposes as --engine,
    ocr_router.py:316-330)."""
    from ollama_ocr_ray.run import main

    corpus_dir = synth.write_corpus(str(tmp_path / "corpus"), 120, seed=23)
    out = str(tmp_path / "out")
    # 4-CPU test session: a pool of 1 leaves CPUs for the read stage
    # (exact-CPUs fixed pools starve it and stall, BASELINE.md)
    assert main(["--input", corpus_dir, "--output", out,
                 "--model", "demo", "--ocr-concurrency", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["partitions_run"] == summary["partitions_total"] > 0

    files = [
        os.path.join(out, d, f)
        for d in sorted(os.listdir(out)) if d.startswith("part-")
        for f in sorted(os.listdir(os.path.join(out, d)))
    ]
    got = {
        r["doc_id"]: [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in r["spans"]
        ]
        for r in pads.dataset(files).to_table(
            columns=["doc_id", "spans"]).to_pylist()
    }
    # expectation: the independent oracle with each ocr span
    # re-transcribed by the demo engine (payload = ref, no media store)
    want = {}
    for doc_id, spans in oracle.extract_corpus(
            synth.gen_table(120, seed=23)).items():
        want[doc_id] = [
            (k, DemoHashModel.transcribe(m) if k == "ocr" else t, m, o)
            for (k, t, m, o) in spans
        ]
    assert got == want

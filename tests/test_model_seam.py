"""Real-model adapter seam (VERDICT r1 #6): ``OcrModel(model=...)`` takes
a batched ``payloads -> transcripts`` callable — the injection point a
user drops a TrOCR/Ollama/Tesseract wrapper into (engine dispatch of
``/root/reference/ocr_router.py:177-217``).  The mock contract is the
default injection; these tests inject a fake "real" model and check
span-sequence equality against an independently computed expectation
through ``auto_pipeline`` and the fused plan on an explicit pool.
"""

import hashlib

import pyarrow as pa
import ray.data as rd

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.pipelines.extract import PLANS, OcrPool, auto_pipeline
from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA
from ollama_ocr_ray.spec import CORRUPT_SUFFIX


def _fake_transcribe(payload) -> str:
    data = payload if isinstance(payload, bytes) else str(payload).encode()
    return "MODEL::" + hashlib.sha1(data).hexdigest()[:16]


def _make_model(sink=None):
    """Build the injected model as a CLOSURE (captured by value): a
    module-level function from a test file is pickled by reference and
    crash-loops the actor pool (workers can't import tests/*)."""

    def model(payloads):
        texts = []
        for p in payloads:
            data = p if isinstance(p, bytes) else str(p).encode()
            texts.append("MODEL::" + hashlib.sha1(data).hexdigest()[:16])
        if sink is not None:
            sink.extend(payloads)
        return texts

    return model


def _spans_map(ds):
    out = {}
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        for r in b.to_pylist():
            out[r["doc_id"]] = [
                (s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]
            ]
    return out


def _expected_with_model(corpus, transcribe):
    """Oracle span sequences with each ocr span re-transcribed by the
    injected model (payload = ref when no media store is configured)."""
    want = {}
    for doc_id, spans in oracle.extract_corpus(corpus).items():
        want[doc_id] = [
            (k, transcribe(m) if k == "ocr" else t, m, o)
            for (k, t, m, o) in spans
        ]
    return want


def test_injected_model_auto_and_fused(ray_session):
    corpus = synth.gen_table(60, seed=7)
    want = _expected_with_model(corpus, _fake_transcribe)
    model = _make_model()
    ds = rd.from_arrow(corpus).repartition(4)
    _, auto = auto_pipeline(ds, ocr_concurrency=2, model=model)
    got_auto = _spans_map(auto)
    got_fused = _spans_map(
        PLANS["fused"](rd.from_arrow(corpus).repartition(4),
                       OcrPool(2, 1, 32), model=model)
    )
    assert got_auto == want
    assert got_fused == want


def test_injected_model_with_media_store(ray_session):
    """With a sidecar store the model receives PAYLOAD BYTES; a ref
    missing from the store stays an inline error span (no model call,
    no latency charge), and corrupt refs never reach the model."""
    import ray

    docs = [
        {
            "doc_id": "m-1",
            "spans": [
                {"kind": "media", "text": "", "media_ref": "media://a",
                 "offset": 0},
                {"kind": "media", "text": "", "media_ref": "media://gone",
                 "offset": 1},
                {"kind": "media", "text": "",
                 "media_ref": "media://bad" + CORRUPT_SUFFIX, "offset": 2},
            ],
        }
    ]
    table = pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA)
    store = {"media://a": b"pixels-a",
             "media://bad" + CORRUPT_SUFFIX: b"whatever"}
    model = _make_model()
    _, out = auto_pipeline(
        rd.from_arrow(table), plan="fused", ocr_concurrency=2,
        media_store=ray.put(store), model=model,
    )
    spans = _spans_map(out)["m-1"]
    kinds = [s[0] for s in spans]
    assert kinds == ["ocr", "error", "error"]
    assert spans[0][1] == _fake_transcribe(b"pixels-a")
    assert "media not found" in spans[1][1]

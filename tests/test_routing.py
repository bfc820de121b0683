"""Otsu preprocess (r5 VERDICT #3) + content-based routing (M3, r5
VERDICT #4): numpy binarization parity with the reference's
cv2 pipeline semantics, the line-count heuristic, the vectorized route
column, and per-span dispatch through the RouterModel seam."""

import numpy as np
import pyarrow as pa
import pytest

from ollama_ocr_ray.stages.engines import (DemoHashModel, TesseractModel,
                                           otsu_threshold,
                                           preprocess_print_image,
                                           resolve_model, rgb_to_gray)
from ollama_ocr_ray.stages.routing import (RouterModel, keyword_route,
                                           line_score, route_media_batch,
                                           route_payload)


def _printed_page(h=200, w=200, n_lines=20):
    """White page with n_lines 1-px black horizontal rules — the
    ruled-form shape the reference's Hough heuristic targets."""
    img = np.full((h, w), 255, dtype=np.uint8)
    for i in range(n_lines):
        img[5 + i * (h - 10) // n_lines, :] = 0
    return img


def test_rgb_to_gray_bt601():
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (255, 0, 0)   # R -> 76
    rgb[0, 1] = (0, 255, 0)   # G -> 150
    rgb[1, 0] = (0, 0, 255)   # B -> 29
    rgb[1, 1] = (255, 255, 255)
    g = rgb_to_gray(rgb)
    assert g.dtype == np.uint8
    assert g.tolist() == [[76, 150], [29, 255]]
    # 2-D passthrough
    assert rgb_to_gray(g).tolist() == g.tolist()
    with pytest.raises(ValueError, match="invalid image shape"):
        rgb_to_gray(np.zeros((2, 2, 2), dtype=np.uint8))


def test_otsu_threshold_bimodal():
    """A clean two-mode histogram thresholds between the modes and the
    binarized output is exactly {0, 255} with the modes separated."""
    rng = np.random.RandomState(7)
    dark = rng.randint(30, 60, size=5000)
    light = rng.randint(180, 220, size=5000)
    gray = np.concatenate([dark, light]).astype(np.uint8).reshape(100, 100)
    t = otsu_threshold(gray)
    assert 59 <= t < 180
    out = preprocess_print_image(gray)
    assert set(np.unique(out).tolist()) <= {0, 255}
    assert (out[gray <= 60] == 0).all() if t >= 60 else True
    assert (out[gray >= 180] == 255).all()
    # degenerate: constant image still binarizes without error
    const = np.full((20, 20), 128, dtype=np.uint8)
    assert set(np.unique(preprocess_print_image(const)).tolist()) <= {0, 255}
    with pytest.raises(ValueError, match="Invalid image"):
        preprocess_print_image(np.array([], dtype=np.uint8))


def test_tesseract_preprocess_reaches_engine(monkeypatch):
    """Injection e2e: the array handed to pytesseract is the BINARIZED
    page (preprocess on, the reference default), the raw decode with
    preprocess off."""
    from ollama_ocr_ray.stages import engines

    page = _printed_page()
    noisy = page.copy()
    noisy[page == 255] = 230  # light-gray paper: binarization visible
    monkeypatch.setattr(engines, "_decode_image", lambda payload: noisy)

    received = []

    class FakeTess:
        @staticmethod
        def image_to_string(arr, lang, config):
            received.append(np.asarray(arr))
            return f" text:{lang}:{config} "

    m = TesseractModel(lang="deu")
    monkeypatch.setattr(TesseractModel, "_ensure_loaded",
                        lambda self: FakeTess)
    out = m([b"payload"])
    assert out == ["text:deu:--psm 6"]
    assert np.array_equal(received[0], preprocess_print_image(noisy))
    assert set(np.unique(received[0]).tolist()) <= {0, 255}

    raw = TesseractModel(preprocess=False)
    monkeypatch.setattr(TesseractModel, "_ensure_loaded",
                        lambda self: FakeTess)
    raw([b"payload"])
    assert np.array_equal(received[1], noisy)


def test_line_score_counts_long_runs():
    page = _printed_page(n_lines=20)
    # each 1-px rule yields 2 full-width gradient runs
    assert line_score(page) == 40
    flat = np.full((200, 200), 128, dtype=np.uint8)
    assert line_score(flat) == 0
    # short dashes (< 60 px) never count
    dashed = np.full((100, 100), 255, dtype=np.uint8)
    dashed[50, 10:40] = 0
    assert line_score(dashed) == 0
    # vertical rules count through the transposed pass
    vert = np.full((100, 100), 255, dtype=np.uint8)
    vert[:, 30] = 0
    assert line_score(vert) == 2


def test_route_payload_heuristic():
    assert route_payload(_printed_page()) == "printed"
    assert route_payload(np.full((200, 200), 128, np.uint8)) == "handwriting"
    # tiny images -> handwriting (reference guard)
    assert route_payload(np.zeros((5, 5), np.uint8)) == "handwriting"


def test_keyword_route_reference_rules():
    assert keyword_route("Receipt_0231.jpg") == "printed"
    assert keyword_route("tax-INVOICE.png") == "printed"
    assert keyword_route("meeting-notes.png") == "handwriting"
    assert keyword_route("handwritten_draft.jpg") == "handwriting"
    # printed keywords win when both match (reference checks them first)
    assert keyword_route("receipt-notes.jpg") == "printed"
    assert keyword_route("IMG_2041.jpg") is None


def test_route_media_batch_vectorized_and_payload_path():
    batch = pa.table({
        "doc_id": pa.array(["d"] * 5),
        "kind": pa.array(["text", "media", "media", "media", "media"]),
        "media_ref": pa.array(["", "s3://b/receipt1.jpg",
                               "s3://b/my-notes.png", "s3://b/img_1.jpg",
                               "s3://b/img_2.jpg"]),
    })
    store = {"s3://b/img_1.jpg": b"P", "s3://b/img_2.jpg": b"H"}
    decode = {b"P": _printed_page(),
              b"H": np.full((200, 200), 128, np.uint8)}
    out = route_media_batch(batch, media_store=store,
                            decode=lambda b: decode[bytes(b)])
    assert out.column("route").to_pylist() == [
        "", "printed", "handwriting", "printed", "handwriting"]
    # no store / no decode: keyword-miss media default to handwriting
    out2 = route_media_batch(batch)
    assert out2.column("route").to_pylist() == [
        "", "printed", "handwriting", "handwriting", "handwriting"]

    # an unreadable payload (decode raises) takes the reference's
    # handwriting default instead of crashing the stage
    def broken(b):
        raise ValueError("corrupt image")

    out3 = route_media_batch(batch, media_store=store, decode=broken)
    assert out3.column("route").to_pylist() == [
        "", "printed", "handwriting", "handwriting", "handwriting"]


def test_keyword_route_tests_only_the_basename():
    """A keyword in a directory segment is not a filename keyword (the
    reference tests ``Path(image_path).name``): the span takes the
    pixel path, in the stage and, independently, in the oracle."""
    from ollama_ocr_ray import oracle

    ref = "media://bucket/forms/scan_0001.jpg"
    assert keyword_route(ref) is None
    assert keyword_route("media://notes/receipt_7.jpg") == "printed"
    batch = pa.table({"doc_id": ["d", "d"], "kind": ["media", "media"],
                      "media_ref": [ref, "media://bucket/notes/img.jpg"]})
    assert route_media_batch(batch).column("route").to_pylist() == [
        "handwriting", "handwriting"]
    page = _printed_page()
    got = route_media_batch(batch, media_store={ref: b"P"},
                            decode=lambda b: page)
    assert got.column("route").to_pylist()[0] == "printed"
    assert oracle.route_media_span(ref) == "handwriting"
    assert oracle.route_media_span(ref, page) == "printed"
    assert oracle.route_media_span("media://notes/receipt_7.jpg") \
        == "printed"


def test_router_model_dispatch_two_engines():
    """Per-span dispatch through the seam: two injected fake engines,
    each called once per batch with exactly its routed payloads,
    outputs reassembled in payload order."""
    calls = []

    class Tagger(DemoHashModel):
        def __call__(self, payloads):
            calls.append((self.tag, list(payloads)))
            return super().__call__(payloads)

    m = RouterModel(printed=Tagger("PRN"), handwriting=Tagger("HND"),
                    decode=lambda b: (_printed_page() if b == b"P"
                                      else np.full((99, 99), 7, np.uint8)))
    payloads = ["media://b/receipt_0", b"P", "media://b/notes_1", b"H",
                "media://b/img_2"]
    out = m(payloads)
    tags = [t.split("::")[0] for t in out]
    assert tags == ["PRN", "PRN", "HND", "HND", "HND"]
    assert dict((t, p) for t, p in calls) == {
        "PRN": ["media://b/receipt_0", b"P"],
        "HND": ["media://b/notes_1", b"H", "media://b/img_2"],
    }
    assert len(calls) == 2  # one batched call per engine
    # transcripts are the payload digests (engines saw real payloads)
    assert out[1] == DemoHashModel.transcribe(b"P", "PRN")


def test_router_reads_the_ref_keyword_before_store_pixels():
    """With a media store every payload is bytes, yet the ref's file
    name keywords still come first (``ocr_router.py:131-137``): a flat
    image under ``receipt_0`` goes to the printed engine, as the
    vectorized route column and the oracle say."""
    from ollama_ocr_ray import oracle
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA
    from ollama_ocr_ray.stages.explode import explode_batch
    from ollama_ocr_ray.stages.extract import extract_batch
    from ollama_ocr_ray.stages.ocr import OcrModel

    ref = "media://b/receipt_0"
    flat = np.full((99, 99), 7, np.uint8)
    store = {ref: b"F"}
    spans = extract_batch(explode_batch(pa.Table.from_pylist(
        [{"doc_id": "d", "spans": [{"kind": "media", "text": "",
                                    "media_ref": ref, "offset": 0}]}],
        schema=DOCUMENTS_SCHEMA)))
    model = RouterModel(printed=DemoHashModel("PRN"),
                        handwriting=DemoHashModel("HND"),
                        decode=lambda b: flat)
    out = OcrModel(model=model, media_store=store)(spans).to_pylist()
    assert [r["text"] for r in out if r["kind"] == "ocr"] == [
        DemoHashModel.transcribe(b"F", "PRN")]
    routes = route_media_batch(spans, media_store=store,
                               decode=lambda b: flat).column("route")
    assert [r for r in routes.to_pylist() if r] == ["printed"]
    assert oracle.route_media_span(ref, flat) == "printed"


def test_resolve_router_spec():
    r = resolve_model("router")
    assert isinstance(r, RouterModel)
    assert isinstance(r.printed, TesseractModel)
    assert r.printed.preprocess  # reference preprocess on by default
    r2 = resolve_model("router:25")
    assert r2.line_threshold == 25


def test_router_through_fused_pipeline(ray_session):
    """E2e through the REAL actor pool: keyword-routed refs dispatch to
    the right fake engine and the transcripts land on the right spans."""
    import ray.data as rd

    from ollama_ocr_ray.pipelines.extract import auto_pipeline
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA

    doc = {
        "doc_id": "r1",
        "spans": [
            {"kind": "media", "text": "", "media_ref":
             "s3://x/receipt_7.jpg", "offset": 0},
            {"kind": "text", "text": "interlude", "media_ref": "",
             "offset": 1},
            {"kind": "media", "text": "", "media_ref":
             "s3://x/lecture-notes.png", "offset": 2},
        ],
    }
    table = pa.Table.from_pylist([doc], schema=DOCUMENTS_SCHEMA)
    model = RouterModel(printed=DemoHashModel("PRN"),
                        handwriting=DemoHashModel("HND"))
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused", model=model,
                           ocr_concurrency=2)
    [row] = out.take_all()
    spans = sorted(row["spans"], key=lambda s: s["order"])
    assert [s["kind"] for s in spans] == ["ocr", "text", "ocr"]
    assert spans[0]["text"] == DemoHashModel.transcribe(
        "s3://x/receipt_7.jpg", "PRN")
    assert spans[1]["text"] == "interlude"
    assert spans[2]["text"] == DemoHashModel.transcribe(
        "s3://x/lecture-notes.png", "HND")

"""Content-based printed-vs-handwriting routing (M3, r5 VERDICT #4).

The reference routes each image to Tesseract (printed) or TrOCR
(handwriting) with ``simple_heuristic`` (``ocr_router.py:122-174``):

1. filename keywords — receipt/invoice/form/document/pdf -> printed;
   handwriting/handwritten/note/notes/draft -> handwriting (printed
   checked first);
2. else pixel stats — Canny edges + HoughLinesP; more than 15 straight
   lines of length >= 60 -> printed, otherwise handwriting;
3. any failure (unreadable, tiny image) -> handwriting (the safe
   default for handwritten content).

Here that becomes two seam-compatible pieces:

- ``route_media_batch``: a VECTORIZED map stage adding a ``route``
  column to span batches — keyword routing is pure Arrow regex over
  ``media_ref``; the pixel path (only for refs a sidecar store
  resolves) is per-payload by necessity and uses the numpy Canny/Hough
  analog ``line_score`` below (no cv2 in this stack).
- ``RouterModel``: an engine adapter behind the ``OcrModel(model=...)``
  seam that dispatches each payload to a printed or handwriting inner
  engine per the same heuristic, batching each inner engine's calls:
  the ref's basename keywords first (a ref string, or the ``ref`` a
  store-resolved ``stages.ocr.MediaPayload`` carries), then payload
  bytes -> pixel stats, else the handwriting default (the reference's
  unreadable-image branch).

``line_score`` is a deliberate, documented analog — not a Canny/Hough
port: a gradient-magnitude edge map (threshold 50, the reference's low
Canny threshold) followed by counting maximal horizontal/vertical edge
runs of length >= 60 px (HoughLinesP ``minLineLength``).  Axis-aligned
runs cover the ruled-form/receipt case the reference's heuristic
targets; the threshold semantics (> 15 lines -> printed) are kept.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ocr_router.py:133-137 keyword lists, printed checked first
PRINTED_KEYWORDS = ("receipt", "invoice", "form", "document", "pdf")
HANDWRITING_KEYWORDS = ("handwriting", "handwritten", "note", "notes",
                        "draft")
_PRINTED_RE = "|".join(PRINTED_KEYWORDS)
_HANDWRITING_RE = "|".join(HANDWRITING_KEYWORDS)

ROUTE_PRINTED = "printed"
ROUTE_HANDWRITING = "handwriting"

EDGE_THRESHOLD = 50     # reference Canny low threshold
MIN_LINE_LEN = 60       # reference HoughLinesP minLineLength
LINE_THRESHOLD = 15     # reference "> 15 lines -> printed"
MIN_IMAGE_DIM = 10      # reference tiny-image guard


def keyword_route(name: str) -> str | None:
    """Filename-keyword routing (``ocr_router.py:131-137``) on the
    basename only (the reference tests ``Path(image_path).name``, so a
    directory such as ``forms/`` must not route): printed keywords win
    over handwriting ones; None when neither matches."""
    low = name.rsplit("/", 1)[-1].lower()
    if any(k in low for k in PRINTED_KEYWORDS):
        return ROUTE_PRINTED
    if any(k in low for k in HANDWRITING_KEYWORDS):
        return ROUTE_HANDWRITING
    return None


def _count_runs(mask: np.ndarray, min_len: int) -> int:
    """Maximal True-runs of length >= min_len along axis 1."""
    if mask.size == 0:
        return 0
    pad = np.zeros((mask.shape[0], 1), dtype=np.int8)
    b = np.concatenate([pad, mask.astype(np.int8), pad], axis=1)
    d = np.diff(b, axis=1)
    starts = np.nonzero(d == 1)
    ends = np.nonzero(d == -1)
    return int(np.sum(ends[1] - starts[1] >= min_len))


def line_score(gray: np.ndarray, *, edge_threshold: int = EDGE_THRESHOLD,
               min_len: int = MIN_LINE_LEN) -> int:
    """Count of long axis-aligned edge runs — the numpy analog of the
    reference's Canny + HoughLinesP line count (module doc)."""
    g = np.asarray(gray, dtype=np.int16)
    if g.ndim != 2 or g.size == 0:
        return 0
    dx = np.abs(np.diff(g, axis=1)) > edge_threshold
    dy = np.abs(np.diff(g, axis=0)) > edge_threshold
    # horizontal lines: long runs of vertical-gradient edges along a
    # row; vertical lines: long runs of horizontal-gradient edges
    # along a column
    return _count_runs(dy, min_len) + _count_runs(dx.T, min_len)


def route_payload(arr: np.ndarray, *,
                  line_threshold: int = LINE_THRESHOLD) -> str:
    """Pixel-stat routing for one decoded image array
    (``ocr_router.py:146-168``): tiny/invalid -> handwriting; many
    straight lines -> printed; else handwriting."""
    from .engines import rgb_to_gray

    a = np.asarray(arr)
    if a.ndim < 2 or a.shape[0] < MIN_IMAGE_DIM or a.shape[1] < MIN_IMAGE_DIM:
        return ROUTE_HANDWRITING
    try:
        gray = rgb_to_gray(a)
    except ValueError:
        return ROUTE_HANDWRITING
    if line_score(gray) > line_threshold:
        return ROUTE_PRINTED
    return ROUTE_HANDWRITING


def route_media_batch(batch: pa.Table, *, media_store=None, decode=None,
                      line_threshold: int = LINE_THRESHOLD) -> pa.Table:
    """Span batch -> same batch + ``route`` column.

    Non-media spans route to "" (no engine).  Media spans: keyword
    routing on the basename of ``media_ref`` (vectorized Arrow regex,
    printed first);
    unresolved by keywords, the payload path runs when a sidecar
    ``media_store`` (plain dict here — resolve any ObjectRef in the
    actor ctor) and a ``decode`` (payload bytes -> ndarray) are
    supplied; anything else takes the reference's handwriting default.
    The per-payload loop is bounded to keyword-misses with store hits —
    the pixel read is inherently per-image work that lives in the
    actor, exactly like inference itself.
    """
    batch = batch.combine_chunks()
    refs = batch.column("media_ref")
    low = pc.utf8_lower(pc.replace_substring_regex(refs, "^.*/", ""))
    is_media = pc.equal(batch.column("kind"), "media")
    printed = pc.match_substring_regex(low, _PRINTED_RE)
    hand = pc.match_substring_regex(low, _HANDWRITING_RE)
    route = np.full(len(batch), "", dtype=object)
    m = is_media.to_numpy(zero_copy_only=False)
    p = pc.fill_null(printed, False).to_numpy(zero_copy_only=False)
    h = pc.fill_null(hand, False).to_numpy(zero_copy_only=False)
    route[m & p] = ROUTE_PRINTED
    route[m & ~p & h] = ROUTE_HANDWRITING
    rest = np.nonzero(m & ~p & ~h)[0]
    if len(rest):
        # O(|rest|), not O(batch): only the keyword-miss media refs
        # materialize as Python strings
        rest_refs = refs.take(pa.array(rest)).to_pylist()
        for i, ref in zip(rest, rest_refs):
            payload = (media_store.get(ref)
                       if media_store is not None else None)
            if payload is not None and decode is not None:
                try:
                    arr = np.asarray(decode(payload))
                except Exception:
                    # unreadable payload -> the reference's safe
                    # default (ocr_router.py:168), same rule as
                    # RouterModel.route_one
                    route[i] = ROUTE_HANDWRITING
                    continue
                route[i] = route_payload(arr,
                                         line_threshold=line_threshold)
            else:
                route[i] = ROUTE_HANDWRITING
    return batch.append_column("route", pa.array(route, type=pa.string()))


class RouterModel:
    """Engine adapter dispatching each payload to a printed or a
    handwriting engine by the reference heuristic (module doc), behind
    the standard ``payloads -> transcripts`` seam.  Each inner engine
    gets ONE batched call per outer batch, preserving TrOCR's batch
    axis; outputs reassemble in payload order.

    ``decode`` defaults to the shared PIL decoder; tests inject an
    array-returning fake so the dispatch is assertable in-sandbox."""

    def __init__(self, printed=None, handwriting=None,
                 line_threshold: int = LINE_THRESHOLD, decode=None):
        from .engines import TesseractModel, TrOCRModel, _decode_image

        self.printed = printed if printed is not None else TesseractModel()
        self.handwriting = (handwriting if handwriting is not None
                            else TrOCRModel())
        self.line_threshold = line_threshold
        self.decode = decode if decode is not None else _decode_image

    def route_one(self, payload) -> str:
        if not isinstance(payload, (bytes, bytearray)):
            return keyword_route(str(payload)) or ROUTE_HANDWRITING
        # a store-resolved payload keeps its ref: keywords come first
        route = keyword_route(getattr(payload, "ref", ""))
        if route is not None:
            return route
        try:
            arr = np.asarray(self.decode(payload))
        except Exception:
            return ROUTE_HANDWRITING   # ocr_router.py:168 fallback
        return route_payload(arr, line_threshold=self.line_threshold)

    def __call__(self, payloads: list) -> list[str]:
        routes = [self.route_one(p) for p in payloads]
        out: list = [None] * len(payloads)
        for name, engine in ((ROUTE_PRINTED, self.printed),
                             (ROUTE_HANDWRITING, self.handwriting)):
            idx = [i for i, r in enumerate(routes) if r == name]
            if idx:
                texts = engine([payloads[i] for i in idx])
                for i, t in zip(idx, texts):
                    out[i] = t
        return out

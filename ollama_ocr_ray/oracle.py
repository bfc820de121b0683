"""Sequential single-process reference extractor (the test oracle).

Mirrors the reference's per-document control flow — route by kind →
per-span extraction → ordered reassembly with strip and inline error
spans (``/root/reference/ocr_router.py:250-310``) — written
*independently* of the Ray stages in ``ollama_ocr_ray.stages`` so the
span-equality tests are a real check (SURVEY.md §5.2).  Only the pure
contract constants/functions in ``ollama_ocr_ray.spec`` are shared.

HTML here is extracted by building an explicit DOM tree with
``HTMLParser`` and walking it depth-first; the Ray stage scores blocks in
one pass over a token list (a tag stack and a list per open block), read
by its own regex (with ``HTMLParser`` only as a fallback for markup the
regex rejects).
"""

from __future__ import annotations

from html.parser import HTMLParser

from .spec import (
    BLOCK_TAGS,
    CORRUPT_SUFFIX,
    ERROR_TEXT,
    HEADING_TAGS,
    MAX_LINK_DENSITY,
    MIN_BLOCK_CHARS,
    PRUNE_TAGS,
    VOID_TAGS,
    collapse_ws,
    mock_transcript,
    mode_transcript,
    unsupported_text,
)


# --- HTML: DOM tree build + depth-first walk ------------------------------
class _Node:
    __slots__ = ("tag", "children")

    def __init__(self, tag: str):
        self.tag = tag
        self.children: list = []  # _Node or str (text)


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        if tag in VOID_TAGS:
            self.stack[-1].children.append(_Node(tag))
            return
        node = _Node(tag)
        self.stack[-1].children.append(node)
        self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(_Node(tag))

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # unmatched close tag: ignored (same policy as the stage parser)

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def _has_block_descendant(node: _Node) -> bool:
    todo = list(node.children)
    while todo:
        c = todo.pop()
        if isinstance(c, _Node) and c.tag not in PRUNE_TAGS:
            # pruned subtrees are removed before candidate selection
            if c.tag in BLOCK_TAGS:
                return True
            todo.extend(c.children)
    return False


def _gather_text(node: _Node, parts: list, links: list) -> None:
    """Text nodes under ``node`` in document order; ``links`` gets those
    with an <a> ancestor inside ``node``.  An explicit stack, so a deep
    nest cannot overflow Python's recursion limit."""
    todo = [(c, False) for c in reversed(node.children)]
    while todo:
        c, in_a = todo.pop()
        if isinstance(c, str):
            parts.append(c)
            if in_a:
                links.append(c)
        elif c.tag not in PRUNE_TAGS:
            in_a = in_a or c.tag == "a"
            todo.extend((g, in_a) for g in reversed(c.children))


def _leaf_blocks(node: _Node, out: list) -> None:
    """Collect leaf BLOCK_TAGS elements in document order, skipping
    pruned subtrees (an explicit stack, as in ``_gather_text``)."""
    todo = list(reversed(node.children))
    while todo:
        c = todo.pop()
        if not isinstance(c, _Node) or c.tag in PRUNE_TAGS:
            continue
        if c.tag in BLOCK_TAGS and not _has_block_descendant(c):
            out.append(c)
        else:
            todo.extend(reversed(c.children))


def extract_html(markup: str) -> list[str]:
    """§spec html semantics: prune → leaf blocks → density filters."""
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    blocks: list[_Node] = []
    _leaf_blocks(builder.root, blocks)
    kept: list[str] = []
    for b in blocks:
        parts: list = []
        links: list = []
        _gather_text(b, parts, links)
        text = collapse_ws(" ".join(parts))
        link_text = collapse_ws(" ".join(links))
        if not text:
            continue
        if len(link_text) / len(text) > MAX_LINK_DENSITY:
            continue
        if len(text) >= MIN_BLOCK_CHARS or (b.tag in HEADING_TAGS and len(text) > 0):
            kept.append(text)
    return kept


# --- PDF layout text -------------------------------------------------------
def extract_pdf(payload: str) -> list[str]:
    """§spec pdf semantics: parse ``page|y|x|text`` records, stable-sort
    blocks by (page, y, x), per-page join by newline, pages ascending."""
    records = []
    for line in payload.split("\n"):
        pieces = line.split("|", 3)
        if len(pieces) != 4:
            continue
        try:
            page, y, x = int(pieces[0]), int(pieces[1]), int(pieces[2])
        except ValueError:
            continue
        records.append((page, y, x, pieces[3]))
    records.sort(key=lambda r: (r[0], r[1], r[2]))  # stable: payload order breaks ties
    pages: dict[int, list[str]] = {}
    for page, _y, _x, text in records:
        t = collapse_ws(text)
        if t:
            pages.setdefault(page, []).append(t)
    return ["\n".join(blocks) for _page, blocks in sorted(pages.items())]


# --- per-document extraction ----------------------------------------------
def extract_document(doc: dict, policy: str = "text") -> dict:
    """documents row → extracted row (the span-equality contract).

    ``policy`` mirrors the reference's --mode dispatch (R4,
    ``ollama_cloud_ocr.py:744-788``); 'multi' fans a media span into
    three ordered sub-spans (R9)."""
    out = []
    for span in sorted(doc["spans"], key=lambda s: s["offset"]):
        kind = span["kind"]
        if kind == "text":
            t = span["text"].strip()
            if t:
                out.append(("text", t, ""))
        elif kind == "html":
            for t in extract_html(span["text"]):
                out.append(("text", t, ""))
        elif kind == "pdf":
            for t in extract_pdf(span["text"]):
                out.append(("text", t, ""))
        elif kind == "media":
            ref = span["media_ref"]
            if ref.endswith(CORRUPT_SUFFIX):
                out.append(("error", ERROR_TEXT, ref))
            else:
                for t in mode_transcript(ref, policy):
                    out.append(("ocr", t, ref))
        else:
            out.append(("error", unsupported_text(kind), span["media_ref"]))
    return {
        "doc_id": doc["doc_id"],
        "spans": [
            {"kind": k, "text": t, "media_ref": m, "order": i}
            for i, (k, t, m) in enumerate(out)
        ],
    }


def extract_corpus(table, policy: str = "text") -> dict[str, list[tuple]]:
    """pa.Table (documents) → {doc_id: [(kind, text, media_ref, order)]}"""
    result = {}
    for doc in table.to_pylist():
        row = extract_document(doc, policy)
        result[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in row["spans"]
        ]
    return result


def route_media_span(media_ref: str, payload_image=None, *,
                     line_threshold: int = 15) -> str:
    """Independent reimplementation of the reference's
    printed-vs-handwriting routing heuristic
    (``ocr_router.py:122-174``) for the ``media_route`` gate — written
    separately from ``stages/routing.py`` per the span-equality
    contract (plain Python loops, inline keyword lists; the stage uses
    Arrow regex + numpy run counting).

    ``payload_image`` is a 2-D grayscale pixel array (list-of-lists or
    ndarray); None means the payload could not be read — the
    reference's handwriting default.
    """
    name = media_ref.lower()
    slash = name.rfind("/")
    if slash >= 0:
        name = name[slash + 1:]  # keywords test the file name only
    for k in ("receipt", "invoice", "form", "document", "pdf"):
        if k in name:
            return "printed"
    for k in ("handwriting", "handwritten", "note", "notes", "draft"):
        if k in name:
            return "handwriting"
    if payload_image is None:
        return "handwriting"
    img = [list(map(int, row)) for row in payload_image]
    h = len(img)
    w = len(img[0]) if h else 0
    if h < 10 or w < 10:
        return "handwriting"
    lines = 0
    # horizontal rules: per row of the vertical-gradient map, maximal
    # runs of |img[r+1][c]-img[r][c]| > 50 with length >= 60
    for r in range(h - 1):
        run = 0
        for c in range(w):
            if abs(img[r + 1][c] - img[r][c]) > 50:
                run += 1
            else:
                if run >= 60:
                    lines += 1
                run = 0
        if run >= 60:
            lines += 1
    # vertical rules: per column of the horizontal-gradient map,
    # maximal runs along the row axis
    for c in range(w - 1):
        run = 0
        for r in range(h):
            if abs(img[r][c + 1] - img[r][c]) > 50:
                run += 1
            else:
                if run >= 60:
                    lines += 1
                run = 0
        if run >= 60:
            lines += 1
    return "printed" if lines > line_threshold else "handwriting"

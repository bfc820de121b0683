"""Seeded input corpora for the benchmark workloads.

Every corpus is a pure function of ``(workload, seed)`` and follows the
``documents`` schema (``doc_id`` + ordered ``spans`` of
``{kind, text, media_ref, offset}``).  The generator is the benchmark's
own: it does not import the program's synthetic-data module, so a change
to the program cannot change the inputs it is measured on.

The *layout* of a corpus (how many documents, how many spans of each
kind per document, which media spans are corrupt, where the heavy
document sits) comes from a constant, so every seed costs the program
the same work.  The *content* (words, page structure, PDF block order)
comes from ``--seed``.
"""

from __future__ import annotations

import random

# (kind, share of spans) of a uniform corpus: the html/pdf/text/media mix
# of the program's default synthetic corpus
UNIFORM_KINDS = (("html", 0.30), ("pdf", 0.20), ("text", 0.25),
                 ("media", 0.25))
# the skew corpus keeps its normal documents light on media, so that the
# modeled OCR time sits in the one heavy document
SKEW_NORMAL_KINDS = (("html", 0.40), ("pdf", 0.25), ("text", 0.34),
                     ("media", 0.01))
MAX_SPANS_PER_DOC = 64
CORRUPT_SHARE = 0.02
CORRUPT_SUFFIX = "#corrupt"
LAYOUT_SEED = 20260417

# Workload shapes: docs, files, kind mix, heavy docs.
#   extract_1core: one process, sliced through the kernels.
#   canonical_ocr_skew: HEAVY_MEDIA media spans in one document; at the
#     workload's modeled OCR latency that document alone costs more than
#     the plan probe's 5 s skew threshold, so the probe picks the
#     canonical plan.  It sits inside the probe's first 512 documents,
#     and the corpus is one file: the probe reads whichever blocks come
#     first, which for several files need not hold the heavy document.
#   fused_job_write: one resumable partition per file.
SHAPES = {
    "extract_1core": {"docs": 1200, "files": 1, "kinds": UNIFORM_KINDS,
                      "heavy": 0},
    "canonical_ocr_skew": {"docs": 1024, "files": 1,
                           "kinds": SKEW_NORMAL_KINDS, "heavy": 1},
    "fused_job_write": {"docs": 512, "files": 2, "kinds": UNIFORM_KINDS,
                        "heavy": 0},
}
HEAVY_MEDIA = 260
HEAVY_TEXT = 4

WORDS = (
    "river harbor signal ledger engine window lantern meadow copper "
    "granite orchard compass violet thunder saddle pepper marble canyon "
    "falcon blanket quarry timber cobalt silver prairie beacon archive "
    "anchor barley cinder drift ember fable glacier hollow ivory juniper "
    "kettle lumber mosaic nectar oyster pebble quill rustle spindle "
    "tundra umber velvet willow yonder zephyr the a of and to in on with"
).split()


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _html(rng: random.Random) -> str:
    """A page: head junk, a nav link farm, a main subtree of paragraphs
    (some short, some link-dense, some lists), an aside and a footer."""
    p = ["<html><head><title>", _words(rng, 2, 5), "</title>",
         "<script>var n = 0; // counter</script>",
         "<style>p{margin:0}</style></head><body><nav><ul>"]
    for _ in range(rng.randint(3, 7)):
        p.append(f'<li><a href="/n">{rng.choice(WORDS)}</a></li>')
    p.append(f'</ul></nav><div class="main"><h1>{_words(rng, 2, 6)}</h1>')
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.55:
            body = _words(rng, 10, 30)
            if rng.random() < 0.3:
                body += f' and <a href="/r">{rng.choice(WORDS)}</a> too'
            if rng.random() < 0.2:
                body += " &amp; notes &lt;draft&gt;"
            if rng.random() < 0.2:
                body = body.replace(" ", " <em>note</em> ", 1)
            p.append(f"<p>{body}</p>")
        elif roll < 0.7:
            p.append(f"<p>{_words(rng, 1, 3)}</p>")
        elif roll < 0.8:
            links = " ".join(f'<a href="/l">{_words(rng, 2, 4)}</a>'
                             for _ in range(3))
            p.append(f"<p>{links} {rng.choice(WORDS)}</p>")
        elif roll < 0.9:
            p.append("<ul>" + "".join(
                f"<li>{_words(rng, 5, 12)}</li>"
                for _ in range(rng.randint(2, 4))) + "</ul>")
        else:
            p.append(f"<blockquote><p>{_words(rng, 8, 20)}</p></blockquote>")
    if rng.random() < 0.3:
        p.append("<table><tr>" + "".join(
            f"<td>{_words(rng, 4, 10)}</td>" for _ in range(2))
            + "</tr></table>")
    p.append("</div><aside>" + "".join(
        f'<a href="/s">{rng.choice(WORDS)}</a> ' for _ in range(4)))
    p.append('</aside><footer><p><a href="/t">terms</a></p></footer>'
             "</body></html>")
    return "".join(p)


def _pdf(rng: random.Random) -> str:
    """Layout records ``page|y|x|text`` in shuffled order, with some
    empty and padded blocks."""
    lines = []
    for page in range(1, rng.randint(1, 5) + 1):
        for _ in range(rng.randint(2, 7)):
            y, x = rng.randint(0, 90) * 10, rng.randint(0, 50) * 10
            roll = rng.random()
            text = ("" if roll < 0.08 else "   " if roll < 0.14
                    else _words(rng, 4, 16))
            if text.strip() and rng.random() < 0.15:
                text = f"  {text}  "
            lines.append(f"{page}|{y}|{x}|{text}")
    rng.shuffle(lines)
    return "\n".join(lines)


def _text(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return "  \n\t "
    return " " * rng.randint(0, 3) + _words(rng, 8, 40) + "\n" * rng.randint(0, 2)


def _pick_kind(rng: random.Random, kinds) -> str:
    r, acc = rng.random(), 0.0
    for kind, share in kinds:
        acc += share
        if r < acc:
            return kind
    return kinds[-1][0]


def layout(workload: str) -> list[list[str]]:
    """Per document, its span kinds in order (``"media!"`` marks a
    corrupt media span).  Independent of the seed."""
    shape = SHAPES[workload]
    rng = random.Random(f"{LAYOUT_SEED}:{workload}")
    docs = []
    for _ in range(shape["docs"]):
        n = 1 + min(MAX_SPANS_PER_DOC - 1, int(rng.paretovariate(1.3)))
        docs.append([_pick_kind(rng, shape["kinds"]) for _ in range(n)])
    per_file = -(-shape["docs"] // shape["files"])
    for _ in range(shape["heavy"]):
        kinds = ["media"] * HEAVY_MEDIA + ["text"] * HEAVY_TEXT
        rng.shuffle(kinds)
        docs[rng.randrange(min(per_file, 512))] = kinds
    for kinds in docs:
        for j, kind in enumerate(kinds):
            if kind == "media" and rng.random() < CORRUPT_SHARE:
                kinds[j] = "media!"
    return docs


def make_rows(workload: str, seed: int) -> list[dict]:
    """The corpus as a list of ``documents`` rows."""
    rows = []
    for i, kinds in enumerate(layout(workload)):
        rng = random.Random(f"{seed}:{workload}:{i}")
        doc_id = f"d{i:07d}"
        spans = []
        for off, kind in enumerate(kinds):
            text = ref = ""
            if kind == "html":
                text = _html(rng)
            elif kind == "pdf":
                text = _pdf(rng)
            elif kind == "text":
                text = _text(rng)
            else:
                ref = f"media://{doc_id}/{off}-{rng.randrange(10**6)}"
                if kind == "media!":
                    ref += CORRUPT_SUFFIX
                kind = "media"
            spans.append({"kind": kind, "text": text, "media_ref": ref,
                          "offset": off})
        rows.append({"doc_id": doc_id, "spans": spans})
    return rows


def documents_schema():
    import pyarrow as pa

    span = pa.struct([("kind", pa.string()), ("text", pa.string()),
                      ("media_ref", pa.string()), ("offset", pa.int32())])
    return pa.schema([("doc_id", pa.string()), ("spans", pa.list_(span))])


def make_table(workload: str, seed: int):
    """The corpus as one Arrow table in the ``documents`` schema."""
    import pyarrow as pa

    return pa.Table.from_pylist(make_rows(workload, seed),
                                schema=documents_schema())


def write(table, workload: str, out_dir: str) -> list[str]:
    """Write the corpus as ``SHAPES[workload]["files"]`` parquet files in
    document order; returns their paths."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    files = SHAPES[workload]["files"]
    per = -(-table.num_rows // files)
    paths = []
    for j in range(files):
        path = os.path.join(out_dir, f"part-{j:05d}.parquet")
        pq.write_table(table.slice(j * per, per), path)
        paths.append(path)
    return paths


def describe(workload: str) -> dict:
    """Layout properties recorded beside each result."""
    docs = layout(workload)
    media = [sum(k.startswith("media") for k in d) for d in docs]
    return {"docs": len(docs), "files": SHAPES[workload]["files"],
            "spans": sum(map(len, docs)), "media_spans": sum(media),
            "corrupt_media": sum(k == "media!" for d in docs for k in d),
            "heavy_docs": sum(m >= 200 for m in media),
            "max_media_per_doc": max(media)}

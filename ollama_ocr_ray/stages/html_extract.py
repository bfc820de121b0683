"""HTML boilerplate stripping: one block-state loop over a token list,
read from the markup by a compiled regex, or by ``html.parser.HTMLParser``
where the regex cannot read it exactly.

The engine-side analog of the reference's "printed" fast path
(``/root/reference/ocr_router.py:76-86``): instead of Tesseract over a
binarized image, a text-density + link-density DOM heuristic
(Readability/trafilatura-style) over markup.  Semantics are pinned by
``ollama_ocr_ray.spec``; the oracle implements the same contract with an
explicit DOM tree walk.  This module never builds a tree: ``_read`` keeps
a stack of open tags and a list per open block, and scores each block
when it closes.

A token is one tuple ``(data, raw, tag, slash, end, rest)``: a data run
as written in the markup (``&`` not yet unescaped), then at most one
construct after it — a raw-text element (``raw``: ``script``/``style``,
whose text is never read), a start tag (``tag``, ``slash`` ``"/"`` for
``<x/>``), an end tag (``end``), or nothing (a comment, a doctype, the
end of the input); ``rest`` holds the input the regex did not read
(below).  Names keep their case; ``_read`` lower-cases them and
unescapes only the runs that hold ``&``.

Two sources give tokens:

- ``_fast_tokens``: one ``findall`` of ``_TOKEN``, a regex that reads
  exactly the ``HTMLParser`` (``convert_charrefs=True``) events the
  heuristic reads: raw text ends at the first ``</script\\s*>`` (any
  ASCII case; an unclosed one runs to the end, as in ``HTMLParser``),
  ``<x .../>`` opens no element, comments end at the first
  ``--\\s*>``.  Attributes are matched, never parsed.
- ``_fallback_tokens``: an ``HTMLParser`` whose handlers append the same
  tuples (data re-escaped, raw text dropped).

A run of text is joined to its block with a space, so how the data is
cut into runs shows in the output (``HTMLParser`` gives ``a<1`` as
three runs).  So the regex reads only markup it can read exactly: its
last branch takes the rest of the input from the first construct it
does not accept (a ``<`` that starts no tag, an end tag with
attributes, a tag outside its strict ASCII grammar, an unterminated
comment, a raw-text close with white space outside ``[ \\t\\n\\r\\f]``,
a processing instruction, a CDATA section or other ``<!...>``
declaration), and the whole input is then read by the fallback.  That
branch also keeps the ``findall`` linear: every scan that runs to the
end of the input and fails ends the token list, so no hostile page
makes it rescan.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

from ..spec import (
    BLOCK_TAGS,
    HEADING_TAGS,
    MAX_LINK_DENSITY,
    MIN_BLOCK_CHARS,
    PRUNE_TAGS,
    VOID_TAGS,
    collapse_ws,
)

# The whitespace class is HTMLParser's tag-name delimiters, not Unicode \s.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z][-.:_a-zA-Z0-9]*"
_ATTRS = (rf"(?:{_WS}+[a-zA-Z_:][-.:_a-zA-Z0-9]*"
          rf"(?:{_WS}*={_WS}*"
          rf"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+(?=[ \t\n\r\f>])))?)*{_WS}*""")
# Raw text runs to where HTMLParser's end tag would close it (Unicode \s
# around an ASCII-case name: a case-folded "ſ" does not), or to the end
# of the input; the next token reads that end tag, or sends the page to
# the fallback.  Possessive, so a long raw text is one linear scan.
_TOKEN = re.compile(
    r"([^<]*)(?:<(?:"                                         # 1 data
    rf"([sS][cC][rR][iI][pP][tT]|[sS][tT][yY][lL][eE]){_ATTRS}>"  # 2 raw
    r"[^<]*+(?:<(?!/\s*(?ai:\2)\s*>)[^<]*+)*+"
    rf"|({_NAME}){_ATTRS}(/?)>"                               # 3 tag, 4 /
    rf"|/{_WS}*({_NAME}){_WS}*>"                              # 5 end tag
    r"|!--.*?--\s*>"                                          # comment
    r"|![dD][oO][cC][tT][yY][pP][eE][^>]*>"                   # doctype
    r")|(<.*)|\Z)",                                           # 6 not read
    re.S,
)
# Pops every open tag: the bottom of ``_read``'s stack.
_ROOT = "/"
_CLOSE_ALL = ("", "", "", "", _ROOT, "")


def _fast_tokens(markup: str) -> list[tuple] | None:
    """The tokens of ``markup``, or None where the regex cannot read it."""
    tokens = _TOKEN.findall(markup)
    # the "not read" branch takes the rest (the last field), so it is
    # the last match before the empty one at the end of the input
    if len(tokens) > 1 and tokens[-2][-1]:
        return None
    return tokens


class _Tokens(HTMLParser):
    """``HTMLParser`` events as tokens, each construct on its own."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.tokens: list[tuple] = []

    def handle_starttag(self, tag, attrs):
        if tag in self.CDATA_CONTENT_ELEMENTS:
            self.tokens.append(("", tag, "", "", "", ""))
        else:
            self.tokens.append(("", "", tag, "", "", ""))

    def handle_startendtag(self, tag, attrs):
        self.tokens.append(("", "", tag, "/", "", ""))

    def handle_endtag(self, tag):
        self.tokens.append(("", "", "", "", tag, ""))

    def handle_data(self, data):
        if self.cdata_elem is None:
            self.tokens.append((data.replace("&", "&amp;"), "", "", "", "",
                                ""))


def _fallback_tokens(markup: str) -> list[tuple]:
    parser = _Tokens()
    parser.feed(markup)
    parser.close()
    return parser.tokens


def _read(tokens: list[tuple]) -> list[str]:
    """Kept leaf blocks in document order.  ``stack`` mirrors the
    oracle's open-element path (pop to the matching tag on close, ignore
    unmatched closes), so malformed nesting reads the same in both."""
    out: list[str] = []
    stack = [_ROOT]     # open non-void tags
    prune = a = 0       # open tags in PRUNE_TAGS; open <a> outside prune
    # open blocks outside prune: [tag or None once it has a block child,
    # open <a> outside it, its runs, its runs inside <a>]
    blocks: list[list] = []
    parts = links = None    # the innermost open block's lists
    a_base = 0
    for data, raw, tag, slash, end, _rest in tokens + [_CLOSE_ALL]:
        if data and parts is not None and not prune:
            if "&" in data:
                data = unescape(data)
            parts.append(data)
            if a > a_base:
                links.append(data)
        if tag:
            tag = tag.lower()
            if slash:
                # an empty block opens nothing, but is still a block
                # descendant of the enclosing block
                if blocks and not prune and tag in BLOCK_TAGS:
                    blocks[-1][0] = None
            elif tag not in VOID_TAGS:
                stack.append(tag)
                if tag in PRUNE_TAGS:
                    prune += 1
                elif not prune:
                    if tag == "a":
                        a += 1
                    elif tag in BLOCK_TAGS:
                        if blocks:
                            blocks[-1][0] = None
                        parts, links, a_base = [], [], a
                        blocks.append([tag, a, parts, links])
        elif end:
            end = end.lower()
            if stack[-1] != end and end not in stack:
                continue  # unmatched or void close tag: ignored
            # a tag pops under the prune state it was pushed under
            while True:
                top = stack.pop()
                if top in PRUNE_TAGS:
                    prune -= 1
                elif not prune:
                    if top == "a":
                        a -= 1
                    elif top in BLOCK_TAGS:
                        btag, _, bparts, blinks = blocks.pop()
                        if btag is not None:
                            text = collapse_ws(" ".join(bparts))
                            if text and (
                                    len(collapse_ws(" ".join(blinks)))
                                    / len(text) <= MAX_LINK_DENSITY) and (
                                    len(text) >= MIN_BLOCK_CHARS
                                    or btag in HEADING_TAGS):
                                out.append(text)
                        if blocks:
                            _, a_base, parts, links = blocks[-1]
                        else:
                            parts = None
                if top == end:
                    break
        elif raw:
            # script/style, both in PRUNE_TAGS: the next token is its end
            # tag or the end of the input
            stack.append(raw.lower())
            prune += 1
    return out


def extract_html_stage(markup: str) -> list[str]:
    """markup → kept main-content block texts, document order."""
    return _read(_fast_tokens(markup) or _fallback_tokens(markup))

"""HTML boilerplate stripping: one block-scoring state, fed by a
compiled-regex tokenizer, with ``html.parser.HTMLParser`` as fallback.

The engine-side analog of the reference's "printed" fast path
(``/root/reference/ocr_router.py:76-86``): instead of Tesseract over a
binarized image, a text-density + link-density DOM heuristic
(Readability/trafilatura-style) over markup.  Semantics are pinned by
``ollama_ocr_ray.spec``; the oracle implements the same contract with an
explicit DOM tree walk.  This module never builds a tree: ``_Blocks``
takes start/end/data events over a stack of open tags and a stack of
open block frames, and scores each block when it closes.

Events come from ``_tokenize``, one compiled regex that finds each
``<`` and reads the construct there.  It keeps the ``HTMLParser``
(``convert_charrefs=True``) events the heuristic reads:

- tag names are lower-cased;
- each data run between two constructs is unescaped as a whole with
  ``html.unescape``;
- ``script``/``style`` content is raw text up to the first
  ``</\\s*script\\s*>`` (case-insensitive), as in ``set_cdata_mode``;
- ``<x .../>`` is a start-end tag and opens no element;
- comments (up to the first ``--\\s*>``) and ``<!DOCTYPE ...>`` emit
  nothing.

Attributes are matched, never parsed: the heuristic does not read them.

A run of text is joined to its block with a space, so how the data is
cut into runs shows in the output (``HTMLParser`` gives ``a<1`` as
three runs).  So the tokenizer takes only markup it can read exactly:
at the first construct it does not accept (a ``<`` that starts no
tag, an end tag with attributes, a tag outside its strict ASCII
grammar, an unterminated comment or raw-text element, a processing
instruction, a CDATA section or other ``<!...>`` declaration) the
whole input is read again by ``_Fallback``, an ``HTMLParser`` whose
handlers only forward to a fresh ``_Blocks``.
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


class _Frame:
    __slots__ = ("tag", "a_base", "parts", "links", "has_block_child")

    def __init__(self, tag: str, a_base: int):
        self.tag = tag
        self.a_base = a_base            # open <a> tags outside this block
        self.parts: list[str] = []
        self.links: list[str] = []
        self.has_block_child = False


class _Blocks:
    """Emits kept leaf blocks in document order from start/end/data
    events.  ``stack`` mirrors the oracle's open-element path (pop to the
    matching tag on close, ignore unmatched closes) so malformed nesting
    behaves identically in both implementations."""

    __slots__ = ("stack", "prune_depth", "a_depth", "frames", "out")

    def __init__(self):
        self.stack: list[str] = []      # open non-void tags
        self.prune_depth = 0            # open tags that are in PRUNE_TAGS
        self.a_depth = 0                # open <a> tags (outside prune)
        self.frames: list[_Frame] = []  # open block elements (outside prune)
        self.out: list[str] = []        # kept block texts, document order

    def start(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        self.stack.append(tag)
        if tag in PRUNE_TAGS:
            self.prune_depth += 1
        elif not self.prune_depth:
            if tag == "a":
                self.a_depth += 1
            elif tag in BLOCK_TAGS:
                if self.frames:
                    self.frames[-1].has_block_child = True
                self.frames.append(_Frame(tag, self.a_depth))

    def startend(self, tag: str) -> None:
        # an empty element opens nothing, but an empty block is still a
        # block descendant of the enclosing block
        if tag in BLOCK_TAGS and self.frames and not self.prune_depth:
            self.frames[-1].has_block_child = True

    def end(self, tag: str) -> None:
        stack = self.stack
        if tag not in stack:
            return  # unmatched or void close tag: ignored, as in the oracle
        while True:
            top = stack.pop()
            self._pop(top)
            if top == tag:
                return

    def data(self, text: str) -> None:
        if self.frames and not self.prune_depth:
            top = self.frames[-1]
            top.parts.append(text)
            if self.a_depth > top.a_base:
                top.links.append(text)

    def close(self) -> list[str]:
        while self.stack:
            self._pop(self.stack.pop())
        return self.out

    # prune_depth and a_depth count tags on the stack, so a tag pops
    # under the same prune state it was pushed under
    def _pop(self, tag: str) -> None:
        if tag in PRUNE_TAGS:
            self.prune_depth -= 1
        elif not self.prune_depth:
            if tag == "a":
                self.a_depth -= 1
            elif tag in BLOCK_TAGS:
                self._close_frame(self.frames.pop())

    def _close_frame(self, frame: _Frame) -> None:
        if frame.has_block_child:
            return
        text = collapse_ws(" ".join(frame.parts))
        if not text:
            return
        link_text = collapse_ws(" ".join(frame.links))
        if len(link_text) / len(text) > MAX_LINK_DENSITY:
            return
        if len(text) >= MIN_BLOCK_CHARS or frame.tag in HEADING_TAGS:
            self.out.append(text)


class _Fallback(HTMLParser):
    """``HTMLParser`` events, forwarded to a ``_Blocks``."""

    def __init__(self, blocks: _Blocks):
        super().__init__(convert_charrefs=True)
        self.blocks = blocks

    def handle_starttag(self, tag, attrs):
        self.blocks.start(tag)

    def handle_startendtag(self, tag, attrs):
        self.blocks.startend(tag)

    def handle_endtag(self, tag):
        self.blocks.end(tag)

    def handle_data(self, data):
        self.blocks.data(data)


# Every branch starts at a "<"; the last, empty one marks a "<" that none
# of the others reads (group 4), so the search never skips one.  The
# whitespace class is HTMLParser's tag-name delimiters, not Unicode \s.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z][-.:_a-zA-Z0-9]*"
_ATTR = (r"[a-zA-Z_:][-.:_a-zA-Z0-9]*"
         rf"(?:{_WS}*={_WS}*"
         rf"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+(?=[ \t\n\r\f>])))?""")
_TOKEN = re.compile(
    rf"<(?:({_NAME})(?:{_WS}+{_ATTR})*{_WS}*(/?)>"   # 1 tag, 2 self-close
    rf"|/{_WS}*({_NAME}){_WS}*>"                      # 3 end tag
    r"|!--.*?--\s*>"                                  # comment
    r"|![dD][oO][cC][tT][yY][pP][eE][^>]*>"           # doctype
    r"|())",                                          # 4 not read here
    re.S,
)
_RAWTEXT_END = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.I)
    for tag in HTMLParser.CDATA_CONTENT_ELEMENTS
}


def _tokenize(markup: str, blocks: _Blocks) -> bool:
    """Feed ``blocks`` the events ``HTMLParser`` gives for ``markup``.
    False at the first construct this tokenizer does not read, with
    ``blocks`` part-fed."""
    search = _TOKEN.search
    data = blocks.data
    pos = 0
    while True:
        m = search(markup, pos)
        if m is None:
            if pos < len(markup):
                data(unescape(markup[pos:]))
            return True
        i = m.start()
        if i > pos:
            data(unescape(markup[pos:i]))
        pos = m.end()
        kind = m.lastindex
        if kind == 2:
            tag = m.group(1).lower()
            if m.group(2):
                blocks.startend(tag)
                continue
            blocks.start(tag)
            raw_end = _RAWTEXT_END.get(tag)
            if raw_end is not None:
                e = raw_end.search(markup, pos)
                # HTMLParser ends raw text only where the ASCII end-tag
                # pattern also matches: a case-folded "ſ" does not count
                if e is None or not e.group().isascii():
                    return False
                if e.start() > pos:
                    data(markup[pos:e.start()])
                blocks.end(tag)
                pos = e.end()
        elif kind == 3:
            blocks.end(m.group(3).lower())
        elif kind == 4:
            return False


def extract_html_stage(markup: str) -> list[str]:
    """markup → kept main-content block texts, document order."""
    blocks = _Blocks()
    if not _tokenize(markup, blocks):
        blocks = _Blocks()
        parser = _Fallback(blocks)
        parser.feed(markup)
        parser.close()
    return blocks.close()

"""Text analysis operators: token stats, BPE-ish token counting,
quality scoring, language-ID heuristic, document fingerprints.

All hot paths are vectorized over Arrow batches (pyarrow.compute string
kernels + numpy segment reductions), including the mod-(2^61-1) hash
chains (``_mulmod61``/``_polyhash_segments``); the scalar Python-int
chains are kept only as property-test references.
"""

from __future__ import annotations



import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Stopword set for quality scoring — shared with the SQL oracles (the
# list literal is embedded in the oracle query strings).
STOPWORDS = ("the", "and", "of", "a", "in", "to")

# BPE-ish pre-tokenization pattern.  Both Arrow and DuckDB run RE2, so
# the same pattern counts identically in engine and oracle.
BPE_PATTERN = r"[a-z]+|[0-9]+|[^a-z0-9\s]"


def _segment_count(list_array, flat_mask: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-row count of flattened-list elements where ``flat_mask``."""
    parents = pc.list_parent_indices(list_array).to_numpy(zero_copy_only=False)
    return np.bincount(parents[flat_mask], minlength=n_rows)


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """Adds n_tokens, n_stop, stop_ratio, n_chars (whitespace tokenizer,
    the engine analog of the reference's char counting, G1 at
    ``ocr_router.py:408``).

    Arrow's ``utf8_split_whitespace`` emits empty tokens at string
    edges (' a ' → ['', 'a', '']); tokens are counted NON-empty so the
    semantics are whitespace-run tokenization regardless of padding —
    mirrored by the oracle's regexp_split + filter."""
    batch = batch.combine_chunks()
    text = batch.column("text")
    toks = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(toks)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    n_tokens_np = _segment_count(toks, nonempty, len(batch))
    n_tokens = pa.array(n_tokens_np, type=pa.int64())
    stop_mask = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    n_stop = _segment_count(toks, stop_mask, len(batch))
    nt = n_tokens_np
    ratio = np.divide(n_stop, nt, out=np.zeros(len(batch)), where=nt > 0)
    return batch.append_column("n_tokens", n_tokens).append_column(
        "n_stop", pa.array(n_stop, type=pa.int64())
    ).append_column("stop_ratio", pa.array(ratio, type=pa.float64()))


def bpe_count_batch(batch: pa.Table) -> pa.Table:
    """Adds n_bpe: count of BPE_PATTERN matches (RE2 in Arrow)."""
    n = pc.count_substring_regex(batch.column("text"), BPE_PATTERN).cast(pa.int64())
    return batch.append_column("n_bpe", n)


def tfidf_scores(docs, *, vocab_size: int = 1000, scale: int = 100,
                 vocab_m: int | None = None):
    """(doc_id, tfidf_scaled): per-document TF-IDF relevance mass over
    the corpus' top-``vocab_size`` tokens by document frequency.

    Two passes: (1) the bounded vocabulary build — EXACT top-V tokens
    by document frequency via ``sketches.exact_top_counts`` (r5,
    VERDICT #2): per-block df partials keep only their top-``m``, so
    the exchange is m x blocks rows instead of a ``groupby`` over the
    unbounded corpus token-type domain (millions-to-billions of groups
    at 100 TB — the repo's own measured rule says that exchange is the
    wrong primitive).  The (df DESC, token) cut keeps the top-V set
    deterministic, and the certificates raise loudly (fix: larger
    ``vocab_m``) rather than approximate.  (2) one streaming scan
    scoring each document against the broadcast vocabulary.

    Exact-oracle trick: each (doc, token) term is integer-scaled
    BEFORE summation — ``floor(tf * (N/df) * scale + 0.5)`` with the
    exact same IEEE-double expression on the SQL side — so the per-doc
    sum is an order-independent int64 and hash-compares exactly.
    """
    from .sketches import exact_top_counts

    n_docs = docs.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        out = vocab_df_partial(batch)
        return pa.table({"token": out.column("token"),
                         "cnt": out.column("df")})

    # m must satisfy m >~ N_pairs / df_at_rank_V for the candidate-cut
    # certificate to hold (N_pairs = total distinct (doc, token)
    # pairs); the default suits head-heavy corpora, and a failed
    # certificate names this knob
    m = vocab_m if vocab_m is not None else max(4 * vocab_size, 256)
    vocab_rows = exact_top_counts(
        docs, k=vocab_size, m=m,
        partial_counts=df_partial, allow_fewer=True,
        op="tfidf_vocab",
    ).take_all()
    vocab = pa.array([r["token"] for r in vocab_rows], type=pa.string())
    idf = pa.array([float(n_docs) / float(r["cnt"]) for r in vocab_rows],
                   type=pa.float64())

    def score(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        pairs = pa.table(
            {"p": pc.filter(parents, mask), "token": pc.filter(flat, mask)}
        ).group_by(["p", "token"]).aggregate([([], "count_all")])
        p = pairs.column("p").to_numpy(zero_copy_only=False)
        tf = pairs.column("count_all").to_numpy(zero_copy_only=False)
        tokens = pairs.column("token")
        # a token outside the vocabulary gets a null index, so NaN
        w = idf.take(pc.index_in(tokens, value_set=vocab.cast(tokens.type))
                     ).to_numpy(zero_copy_only=False)
        known = ~np.isnan(w)
        term = np.floor(
            tf[known].astype(np.float64) * w[known] * scale + 0.5
        ).astype(np.int64)
        out = np.zeros(len(batch), dtype=np.int64)
        np.add.at(out, p[known], term)
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "tfidf_scaled": pa.array(out, type=pa.int64())}
        )

    return docs.map_batches(score, batch_format="pyarrow")


def vocab_df_partial(batch: pa.Table) -> pa.Table:
    """Per-block partial document frequencies: (token, df) where df
    counts the block's documents containing the (lowercased,
    whitespace) token at least once.  Pure Arrow group_by twice —
    distinct (doc, token) pairs, then per-token doc counts — so the
    vocabulary-build exchange moves only (token, partial_df) rows,
    vocabulary-sized, never corpus-sized."""
    batch = batch.combine_chunks()
    toks = pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    pairs = pa.table(
        {"p": pc.filter(parents, mask), "token": pc.filter(flat, mask)}
    ).group_by(["p", "token"]).aggregate([])
    out = pairs.group_by("token").aggregate([("p", "count")])
    return pa.table(
        {"token": out.column("token"),
         "df": out.column("p_count").cast(pa.int64())}
    )


# --- language ID heuristic (stateful: compiled marker tables) --------------
LANG_MARKERS = {
    "en": {"the", "and", "of", "in", "to", "is", "a"},
    "es": {"el", "la", "de", "que", "y", "los", "en"},
    "fr": {"le", "la", "les", "de", "et", "un", "une"},
    "de": {"der", "die", "das", "und", "ein", "ist", "zu"},
    "zh": {"de5", "shi4", "le5", "zai4", "you3"},  # pinyin-ish placeholder
}


class LangId:
    """Marker tables built once per process (a real deployment swaps in
    fasttext/cld3 weights here; the heuristic is the
    n-gram/stopword-profile fallback).  Cheap enough that the query path
    uses a task-based ``map_batches`` with the module-level singleton
    (`lang_id_batch`) instead of paying actor-pool spin-up."""

    def __init__(self):
        self.langs = sorted(LANG_MARKERS)
        # a marker claimed by several languages counts only for the
        # first (sorted) one — the SQL oracle encodes the same rule
        marker_to_lang: dict[str, int] = {}
        for li, lang in enumerate(self.langs):
            for w in LANG_MARKERS[lang]:
                marker_to_lang.setdefault(w, li)
        self.lang_markers = [
            np.array([w for w, li in marker_to_lang.items() if li == i])
            for i in range(len(self.langs))
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        scores = np.zeros((len(batch), len(self.langs)), dtype=np.int64)
        for li, markers in enumerate(self.lang_markers):
            hit = np.isin(flat, markers)
            np.add.at(scores[:, li], parents[hit], 1)
        best = np.argmax(scores, axis=1)
        none = scores.max(axis=1) == 0
        pred = np.array(self.langs, dtype=object)[best]
        pred[none] = "und"
        return batch.append_column("pred_lang", pa.array(pred, type=pa.string()))


_LANG_ID_SINGLETON: LangId | None = None


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Task-friendly wrapper: builds the (tiny) marker tables once per
    worker process, so the query path can use stateless ``map_batches``
    tasks instead of an actor pool."""
    global _LANG_ID_SINGLETON
    if _LANG_ID_SINGLETON is None:
        _LANG_ID_SINGLETON = LangId()
    return _LANG_ID_SINGLETON(batch)


# --- fingerprints -----------------------------------------------------------
_FP_MOD = (1 << 61) - 1
_FP_BASE = 262_147
_M61 = np.uint64(_FP_MOD)


def rolling_fingerprint(text: str) -> int:
    """Polynomial rolling hash of the whole document (Karp-Rabin style)
    over unicode CODEPOINTS — codepoints (not utf-8 bytes) so the same
    chain is expressible in SQL (DuckDB ``list_reduce`` over
    ``unicode(c)``), which is what makes this operator driver-oracle
    checkable (VERDICT r1 #5).

    This Python-int chain is the REFERENCE kernel: the hot path is
    ``fingerprint_texts`` (exact same value, vectorized); the property
    tests assert bit-identity between the two."""
    h = 0
    for c in text:
        h = (h * _FP_BASE + ord(c) + 1) % _FP_MOD
    return h


def _mulmod61(a, b):
    """Exact (a*b) mod 2^61-1 on uint64 arrays, for a, b < 2^61.

    32-bit split (VERDICT r2 #3): a*b = a1*b1*2^64 + (a1*b0+a0*b1)*2^32
    + a0*b0 with 2^61 === 1 (mod M), so 2^64 === 8 and m*2^32 folds as
    (m >> 29) + ((m & (2^29-1)) << 32).  Every intermediate stays below
    2^63, so plain uint64 wraparound never triggers — unlike the minhash
    ``_perm_values`` kernel, which tolerates wraparound because only
    candidate recall depends on it, this one is bit-exact (the SQL
    oracles recompute the same chain in HUGEINT)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a1, a0 = a >> np.uint64(32), a & np.uint64(0xFFFFFFFF)
    b1, b0 = b >> np.uint64(32), b & np.uint64(0xFFFFFFFF)
    hi = a1 * b1                    # < 2^58
    mid = a1 * b0 + a0 * b1         # < 2^62
    lo = a0 * b0                    # < 2^64, fold below
    t_hi = hi * np.uint64(8)        # 2^64 === 8  (mod M), < 2^61
    t_mid = (mid >> np.uint64(29)) + (
        (mid & np.uint64((1 << 29) - 1)) << np.uint64(32)
    )                               # < 2^33 + 2^61
    t_lo = (lo >> np.uint64(61)) + (lo & _M61)   # < 2^61 + 8
    s = t_hi + t_mid + t_lo         # < 2^63
    s = (s >> np.uint64(61)) + (s & _M61)
    s = (s >> np.uint64(61)) + (s & _M61)
    return s - (s >= _M61) * _M61   # branch-free conditional subtract


def _addmod61(a, b):
    """Exact (a+b) mod 2^61-1 for a, b < 2^61."""
    s = np.asarray(a, dtype=np.uint64) + np.asarray(b, dtype=np.uint64)
    s = (s >> np.uint64(61)) + (s & _M61)
    return s - (s >= _M61) * _M61   # branch-free conditional subtract


# B^0.. mod M, grown by doubling and CAPPED: a power table sized to the
# longest document would be O(doc length) memory (a 100M-char doc =
# an 800 MB table); docs beyond the cap fold through ``_polyhash_long``
# in cap-sized Horner chunks instead.
_PW_MAX = 1 << 20
_FP_POW = np.array([1], dtype=np.uint64)


def _fp_powers(n: int) -> np.ndarray:
    global _FP_POW
    assert n <= _PW_MAX + 1
    while len(_FP_POW) < n:
        step = _mulmod61(_FP_POW[-1:], np.uint64(_FP_BASE))  # B^len
        _FP_POW = np.concatenate([_FP_POW, _mulmod61(_FP_POW, step)])
    return _FP_POW


def _polyhash_long(text: str) -> np.uint64:
    """Horner fold over cap-sized chunks: h = h*B^|piece| + poly(piece)
    (mod M) — same value as the one-shot polynomial, bounded memory."""
    h = np.uint64(0)
    pw = _fp_powers(_PW_MAX + 1)
    for i in range(0, len(text), _PW_MAX):
        piece = text[i:i + _PW_MAX]
        p = _polyhash_segments(
            _codepoints([piece]), np.array([len(piece)], dtype=np.int64)
        )[0]
        h = _addmod61(_mulmod61(h, pw[len(piece)]), p)
    return np.uint64(h)


def _polyhash_segments(cp: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Exact Horner-chain hash of each codepoint segment, vectorized
    over ALL segments at once: fp = sum (cp_i+1) * B^(L-1-i)  (mod M).

    The per-segment mod-sum uses a 32-bit split of the terms so
    ``np.add.reduceat`` cannot overflow: sum of the low halves is
    < L*2^32 and of the high halves < L*2^29 — exact for segments up to
    2^29 codepoints (half a billion chars per doc; anything bigger
    should be chunk-hashed upstream).  Empty segments hash to 0, same
    as the Python-int chain."""
    out = np.zeros(len(lengths), dtype=np.uint64)
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    pw = _fp_powers(int(lengths.max()))
    pos = np.arange(len(cp), dtype=np.int64) - np.repeat(bounds[:-1], lengths)
    exp = np.repeat(lengths, lengths) - 1 - pos
    terms = _mulmod61(cp.astype(np.uint64) + np.uint64(1), pw[exp])
    st = bounds[:-1][nonempty]
    lo = np.add.reduceat(terms & np.uint64(0xFFFFFFFF), st)
    hi = np.add.reduceat(terms >> np.uint64(32), st)
    lo = (lo >> np.uint64(61)) + (lo & _M61)     # < 2^61
    s = lo + _mulmod61(hi, np.uint64(1) << np.uint64(32))   # < 2^62
    s = (s >> np.uint64(61)) + (s & _M61)
    s = (s >> np.uint64(61)) + (s & _M61)
    out[nonempty] = s - (s >= _M61) * _M61
    return out


def codepoints_of(text: str) -> np.ndarray:
    """Unicode codepoints of ONE string as uint32 — one C pass (utf-32
    encode + frombuffer), no Python loop over chars.  Shared by the
    fingerprint chain and dedup's char-shingle hasher so surrogate
    handling changes reach both.  (Lone surrogates raise
    UnicodeEncodeError here, where a scalar ``ord()`` chain would
    accept them; both call sites treat that as invalid input.)"""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def _codepoints(texts: list[str]) -> np.ndarray:
    """Concatenated codepoints of ``texts`` (see ``codepoints_of``)."""
    return codepoints_of("".join(texts))


def fingerprint_texts(texts: list[str]) -> np.ndarray:
    """Vectorized ``rolling_fingerprint`` of every text (bit-identical;
    VERDICT r2 #3 replaced the per-codepoint Python loop).  Chunked over
    docs — and the chunk is CACHE-sized, not heap-sized: the Horner
    pass allocates ~5 same-length temporaries, and at 8M codepoints
    (the old bound) they measured 24x slower per doc than at 32k
    (0.22 -> 0.009 ms/doc single-process, BASELINE.md r4); results are
    bit-identical across chunk sizes (reduceat per doc segment)."""
    lengths = np.fromiter((len(t) for t in texts), dtype=np.int64,
                          count=len(texts))
    out = np.zeros(len(texts), dtype=np.uint64)
    chunk_cp = 1 << 15
    lo = 0
    while lo < len(texts):
        if lengths[lo] > _PW_MAX:
            out[lo] = _polyhash_long(texts[lo])
            lo += 1
            continue
        hi, tot = lo, 0
        while (hi < len(texts) and lengths[hi] <= _PW_MAX
               and (hi == lo or tot + lengths[hi] <= chunk_cp)):
            tot += lengths[hi]
            hi += 1
        cp = _codepoints(texts[lo:hi])
        out[lo:hi] = _polyhash_segments(cp, lengths[lo:hi])
        lo = hi
    return out


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    fps = fingerprint_texts(batch.column("text").to_pylist())
    return batch.append_column(
        "fingerprint", pa.array(fps.astype(np.int64), type=pa.int64())
    )


# SimHash token hash: Karp-Rabin codepoint chain (the same chain as
# rolling_fingerprint) plus two multiplicative mixing rounds mod the
# Mersenne prime.  Chosen over a cryptographic hash so the ENTIRE
# simhash computation is expressible in DuckDB (list_reduce over
# unicode(c), then (h*B2+C) % M twice) — which is what makes
# ``simhash_dedup`` driver-oracle checkable (VERDICT r1 #5).  Bit bias
# over a 2k-word vocabulary measured 0.48-0.55 per bit (two rounds;
# one round was 0.43-0.57).
_SIMHASH_MIX = ((1_220_703_125, 104_729), (906_585_445, 2_654_435_761))
SIMHASH_BITS = 60  # hash values live below the 61-bit Mersenne prime


def _token_hash60(token: str) -> int:
    """REFERENCE kernel (Python ints, used by the scalar path and the
    bit-identity property tests); the hot path is ``_token_hash_vec``."""
    h = 0
    for c in token:
        h = (h * _FP_BASE + ord(c) + 1) % _FP_MOD
    for b2, c1 in _SIMHASH_MIX:
        h = (h * b2 + c1) % _FP_MOD
    return h


def _token_hash_vec(tokens: list[str]) -> np.ndarray:
    """Vectorized ``_token_hash60`` over a token list: one polyhash pass
    over the concatenated codepoints, then the two mixing rounds as
    array ops (VERDICT r2 #3)."""
    lengths = np.fromiter((len(t) for t in tokens), dtype=np.int64,
                          count=len(tokens))
    if lengths.size and int(lengths.max()) > _PW_MAX:
        # pathological mega-tokens: chunk-fold those, vectorize the rest
        short = lengths <= _PW_MAX
        h = np.zeros(len(tokens), dtype=np.uint64)
        h[short] = _polyhash_segments(
            _codepoints([t for t, s in zip(tokens, short) if s]),
            lengths[short],
        )
        for i in np.nonzero(~short)[0]:
            h[i] = _polyhash_long(tokens[i])
    else:
        h = _polyhash_segments(_codepoints(tokens), lengths)
    for b2, c1 in _SIMHASH_MIX:
        h = _mulmod61(h, np.uint64(b2)) + np.uint64(c1)   # < 2^61 + 2^32
        h = (h >> np.uint64(61)) + (h & _M61)
        h = h - (h >= _M61) * _M61
    return h


class SimHasher:
    """60-bit SimHash over whitespace tokens, vectorized per batch:
    tokenize (C-level ``str.split``), hash the batch's UNIQUE tokens in
    one ``_token_hash_vec`` pass (vocabulary repeats make uniques far
    fewer than positions), then fold the per-position bit matrix into
    per-doc bit-majority sums with one ``add.reduceat`` — no per-token
    or per-doc Python loop (VERDICT r2 #3)."""

    _SHIFTS = np.arange(SIMHASH_BITS, dtype=np.uint64)
    _CHUNK_POS = 8_192  # positions per bit-matrix chunk.  Cache-sized,
    # not heap-sized: the (200k x 60) int32 matrix measured 4x slower
    # per doc than a ~2 MB chunk (0.26 -> 0.066 ms/doc single-process,
    # BASELINE.md r4); results are bit-identical (majority sums are
    # associative over position chunks)

    def simhash(self, text: str) -> int:
        """Scalar reference chain (property-tested against __call__)."""
        acc = np.zeros(SIMHASH_BITS, dtype=np.int64)
        for tok in text.split():
            h = np.uint64(_token_hash60(tok))
            bits = ((h >> self._SHIFTS) & np.uint64(1)).astype(np.int64)
            acc += 2 * bits - 1
        out = 0
        for i in range(SIMHASH_BITS):
            if acc[i] > 0:
                out |= 1 << i
        return out

    def simhash_texts(self, texts: list[str]) -> np.ndarray:
        tok_lists = [t.split() for t in texts]
        counts = np.fromiter((len(tk) for tk in tok_lists), dtype=np.int64,
                             count=len(tok_lists))
        flat = [tok for tk in tok_lists for tok in tk]
        out = np.zeros(len(texts), dtype=np.uint64)
        if not flat:
            return out
        uniq, inv = np.unique(np.array(flat, dtype=object),
                              return_inverse=True)
        tok_hash = _token_hash_vec(list(uniq))[inv]
        bounds = np.concatenate([[0], np.cumsum(counts)])
        nonempty = counts > 0
        acc = np.zeros((len(texts), SIMHASH_BITS), dtype=np.int64)
        # chunk docs so the (positions x 60) int32 bit matrix stays ~50 MB
        chunk_pos = self._CHUNK_POS
        lo = 0
        while lo < len(texts):
            hi = lo + 1
            if bounds[hi] - bounds[lo] > chunk_pos:
                # ONE doc bigger than the whole chunk budget (a 10M-token
                # boilerplate page would otherwise allocate a 10M x 60
                # matrix): bit-majority sums are associative over tokens,
                # so fold the doc's positions in bounded sub-chunks
                for s in range(int(bounds[lo]), int(bounds[hi]), chunk_pos):
                    seg = tok_hash[s:min(s + chunk_pos, int(bounds[hi]))]
                    contrib = (
                        2 * ((seg[:, None] >> self._SHIFTS[None, :])
                             & np.uint64(1)).astype(np.int32) - 1
                    )
                    acc[lo] += contrib.sum(axis=0, dtype=np.int64)
                lo = hi
                continue
            while hi < len(texts) and bounds[hi + 1] - bounds[lo] <= chunk_pos:
                hi += 1
            seg = tok_hash[bounds[lo]:bounds[hi]]
            if len(seg):
                contrib = (
                    2 * ((seg[:, None] >> self._SHIFTS[None, :])
                         & np.uint64(1)).astype(np.int32) - 1
                )
                ne = nonempty[lo:hi]
                st = (bounds[lo:hi] - bounds[lo])[ne]
                acc[lo:hi][ne] = np.add.reduceat(contrib, st, axis=0)
            lo = hi
        pos_bits = (acc > 0).astype(np.uint64)
        return (pos_bits << self._SHIFTS[None, :]).sum(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = self.simhash_texts(batch.column("text").to_pylist())
        # int64 view of the uint64 hash (Arrow-friendly)
        return batch.append_column(
            "simhash", pa.array(sh.view(np.int64), type=pa.int64())
        )


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


# --- quality scoring ---------------------------------------------------------
# Punctuation class shared verbatim with the SQL oracle (RE2 both sides).
PUNCT_PATTERN = r"[.,;:!?]"


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Document quality signals: length, punctuation ratio, stopword
    ratio, and a linear composite score.  Pure pyarrow.compute string
    kernels; the score arithmetic is written with the same operation
    order as the SQL oracle so doubles match bit-for-bit."""
    batch = batch.combine_chunks()
    text = batch.column("text")
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_punct = pc.count_substring_regex(text, PUNCT_PATTERN).cast(pa.int64())
    toks = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(toks)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    n_tokens = pa.array(
        _segment_count(toks, nonempty, len(batch)), type=pa.int64()
    )
    stop_mask = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(
        zero_copy_only=False
    )
    n_stop = _segment_count(toks, stop_mask, len(batch))
    nc = n_chars.to_numpy(zero_copy_only=False)
    npu = n_punct.to_numpy(zero_copy_only=False)
    nt = n_tokens.to_numpy(zero_copy_only=False)
    denom_c = np.maximum(nc, 1)
    denom_t = np.maximum(nt, 1)
    punct_ratio = npu / denom_c
    stop_ratio = n_stop / denom_t
    # linear composite, left-associated exactly like the oracle SQL
    score = (stop_ratio * 0.5) + (punct_ratio * 0.3)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": n_chars,
            "n_punct": n_punct,
            "punct_ratio": pa.array(punct_ratio, type=pa.float64()),
            "stop_ratio": pa.array(stop_ratio, type=pa.float64()),
            "quality_score": pa.array(score, type=pa.float64()),
        }
    )


# --- repetition filter (Gopher-style) ----------------------------------------


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-document line-repetition signals (the Gopher quality rules'
    "fraction of characters in duplicate lines"; Rae et al. 2021, table
    A1): n_lines, distinct_lines, dup_line_frac, and the char-weighted
    dup_char_frac (chars belonging to any line value occurring >= 2
    times in the doc, over all line chars).

    Fully vectorized and hash-free: ``pyarrow.compute`` splits and
    ``dictionary_encode`` factorizes the flattened lines exactly (C++
    string equality — no collision caveat), then per-doc distinct /
    duplicate masses are two ``np.bincount`` passes over
    ``doc_index * n_dict + line_code`` keys.  Fractions are emitted
    integer-scaled (``floor(x*10000 + 0.5)``) with the same float64
    operation order as the SQL oracle, per the repo convention."""
    batch = batch.combine_chunks()
    n = len(batch)
    lines = pc.split_pattern(batch.column("text"), "\n")
    flat = pc.list_flatten(lines).combine_chunks()
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    per_doc = pc.list_value_length(lines).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    seg = np.repeat(np.arange(n, dtype=np.int64), per_doc)
    dic = flat.dictionary_encode()
    codes = np.asarray(dic.indices, dtype=np.int64)
    n_dict = len(dic.dictionary)
    key = seg * max(n_dict, 1) + codes
    uniq, inv, cnt = np.unique(key, return_inverse=True,
                               return_counts=True)
    distinct = np.bincount(uniq // max(n_dict, 1), minlength=n)
    dup_mask = (cnt[inv] >= 2).astype(np.int64)
    total_chars = np.bincount(seg, weights=lens, minlength=n)
    dup_chars = np.bincount(seg, weights=lens * dup_mask, minlength=n)
    # same float64 op order as the oracle: (1 - distinct/total)*1e4+0.5
    dup_line_frac = np.floor(
        (1.0 - distinct.astype(np.float64) / per_doc) * 10000.0 + 0.5
    ).astype(np.int64)
    dup_char_frac = np.floor(
        dup_chars / np.maximum(total_chars, 1.0) * 10000.0 + 0.5
    ).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(per_doc, type=pa.int64()),
            "distinct_lines": pa.array(distinct, type=pa.int64()),
            "dup_line_frac_e4": pa.array(dup_line_frac, type=pa.int64()),
            "dup_char_frac_e4": pa.array(dup_char_frac, type=pa.int64()),
        }
    )


def _top2gram_core(batch: pa.Table):
    """Shared 2-gram winner computation: (win_seg, win_gram, win_cnt,
    n_2grams) with win_* indexed by batch row position, or None when the
    batch has no 2-grams at all.

    No per-token Python boxing (this runs inside the curate gate's hot
    path): words stay an Arrow dictionary, a 2-gram is the int pair of
    its word codes, per-(doc, pair) counts come from one lexsort +
    run-length pass, and gram STRINGS are decoded only for the tied
    max-count candidates (normally one per doc) to apply the
    (count DESC, gram ASC) tie-break of the SQL oracle."""
    n = len(batch)
    if n == 0:
        return None
    toks = pc.utf8_split_whitespace(batch.column("text"))
    flat = pc.list_flatten(toks).combine_chunks()
    per_doc = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    seg = np.repeat(np.arange(n, dtype=np.int64), per_doc)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    seg = seg[keep]
    if len(seg) == 0:
        return None
    wdic = flat.dictionary_encode()
    if isinstance(wdic, pa.ChunkedArray):
        wdic = wdic.combine_chunks()
    codes = np.asarray(wdic.indices, dtype=np.int64)
    words_dict = wdic.dictionary
    # adjacent pairs within a document: position i pairs with i+1 when
    # both belong to the same segment
    same = seg[:-1] == seg[1:]
    if not same.any():
        return None
    g1, g2 = codes[:-1][same], codes[1:][same]
    gseg = seg[:-1][same]
    n_2grams = np.bincount(gseg, minlength=n)
    # per-(doc, pair) counts: lexsort + run lengths (no composite key,
    # so no overflow bound on dictionary size)
    order = np.lexsort((g2, g1, gseg))
    gs, a, b = gseg[order], g1[order], g2[order]
    new = np.empty(len(gs), dtype=bool)
    new[0] = True
    new[1:] = (gs[1:] != gs[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.nonzero(new)[0]
    cnt = np.diff(np.append(starts, len(gs))).astype(np.int64)
    useg, ua, ub = gs[starts], a[starts], b[starts]
    # per-doc max count, then decode strings ONLY for the tied entries
    order2 = np.lexsort((-cnt, useg))
    sseg, scnt = useg[order2], cnt[order2]
    run = np.empty(len(sseg), dtype=bool)
    run[0] = True
    run[1:] = sseg[1:] != sseg[:-1]
    run_start = np.maximum.accumulate(
        np.where(run, np.arange(len(sseg)), -1)
    )
    tied = scnt == scnt[run_start]
    t_idx = order2[tied]
    t_seg, t_cnt = useg[t_idx], cnt[t_idx]
    ga = words_dict.take(pa.array(ua[t_idx]))
    gb = words_dict.take(pa.array(ub[t_idx]))
    t_gram = (np.asarray(ga.to_pylist(), dtype=object) + " "
              + np.asarray(gb.to_pylist(), dtype=object))
    order3 = np.lexsort((t_gram, t_seg))
    fseg = t_seg[order3]
    first = np.empty(len(fseg), dtype=bool)
    first[0] = True
    first[1:] = fseg[1:] != fseg[:-1]
    win = order3[first]
    return (t_seg[win], t_gram[win], t_cnt[win], n_2grams)


def top_2gram_frac_aligned(batch: pa.Table) -> np.ndarray:
    """Per-input-row ``top_2gram_frac_e4`` as int64, with -1 for rows
    that have no 2-grams (< 2 tokens) — the gate-friendly view used by
    ``prep.curate_corpus`` (its SQL oracle treats the missing case as
    ``coalesce(frac, 0)``, i.e. pass)."""
    out = np.full(len(batch), -1, dtype=np.int64)
    core = _top2gram_core(batch.combine_chunks())
    if core is None:
        return out
    win_seg, _, win_cnt, n_2grams = core
    totals = n_2grams[win_seg].astype(np.float64)
    out[win_seg] = np.floor(
        win_cnt / totals * 10000.0 + 0.5
    ).astype(np.int64)
    return out


def top_2gram_stats_batch(batch: pa.Table) -> pa.Table:
    """Per-document top word-2-gram occurrence fraction (the companion
    Gopher repetition rule: a doc dominated by one repeated phrase is
    boilerplate).  Documents with fewer than 2 whitespace tokens emit no
    row (no 2-grams exist).

    Vectorized end-to-end: whitespace split + nonempty filter (the
    repo's shared tokenizer convention), adjacent-pair concat on object
    arrays, arrow ``dictionary_encode`` factorization of the grams, and
    per-(doc, gram) counts via ``np.unique``; the per-doc argmax with
    the (count DESC, gram ASC) tie-break is one lexsort + segment-first
    take — identical to the SQL oracle's ``row_number() OVER (ORDER BY
    c DESC, g)``."""
    batch = batch.combine_chunks()
    out_schema = pa.schema(
        [("doc_id", batch.schema.field("doc_id").type),
         ("top_gram", pa.string()), ("top_count", pa.int64()),
         ("n_2grams", pa.int64()), ("top_2gram_frac_e4", pa.int64())]
    )
    core = _top2gram_core(batch)
    if core is None:
        return out_schema.empty_table()
    win_seg, win_gram, win_cnt, n_2grams = core
    totals = n_2grams[win_seg].astype(np.float64)
    frac = np.floor(win_cnt / totals * 10000.0 + 0.5).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id").take(
                pa.array(win_seg, type=pa.int64())
            ),
            "top_gram": pa.array(list(win_gram), type=pa.string()),
            "top_count": pa.array(win_cnt, type=pa.int64()),
            "n_2grams": pa.array(n_2grams[win_seg].astype(np.int64),
                                 type=pa.int64()),
            "top_2gram_frac_e4": pa.array(frac, type=pa.int64()),
        }
    ).cast(out_schema)


# --- PII scrubbing ------------------------------------------------------------

# Both arrow's replace_substring_regex and DuckDB's regexp_replace run
# RE2, so the engine and the SQL oracle apply the IDENTICAL pattern
# semantics — keep these literals in sync with queries._base_oracles.
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?[0-9][0-9 ()-]{6,}[0-9]"


def scrub_pii_batch(batch: pa.Table) -> pa.Table:
    """Redact emails then phone-like digit runs, counting each: the
    privacy-scrub stage a training-data pipeline runs before export.
    Order matters and is part of the contract: phones are counted AFTER
    email redaction (an email's digits can't double-count as a phone),
    so the oracle nests its regexp_replace the same way.  Pure RE2
    kernels per block — no Python loop, no exchange."""
    batch = batch.combine_chunks()
    text = batch.column("text")
    n_emails = pc.count_substring_regex(text, EMAIL_RE).cast(pa.int64())
    t1 = pc.replace_substring_regex(text, EMAIL_RE, "<EMAIL>")
    n_phones = pc.count_substring_regex(t1, PHONE_RE).cast(pa.int64())
    t2 = pc.replace_substring_regex(t1, PHONE_RE, "<PHONE>")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_emails": n_emails,
            "n_phones": n_phones,
            "clean_text": t2,
        }
    )


# --- blocklist token filter (C4/Dolma-style taboo-word rule) -----------------

# Corpus-tuned demo blocklist; production pipelines ship their own.
# Part of the engine<->oracle contract (the SQL literal lists the same
# words), like STOPWORDS above.
BLOCKLIST = ("slow", "spark", "legacy")


def blocklist_stats_batch(batch: pa.Table, *,
                          blocklist: tuple = BLOCKLIST,
                          max_bp: int = 900) -> pa.Table:
    """Per-document blocklist-token signals and the keep decision —
    the C4 "bad words" rule generalized to Dolma's fractional form:
    a doc survives iff flagged tokens are <= ``max_bp`` basis points
    of its (lowercased, whitespace) tokens.  The fraction is EXACT
    integer arithmetic (``n*10000 // max(n_tokens,1)``) so the DuckDB
    oracle hash-matches at the threshold boundary.  Pure per-block
    Arrow kernels — no exchange, no Python row loop.
    """
    batch = batch.combine_chunks()
    text = pc.utf8_lower(batch.column("text"))
    toks = pc.utf8_split_whitespace(text)
    flat = pc.list_flatten(toks)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    n_tokens = _segment_count(toks, nonempty, len(batch)).astype(np.int64)
    flagged = pc.is_in(
        flat, value_set=pa.array(list(blocklist))
    ).to_numpy(zero_copy_only=False)
    n_flagged = _segment_count(toks, flagged, len(batch)).astype(np.int64)
    flag_bp = (n_flagged * 10000) // np.maximum(n_tokens, 1)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_flagged": pa.array(n_flagged, type=pa.int64()),
            "flag_bp": pa.array(flag_bp, type=pa.int64()),
            "keep": pa.array(flag_bp <= max_bp),
        }
    )


def lexical_diversity_batch(batch: pa.Table) -> pa.Table:
    """Per-document type-token ratio (lexical diversity): distinct
    non-empty whitespace tokens / total tokens, in EXACT basis points
    (``n_types * 10000 // max(n_tokens, 1)``) so the DuckDB oracle
    (``list_distinct`` over the same split) hash-matches.

    Distinctness is EXACT string identity — ``pc.dictionary_encode``
    like ``dedup.dedup_lines_within_doc``, no hashing, no collisions.
    One lexsort over (doc, code) marks first occurrences; everything
    is per-block Arrow/numpy, no exchange, no Python row loop.  Rows
    are atomic in Ray Data so a doc never spans blocks.
    """
    batch = batch.combine_chunks()
    toks = pc.utf8_split_whitespace(batch.column("text"))
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    n_rows = len(batch)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    kept_seg = parents[nonempty]
    n_tokens = np.bincount(kept_seg, minlength=n_rows).astype(np.int64)
    if kept_seg.size:
        kept = flat.filter(pa.array(nonempty))
        codes = pc.dictionary_encode(kept).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, kept_seg))
        s_seg, s_code = kept_seg[order], codes[order]
        first = np.ones(codes.size, dtype=bool)
        first[1:] = (s_seg[1:] != s_seg[:-1]) | (s_code[1:] != s_code[:-1])
        n_types = np.bincount(s_seg[first], minlength=n_rows).astype(np.int64)
    else:
        n_types = np.zeros(n_rows, dtype=np.int64)
    ttr_bp = (n_types * 10000) // np.maximum(n_tokens, 1)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_types": pa.array(n_types, type=pa.int64()),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "ttr_bp": pa.array(ttr_bp, type=pa.int64()),
        }
    )


# NFC stability bound: every codepoint below U+0300 has NFC_QC = Yes
# and canonical combining class 0 (combining marks start at U+0300,
# and no composing second element or non-recomposing singleton lives
# below it), so a string whose codepoints are ALL below the bound is
# already NFC — brute-verified for every singleton and every ordered
# pair below the bound in tests/test_new_operators.py.  In UTF-8,
# codepoints >= U+0300 have lead byte >= 0xCC while ASCII +
# continuation bytes + 2-byte leads up to U+02FF are all < 0xCC, so
# the RE2 class scan below is a sufficient (and cheap) trigger.
NFC_SAFE_BOUND = 0x300
_NFC_TRIGGER_RE = "[\\x{0300}-\\x{10FFFF}]"


def normalize_nfc_batch(batch: pa.Table,
                        text_col: str = "text") -> pa.Table:
    """Unicode NFC normalization with a vectorized stability fast
    path: one RE2 scan flags the docs that CAN be non-NFC (any
    codepoint >= U+0300, see ``NFC_SAFE_BOUND``); only that minority
    pays ``unicodedata.normalize`` — one C call per flagged doc, not
    per char — and results scatter back with an Arrow concat + take
    permutation (no full-column Python list).  Mostly-ASCII web
    corpora take the fast path for nearly every row.

    The reference engine strips whitespace only (M9,
    ``ollama_local_ocr.py``); canonical normalization is a
    beyond-reference training-data operator (SURVEY §8).

    Returns (doc_id, text=normalized, changed, n_chars_before,
    n_chars_after) — char counts in codepoints on both sides so the
    DuckDB ``nfc_normalize``/``length`` oracle matches exactly.
    """
    import unicodedata

    batch = batch.combine_chunks()
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(batch)
    before_len = pc.utf8_length(text)
    # fill_null(False): a null text row yields a null match, which
    # would poison the boolean mask (ADVICE r4); null texts take the
    # fast path and pass through unchanged
    maybe = pc.fill_null(
        pc.match_substring_regex(text, _NFC_TRIGGER_RE), False
    ).to_numpy(zero_copy_only=False)
    if maybe.any():
        idx = np.nonzero(maybe)[0]
        sub = text.take(pa.array(idx)).to_pylist()
        norm_sub = pa.array(
            [unicodedata.normalize("NFC", s) for s in sub], type=text.type)
        stable = text.filter(pa.array(~maybe))
        merged = pa.concat_arrays([stable, norm_sub])
        perm = np.empty(n, dtype=np.int64)
        perm[~maybe] = np.arange(n - idx.size)
        perm[maybe] = (n - idx.size) + np.arange(idx.size)
        text_norm = merged.take(pa.array(perm))
    else:
        text_norm = text
    changed = pc.not_equal(text_norm, text)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "text": text_norm,
            "changed": changed,
            "n_chars_before": pc.cast(before_len, pa.int64()),
            "n_chars_after": pc.cast(pc.utf8_length(text_norm), pa.int64()),
        }
    )


# --- per-source boilerplate profiling (CCNet/jusText-style) -----------------

_BOILER_SEP = "\x1f"


def boiler_df_partial(batch: pa.Table, *, min_len: int = 3) -> pa.Table:
    """Per-block partial DISTINCT-doc frequencies of (source, word):
    ``(skey, df)`` where ``skey = source + US + word`` and ``df``
    counts the block's documents (not instances) containing the
    ``>= min_len``-char whitespace word.  Two Arrow group_bys — the
    distinct (doc, word) projection, then per-key doc counts — so the
    exchange moves (source x vocab)-sized partials, never
    corpus-sized rows.  Rows are atomic in Ray Data, so doc-level
    distinctness is fully block-local."""
    batch = batch.combine_chunks()
    toks = pc.utf8_split_whitespace(batch.column("text"))
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    mask = pc.greater_equal(pc.utf8_length(flat), min_len)
    p = pc.filter(parents, mask)
    src = batch.column("source").take(p)
    # the composite skey is only unambiguous if neither side embeds
    # the U+001F separator (it is NON-whitespace, so a token could
    # legally carry it); fail loudly instead of desyncing from the
    # oracle (ADVICE r4)
    words = pc.filter(flat, mask)
    for arr, what in ((words, "token"), (src, "source")):
        bad = pc.any(pc.match_substring(arr, _BOILER_SEP)).as_py()
        if bad:
            raise ValueError(
                f"source_boilerplate: a {what} contains the U+001F "
                "key separator; pre-clean the corpus or change "
                "_BOILER_SEP"
            )
    skey = pc.binary_join_element_wise(src, words, pa.scalar(_BOILER_SEP))
    pairs = pa.table({"p": p, "skey": skey}).group_by(
        ["p", "skey"]).aggregate([])
    out = pairs.group_by("skey").aggregate([("p", "count")])
    return pa.table(
        {"skey": out.column("skey"),
         "df": out.column("p_count").cast(pa.int64())}
    )


def source_boilerplate(docs, *, thr_bp: int = 8000, min_len: int = 3,
                       max_boiler: int = 100_000):
    """Per-document boilerplate ratio: the fraction of a doc's
    distinct ``>= min_len``-char words that are BOILERPLATE in its
    source — appearing in more than ``thr_bp``/10000 of the source's
    documents (the per-source high-document-frequency template test
    CCNet/jusText run on lines; word granularity here because the
    synthetic corpus has no newlines, like ``remove_common_lines``).

    Distinct from corpus-level line dedup in both statistic and
    scope: DISTINCT-doc frequency (a doc repeating a word counts
    once), scoped PER SOURCE (a nav template universal in one crawl
    but absent elsewhere still flags), and the output is a per-doc
    profiling score, not a rewrite.

    Plan: (1) one streaming pass of per-block (skey, df) partials →
    one vocabulary-sized groupby-sum exchange; (2) the threshold
    filter maps over that bounded aggregate with the docs-per-source
    dict broadcast (sources are a small dimension); the qualifying
    key set is collected driver-side behind a LOUD ``max_boiler``
    cap — by construction at most ``total distinct (doc,word) pairs
    / (thr_bp/10000 * min-source-size)`` keys can qualify; (3) one
    exchange-free scoring scan (``pc.is_in`` against the broadcast
    set).  ``boiler_bp`` is exact-integer basis points so the DuckDB
    oracle hash-matches.
    """
    from ray.data.aggregate import Sum

    counted = docs.groupby("source").count().take_all()
    sources = pa.array([r["source"] for r in counted])
    n_by_source = np.array([r["count()"] for r in counted], dtype=np.int64)

    def keep_hot(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        skey = batch.column("skey")
        src = pc.list_element(
            pc.split_pattern(skey, _BOILER_SEP, max_splits=1), 0)
        at = pc.index_in(src, value_set=sources.cast(src.type))
        if at.null_count:  # ADVICE r4: name the culprit, loudly
            missing = sorted(set(src.filter(pc.is_null(at)).to_pylist()))[:5]
            raise RuntimeError(
                "source_boilerplate: sources absent from the count "
                f"pass reached the df pass: {missing} — the docs "
                "lineage is non-deterministic between passes"
            )
        nd = n_by_source[at.to_numpy(zero_copy_only=False)]
        df = batch.column("df").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(df * 10000 > thr_bp * nd))

    hot_rows = (
        docs.map_batches(
            lambda b: boiler_df_partial(b, min_len=min_len),
            batch_format="pyarrow")
        .groupby("skey").aggregate(Sum("df", alias_name="df"))
        .map_batches(keep_hot, batch_format="pyarrow")
        .limit(max_boiler + 1)
        .take_all()
    )
    if len(hot_rows) > max_boiler:
        raise ValueError(
            f"source_boilerplate: > {max_boiler} qualifying keys; raise "
            f"thr_bp (={thr_bp}) or max_boiler — refusing to broadcast "
            f"an unbounded set")
    hot_set = pa.array([r["skey"] for r in hot_rows], type=pa.string())

    def score(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        n = len(batch)
        toks = pc.utf8_split_whitespace(batch.column("text"))
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        mask = pc.greater_equal(pc.utf8_length(flat), min_len)
        p = pc.filter(parents, mask)
        skey = pc.binary_join_element_wise(
            batch.column("source").take(p), pc.filter(flat, mask),
            pa.scalar(_BOILER_SEP))
        pairs = pa.table({"p": p, "skey": skey}).group_by(
            ["p", "skey"]).aggregate([])
        pp = pairs.column("p").to_numpy(zero_copy_only=False)
        isb = pc.is_in(pairs.column("skey"), value_set=hot_set).to_numpy(
            zero_copy_only=False)
        n_units = np.bincount(pp, minlength=n).astype(np.int64)
        n_boiler = np.bincount(pp[isb], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_units": pa.array(n_units, type=pa.int64()),
                "n_boiler": pa.array(n_boiler, type=pa.int64()),
                "boiler_bp": pa.array(
                    (n_boiler * 10000) // np.maximum(n_units, 1),
                    type=pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")

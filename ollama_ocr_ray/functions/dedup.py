"""Deduplication operators: exact, MinHash+LSH, SimHash banding.

Scale notes (the part that matters at 100 TB):
- exact dedup never shuffles raw text: a content hash is computed
  vectorized per batch, *partial* (hash → min doc_id, count) aggregates
  are emitted per batch, and only those partials go through the
  ``groupby`` exchange (pre-aggregation pattern).
- MinHash-LSH (word- and char-shingle) shuffles only (bucket, doc_id)
  rows through the band exchange — no text, no signatures; candidate
  pairs re-join text once by doc_id and verify EXACT shingle Jaccard
  (``_lsh_exact_pairs``).
- SimHash banding shuffles 4×15-bit band keys per doc and verifies
  Hamming distance inside groups.
- dup_clusters iterates min-label propagation over the candidate-pair
  graph only — exchanges are O(pairs), never O(corpus).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .text import SimHasher, hamming64

# --- exact dedup ------------------------------------------------------------


def word_kgrams(tokens: list[str], k: int) -> list[str]:
    """Word-k-gram list (duplicates kept), the ONE gram construction
    shared by MinHash shingling, exact-Jaccard verify, and benchmark
    decontamination (``contamination.py``): grams joined by a single
    space; fewer than k tokens degrade to the whole (possibly empty)
    token string — mirroring the SQL oracles' CASE fallback."""
    if len(tokens) < k:
        return [" ".join(tokens)]
    return [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]


def _content_hash_batch(batch: pa.Table) -> pa.Table:
    """Partial aggregate: one row per distinct content hash per batch."""
    texts = batch.column("text").to_pylist()
    hashes = pa.array(
        [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]
    )
    t = pa.table({"h": hashes, "doc_id": batch.column("doc_id")})
    return t.group_by("h").aggregate([("doc_id", "min"), ("doc_id", "count")])


def exact_dedup(docs):
    """documents Dataset → (doc_id, n_dups): representative (min doc_id)
    and multiplicity per distinct text."""
    from ray.data.aggregate import Min, Sum

    partials = docs.map_batches(_content_hash_batch, batch_format="pyarrow")
    agg = partials.groupby("h").aggregate(
        Min("doc_id_min", alias_name="doc_id"),
        Sum("doc_id_count", alias_name="n_dups"),
    )
    return agg.select_columns(["doc_id", "n_dups"])


def exact_droplist(docs):
    """(doc_id) of every document whose text duplicates a SMALLER
    doc_id — the removal side that ``relational.anti_join`` applies.
    Only (content-hash, doc_id) rows cross the exchange.

    Exact under hot-key block splits: a text duplicated past the
    block-size bound splits its sorted run.  Rows above their
    segment's LOCAL min are certainly above the global min, so each
    block drops them at once.  A split hash appears only as a boundary
    segment, so each block's first/last segments also emit their
    (hash, local_min) markers (<= 2 per block), and those go through
    ``folds.exact_segment_fold``: every marker local-min except the
    per-hash global min is a duplicate too.  The sorted hash rows are
    materialized once, since both passes read them."""
    from .folds import exact_segment_fold

    marker_schema = pa.schema([("h", pa.string()), ("doc_id", pa.int64())])
    dropped_schema = pa.schema([("doc_id", pa.int64())])

    def hash_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {"h": pa.array(
                [hashlib.sha256(t.encode("utf-8")).hexdigest()
                 for t in texts]
            ),
             "doc_id": batch.column("doc_id")}
        )

    def local_mins(batch: pa.Table):
        """(segment starts, ids, per-row segment min) of a hash-sorted
        table."""
        starts, ends = _segment_bounds(batch.column("h"))
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return starts, ids, np.repeat(np.minimum.reduceat(ids, starts),
                                      ends - starts)

    def drop_above_min(batch: pa.Table) -> pa.Table:
        """The fold, and the in-block drop: every id above its
        segment's min."""
        if batch.num_rows == 0 or batch.num_columns == 0:
            return dropped_schema.empty_table()
        _, ids, row_min = local_mins(batch.combine_chunks())
        return pa.table(
            {"doc_id": pa.array(ids[ids != row_min], type=pa.int64())}
        )

    def boundary_markers(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return marker_schema.empty_table()
        batch = batch.combine_chunks()
        starts, _, row_min = local_mins(batch)
        m = np.unique(starts[[0, -1]])
        return pa.table(
            {"h": batch.column("h").take(pa.array(m)),
             "doc_id": pa.array(row_min[m], type=pa.int64())}
        ).cast(marker_schema)

    hashed = (
        docs.map_batches(hash_rows, batch_format="pyarrow")
        .sort("h")
        .materialize()
    )
    dropped = hashed.map_batches(
        drop_above_min, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )
    markers = hashed.map_batches(
        boundary_markers, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return dropped.union(exact_segment_fold(
        markers, key_cols=["h"], fold=drop_above_min,
        raw_schema=marker_schema, out_schema=dropped_schema,
    ))


# --- MinHash + LSH ----------------------------------------------------------
_MERSENNE = (1 << 61) - 1


class MinHashLSH:
    """Actor-pool stage: doc text → LSH band rows.

    __init__ draws the (a, b) hash-permutation parameters once per actor
    from a fixed seed (deterministic across actors); __call__ emits
    ``bands`` rows per doc: (band_id, band_hash, doc_id, sig).
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 3,
                 seed: int = 42):
        assert num_perm % bands == 0
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k

    # shingles as a LIST (duplicates allowed): the signature min is
    # invariant to multiplicity, and skipping per-doc set-building is
    # what lets a whole batch hash+reduce in one vectorized pass
    def _shingle_list(self, text: str) -> list[str]:
        return word_kgrams(text.split(), self.shingle_k)

    _SHINGLE_CHUNK = 32_768  # caps the (num_perm x chunk) work matrix.
    # Sized for cache residency, not just heap: at 2M the (64 x 2M)
    # uint64 matrix is ~1 GB of DRAM traffic per pass and measured
    # 13x SLOWER per doc than cache-sized chunks even single-process
    # (0.82 -> 0.06 ms/doc, BASELINE.md r4); signatures are
    # bit-identical across chunk sizes (reduceat per doc segment)

    def _hash_shingles_batch(self, texts: list[str]):
        """(hashes, lengths): one uint64 hash per shingle of every text.
        blake2b per word-shingle here; subclasses with denser shingle
        spaces (char k-grams) override with a vectorized rolling hash."""
        lengths = np.empty(len(texts), dtype=np.int64)
        all_sh: list[str] = []
        for i, t in enumerate(texts):
            sl = self._shingle_list(t)
            lengths[i] = len(sl)
            all_sh.extend(sl)
        h = np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(s.encode(), digest_size=8).digest(), "big"
                )
                for s in all_sh
            ),
            dtype=np.uint64,
            count=len(all_sh),
        )
        return h, lengths

    def _perm_values(self, seg: np.ndarray) -> np.ndarray:
        """(num_perm, n_shingles) universal-hash values.  uint64
        multiply + Mersenne mod; hash identity only affects candidate
        RECALL — the exact-Jaccard verify stage keeps precision.
        np.outer instead of ``a[:, None] * seg[None, :]``: the stride-0
        broadcast multiply hits numpy's slow path (~29x, measured)."""
        v = np.outer(self.a, seg)  # uint64 wraparound == broadcast form
        v += self.b[:, None]
        return v % _MERSENNE

    _SIG_DTYPE = np.uint64

    def signature_batch(self, texts: list[str]) -> np.ndarray:
        """(n_docs, num_perm) signatures in one pass: hash every shingle
        of the batch once, ONE (num_perm x total_shingles) universal-hash
        multiply, then segment-min per document via minimum.reduceat —
        no per-document Python loop over permutations (VERDICT r1 #8)."""
        h, lengths = self._hash_shingles_batch(texts)
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        out = np.empty((len(texts), self.num_perm), dtype=self._SIG_DTYPE)
        # chunk the matrix so huge batches stay within worker heap
        lo_doc = 0
        while lo_doc < len(texts):
            hi_doc = lo_doc
            while (hi_doc < len(texts)
                   and bounds[hi_doc + 1] - bounds[lo_doc] <= self._SHINGLE_CHUNK):
                hi_doc += 1
            hi_doc = max(hi_doc, lo_doc + 1)  # a single giant doc still goes
            seg = h[bounds[lo_doc]:bounds[hi_doc]]
            vals = self._perm_values(seg)
            starts = (bounds[lo_doc:hi_doc] - bounds[lo_doc]).astype(np.int64)
            out[lo_doc:hi_doc] = np.minimum.reduceat(vals, starts, axis=1).T
            lo_doc = hi_doc
        return out

    def signature(self, text: str) -> np.ndarray:
        return self.signature_batch([text])[0]


def _segment_bounds(*key_arrays) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of equal-key runs over sorted key columns.

    The vectorized many-groups-per-block pattern (see
    ``stages/reassemble.py``): one Python call per BLOCK, not per
    group — per-group ``map_groups`` calls dominated the round-1 dedup
    bench (~n_docs x bands tiny groups)."""
    n = len(key_arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    neq = np.zeros(n - 1, dtype=bool)
    for arr in key_arrays:
        a = np.asarray(arr)
        neq |= a[1:] != a[:-1]
    starts = np.concatenate([[0], np.nonzero(neq)[0] + 1]).astype(np.int64)
    ends = np.concatenate([starts[1:], [n]])
    return starts, ends


def _word_shingle_set(text: str, k: int) -> set:
    """Word-k-shingle set view of ``word_kgrams`` (mirrors
    ``ngram_jaccard``'s kernel and the ``minhash_dedup`` SQL oracle)."""
    return set(word_kgrams(text.split(), k))


def minhash_dup_pairs(docs, *, threshold: float = 0.8, num_perm: int = 64,
                      bands: int = 16, shingle_k: int = 3):
    """documents Dataset → near-duplicate pairs (a_id, b_id, jaccard) by
    EXACT word-k-shingle Jaccard, with word-shingle MinHash banding as
    the candidate generator (shingle → minhash → band → bucket →
    verify-on-rejoined-text).

    Round 1 shipped the full 64-permutation signature (512 B) into all
    16 band buckets and returned a signature-based Jaccard ESTIMATE.
    Now only (bucket:int64, doc_id) rows enter the band exchange and
    candidates are verified with exact shingle Jaccard after a single
    text re-join (``_lsh_exact_pairs``) — the same scale-safe plan as
    ``ngram_dup_pairs`` — which also makes the output driver-checkable
    against an exact all-pairs SQL oracle (estimates cannot).

    Banding recall: P(miss | jaccard=t) = (1 - t^r)^b with r=4, b=16 —
    ~2e-4 at the 0.8 default — and the fixed seed makes any given
    corpus's output deterministic (pinned vs the oracle in selfcheck).

    The hasher state is two 64-element arrays drawn from a fixed seed,
    so the signature stage runs as a TASK pool (the instance ships
    with the task — no actor-pool ramp, every CPU usable at once;
    round 1's (1,8) actor pool capped the stage at 8 workers).
    """
    band_rows = _lsh_band_rows(
        docs,
        lambda: MinHashLSH(num_perm=num_perm, bands=bands,
                           shingle_k=shingle_k),
        bands=bands,
    )
    return _lsh_exact_pairs(
        docs, band_rows, lambda t: _word_shingle_set(t, shingle_k), threshold
    )


# --- n-gram Jaccard (verification kernel, shared by tests) ------------------


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    def sh(t: str) -> set:
        toks = t.split()
        if len(toks) < k:
            return {" ".join(toks)}
        return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}

    sa, sb = sh(a), sh(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# --- SimHash near-dup -------------------------------------------------------


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    """4 bands × 15 bits per doc (60-bit hash); exact band match →
    candidate."""
    batch = batch.combine_chunks()
    sh = batch.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
    n = len(batch)
    doc = np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), 4)
    full = np.repeat(sh.view(np.int64), 4)
    band_id = np.tile(np.arange(4, dtype=np.int32), n)
    band_val = np.empty(4 * n, dtype=np.int64)
    for b in range(4):
        band_val[b::4] = ((sh >> np.uint64(15 * b)) & np.uint64(0x7FFF)).view(
            np.int64
        )
    return pa.table(
        {
            "doc_id": pa.array(doc, type=pa.int64()),
            "band_id": pa.array(band_id),
            "band_val": pa.array(band_val),
            "simhash": pa.array(full),
        }
    )


def _simhash_pairs_block(batch: pa.Table, max_hamming: int) -> pa.Table:
    """All (band_id, band_val) buckets of one sorted block: pairwise
    Hamming distance via vectorized XOR + popcount per multi-doc bucket."""
    batch = batch.combine_chunks()
    starts, ends = _segment_bounds(
        batch.column("band_id"), batch.column("band_val")
    )
    ids_all = np.asarray(batch.column("doc_id"))
    sh_all = np.asarray(batch.column("simhash")).view(np.uint64)
    a_out, b_out, d_out = [], [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        _check_bucket_size(e - s, "simhash_dup_pairs")
        ids = ids_all[s:e]
        sh = sh_all[s:e]
        # XOR/popcount only on the upper-triangle pair INDICES — a
        # dense n x n matrix would cost O(n^2) memory per bucket and a
        # hot bucket (templated boilerplate sharing one band value) can
        # hold many thousands of docs
        iu, ju = np.triu_indices(len(ids), k=1)
        x = sh[iu] ^ sh[ju]
        d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                          axis=1).sum(axis=1)
        keep = (d <= max_hamming) & (ids[iu] != ids[ju])
        ai, bi = ids[iu[keep]], ids[ju[keep]]
        a_out.append(np.minimum(ai, bi))
        b_out.append(np.maximum(ai, bi))
        d_out.append(d[keep])
    if a_out:
        a_np = np.concatenate(a_out)
        b_np = np.concatenate(b_out)
        d_np = np.concatenate(d_out)
    else:
        a_np = b_np = d_np = np.array([], dtype=np.int64)
    return pa.table(
        {
            "a_id": pa.array(a_np.astype(np.int64), type=pa.int64()),
            "b_id": pa.array(b_np.astype(np.int64), type=pa.int64()),
            "hamming": pa.array(d_np.astype(np.int32), type=pa.int32()),
        }
    )


def simhash_dup_pairs(docs, *, max_hamming: int = 3):
    """documents Dataset → (a_id, b_id, hamming) pairs with SimHash
    Hamming distance ≤ max_hamming (banding guarantees recall for ≤ 3
    differing bits across 4 bands by pigeonhole).

    Task pool (the hasher vectorizes over each batch's unique tokens,
    so there is no warm-up state worth pinning).

    Bucket folds run through ``folds.exact_segment_fold`` (round-4
    hardening): a hot band value split across sorted blocks would
    silently MISS cross-fragment pairs; boundary buckets route wholly
    to the bounded driver residual instead."""
    from ray.data.aggregate import Min

    from .folds import exact_segment_fold

    hashed = docs.map_batches(SimHasher(), batch_format="pyarrow")
    bands = hashed.map_batches(_simhash_band_rows, batch_format="pyarrow")
    band_schema = pa.schema(
        [("doc_id", pa.int64()), ("band_id", pa.int32()),
         ("band_val", pa.int64()), ("simhash", pa.int64())]
    )
    pair_schema = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()),
         ("hamming", pa.int32())]
    )
    pairs = exact_segment_fold(
        bands.sort(["band_id", "band_val"]),
        key_cols=["band_id", "band_val"],
        fold=lambda b: _simhash_pairs_block(b, max_hamming),
        raw_schema=band_schema, out_schema=pair_schema,
    )
    return pairs.groupby(["a_id", "b_id"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


def band_buckets(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 LSH bucket keys from (n, num_perm) signatures:
    FNV-style fold over each band segment.  ONE definition shared by
    the batch band exchange (``_lsh_band_rows``) and the incremental
    near-dup index (``state/dedup_index``): the index's persisted
    snapshots bake this fold in, so a divergent copy would silently
    stop colliding with history.  Any deterministic mix works —
    identical segments (the banding recall guarantee) always collide,
    and false bucket collisions are discarded by the verify stage."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    sig3 = sigs.astype(np.uint64, copy=False).reshape(n, bands, r)
    prime = np.uint64(1099511628211)
    acc = np.broadcast_to(
        (np.uint64(14695981039346656037)
         ^ np.arange(bands, dtype=np.uint64)) * prime,
        (n, bands),
    ).copy()
    for j in range(r):
        acc = (acc ^ sig3[:, :, j]) * prime
    return (acc & np.uint64((1 << 62) - 1)).astype(np.int64)


def _lsh_band_rows(docs, make_hasher, *, bands: int):
    """documents Dataset → (bucket, doc_id) LSH band rows for any
    MinHash-family hasher (word shingles, char k-grams, ...).

    This is everything that enters the band exchange: NO text and NO
    signature column — round 1 shipped the full document text (ngram)
    resp. the 512-byte signature (minhash) into every band bucket (16x
    amplification, VERDICT r1 #2); now only an int64 bucket key and the
    doc_id shuffle, and the verify stage re-joins text by doc_id.
    """

    # fail at plan build, not in a crash-looping map task: the
    # vectorized (docs, bands, r) reshape below requires bands to
    # divide num_perm exactly (the old per-band slicing silently
    # tolerated — and silently truncated — a non-divisor)
    _probe = make_hasher()
    if _probe.num_perm % bands:
        raise ValueError(
            f"bands={bands} must divide num_perm={_probe.num_perm}"
        )

    class SigRows:
        def __init__(self):
            self._h = make_hasher()
            self._rows_per_band = self._h.num_perm // bands

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.combine_chunks()
            texts = batch.column("text").to_pylist()
            ids = batch.column("doc_id")
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            sigs = self._h.signature_batch(texts)
            n = len(texts)
            if n == 0:
                return pa.table(
                    {"bucket": pa.array([], type=pa.int64()),
                     "doc_id": ids.slice(0, 0)}
                )
            # vectorized band keys (VERDICT r2 #8) — the shared fold,
            # bit-identical with the incremental index's snapshots
            bucket = band_buckets(sigs, bands)
            out_idx = np.repeat(np.arange(n, dtype=np.int64), bands)
            return pa.table(
                {
                    "bucket": pa.array(bucket.reshape(-1), type=pa.int64()),
                    "doc_id": ids.take(pa.array(out_idx)),
                }
            )

    # task pool: hasher params are two tiny seeded arrays, no ramp
    return docs.map_batches(SigRows(), batch_format="pyarrow")


def ngram_band_rows(docs, *, k: int = 9, num_perm: int = 64, bands: int = 16):
    """documents Dataset → (bucket, doc_id) LSH band rows over
    character-k-gram MinHash signatures (see ``_lsh_band_rows``)."""

    class CharMinHash(MinHashLSH):
        """Character-k-gram shingles — the SAME shingle space the
        verify stage measures, so candidate recall matches the
        banding guarantee (word-shingle signatures would miss pairs
        whose char-Jaccard clears the threshold).

        The shingle hash is a vectorized polynomial over codepoints
        (sliding windows x base powers, uint64 wraparound) instead of
        per-shingle blake2b, and the permutation kernel runs in uint32
        (SIMD-vectorized multiply; 64-bit integer multiply/mod is
        scalar on this ISA and was ~6s per 600k shingles).  ~10M char
        grams per sf0.1 pass made those two round 1's largest CPU
        sinks.  Hash identity only affects candidate RECALL — the
        exact-Jaccard verify stage keeps precision regardless."""

        def _shingle_list(self, text: str) -> list[str]:
            return [text[i:i + k] for i in range(max(1, len(text) - k + 1))]

        _POW = None  # per-instance base powers, built lazily
        _SIG_DTYPE = np.uint32
        _A32 = None

        def _perm_values(self, seg: np.ndarray) -> np.ndarray:
            if self._A32 is None:
                self._A32 = (self.a.astype(np.uint32) | np.uint32(1))
                self._B32 = self.b.astype(np.uint32)
            v = np.outer(self._A32, seg.astype(np.uint32))
            v += self._B32[:, None]
            return v

        def _hash_shingles_batch(self, texts: list[str]):
            if self._POW is None:
                base = np.uint64(1099511628211)
                self._POW = base ** np.arange(k - 1, -1, -1, dtype=np.uint64)
            pows = self._POW
            lengths = np.empty(len(texts), dtype=np.int64)
            hs = []
            from .text import codepoints_of

            for i, t in enumerate(texts):
                cps = codepoints_of(t).astype(np.uint64)
                if len(cps) >= k:
                    win = np.lib.stride_tricks.sliding_window_view(cps, k)
                    h = (win * pows[None, :]).sum(axis=1, dtype=np.uint64)
                elif len(cps):
                    h = np.array(
                        [(cps * pows[:len(cps)]).sum(dtype=np.uint64)],
                        dtype=np.uint64,
                    )
                else:
                    h = np.zeros(1, dtype=np.uint64)
                lengths[i] = len(h)
                hs.append(h)
            return np.concatenate(hs), lengths

    return _lsh_band_rows(docs,
                          lambda: CharMinHash(num_perm=num_perm,
                                              bands=bands),
                          bands=bands)


# Loud bound on exact all-pairs generation per LSH bucket (r5): a
# boilerplate-template bucket holding B docs yields B(B-1)/2 candidate
# pairs — at B ~ corpus scale that is quadratic work the EXACT
# contract cannot cap silently.  8192 docs => <= ~33M pairs per
# bucket, the most the verify exchange should ever absorb; beyond it
# the batch plan refuses with the remedies (the incremental
# NearDupIndex bounds the same hazard with hot_bucket_cap instead,
# because its keep-rule tolerates a deterministic prefix).
LSH_MAX_BUCKET = 8192


def _check_bucket_size(n: int, op: str) -> None:
    if n > LSH_MAX_BUCKET:
        raise RuntimeError(
            f"{op}: an LSH bucket holds {n} docs "
            f"(> LSH_MAX_BUCKET={LSH_MAX_BUCKET}); exact all-pairs on "
            "it is quadratic — run exact dedup first, pre-strip the "
            "boilerplate template, or use state.dedup_index."
            "NearDupIndex (hot_bucket_cap) for the bounded-recall path"
        )


def _bucket_candidate_pairs(batch: pa.Table) -> pa.Table:
    """Candidate (a_id, b_id) pairs from every bucket of one sorted
    block (vectorized; singleton buckets skipped wholesale)."""
    batch = batch.combine_chunks()
    id_col = batch.column("doc_id")
    id_type = id_col.type
    starts, ends = _segment_bounds(batch.column("bucket"))
    ids_all = np.asarray(id_col)
    a_out, b_out = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        _check_bucket_size(e - s, "lsh_bucket_pairs")
        ids = ids_all[s:e]
        iu, ju = np.triu_indices(len(ids), k=1)
        mask = ids[iu] != ids[ju]
        ai, bi = ids[iu[mask]], ids[ju[mask]]
        a_out.extend(np.minimum(ai, bi).tolist())
        b_out.extend(np.maximum(ai, bi).tolist())
    return pa.table(
        {"a_id": pa.array(a_out, type=id_type),
         "b_id": pa.array(b_out, type=id_type)}
    )


def _first_pair_block(batch: pa.Table) -> pa.Table:
    """One row per distinct (a_id, b_id) run in a sorted block."""
    batch = batch.combine_chunks()
    starts, _ = _segment_bounds(batch.column("a_id"), batch.column("b_id"))
    return batch.take(pa.array(starts, type=pa.int64()))


def _lsh_exact_pairs(docs, band_rows, shingle_set, threshold: float):
    """(bucket, doc_id) band rows → exact-Jaccard-verified dup pairs
    (a_id, b_id, jaccard); ``shingle_set`` maps text → the shingle set
    the verify stage measures (char k-grams for ``ngram_dup_pairs``,
    word shingles for ``minhash_dup_pairs``).

    Scale-safe plan: (1) only (bucket, doc_id) rows enter the band
    exchange (``_lsh_band_rows``); (2) candidate pairs come out of a
    vectorized per-bucket pass and dedup across bands with take-first;
    (3) text re-joins the candidate pairs by doc_id through a single
    union+sort exchange (each document's text crosses the wire once);
    (4) the verify stage computes exact shingle Jaccard per candidate
    pair.  Round 1 carried the full text into all 16 band buckets
    instead (the banned amplification pattern).
    """
    from .folds import exact_segment_fold

    id_type = docs.schema().base_schema.field("doc_id").type
    band_schema = pa.schema([("bucket", pa.int64()), ("doc_id", id_type)])
    cand_schema = pa.schema([("a_id", id_type), ("b_id", id_type)])
    # candidate pairs per bucket, exact under bucket block splits
    # (round-4 hardening: a split bucket would MISS cross-fragment
    # pairs); then dedup across bands with sort + vectorized
    # take-first.  A duplicate pair surviving a split take-first run
    # is HARMLESS: the verify stage emits one row per (a, b) segment,
    # so this second fold stays a plain optimization pass.
    cand = (
        exact_segment_fold(
            band_rows.sort("bucket"), key_cols=["bucket"],
            fold=_bucket_candidate_pairs,
            raw_schema=band_schema, out_schema=cand_schema,
        )
        .sort(["a_id", "b_id"])
        .map_batches(_first_pair_block, batch_size=None,
                     batch_format="pyarrow", zero_copy_batch=True)
    )

    # Re-join text by doc_id WITHOUT Dataset.join: each candidate pair
    # explodes into two keyed half-rows (k=a_id side 0, k=b_id side 1),
    # unions with the (k=doc_id, payload=text) document rows, and ONE
    # sort on k co-locates each doc's text with the half-rows that need
    # it — document text crosses the wire exactly once (two hash joins
    # would ship it twice, and Ray's join loses its schema broadcast
    # when a side's first block is empty — routine for sort outputs —
    # then crashes on empty partitions, hash_shuffle.py:223,584).
    keyed_schema = pa.schema(
        [("k", id_type), ("a_id", id_type), ("b_id", id_type),
         ("side", pa.int8()), ("payload", pa.string())]
    )

    def pair_halves(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return keyed_schema.empty_table()
        batch = batch.combine_chunks()
        a = batch.column("a_id").combine_chunks()
        b = batch.column("b_id").combine_chunks()
        n = len(batch)
        return pa.table(
            {
                "k": pa.concat_arrays([a, b]),
                "a_id": pa.concat_arrays([a, a]),
                "b_id": pa.concat_arrays([b, b]),
                "side": pa.array([0] * n + [1] * n, type=pa.int8()),
                "payload": pa.nulls(2 * n, type=pa.string()),
            }
        ).cast(keyed_schema)

    def doc_rows(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        n = len(batch)
        return pa.table(
            {
                "k": batch.column("doc_id"),
                "a_id": pa.nulls(n, type=id_type),
                "b_id": pa.nulls(n, type=id_type),
                "side": pa.nulls(n, type=pa.int8()),
                "payload": batch.column("text"),
            }
        ).cast(keyed_schema)

    keyed = cand.map_batches(
        pair_halves, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    ).union(
        docs.select_columns(["doc_id", "text"]).map_batches(
            doc_rows, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    half_schema = pa.schema(
        [("a_id", id_type), ("b_id", id_type), ("side", pa.int8()),
         ("text", pa.string())]
    )

    def attach_block(batch: pa.Table) -> pa.Table:
        """Sorted-by-k block: give every pair half-row its document's
        text (halves whose doc is absent drop — inner semantics)."""
        if batch.num_columns == 0 or batch.num_rows == 0:
            return half_schema.empty_table()
        batch = batch.combine_chunks()
        starts, ends = _segment_bounds(batch.column("k"))
        payload = batch.column("payload").combine_chunks()
        pv = np.asarray(pc.is_valid(payload))
        lengths = ends - starts
        seg_id = np.repeat(np.arange(len(starts)), lengths)
        doc_idx = np.full(len(starts), -1, dtype=np.int64)
        nz = np.nonzero(pv)[0]
        doc_idx[seg_id[nz][::-1]] = nz[::-1]  # first doc row per seg wins
        row_doc = doc_idx[seg_id]
        keep = (~pv) & (row_doc >= 0)
        kept = np.nonzero(keep)[0]
        return pa.table(
            {
                "a_id": batch.column("a_id").take(pa.array(kept)),
                "b_id": batch.column("b_id").take(pa.array(kept)),
                "side": batch.column("side").take(pa.array(kept)),
                "text": payload.take(pa.array(row_doc[kept])),
            }
        ).cast(half_schema)

    # exact under doc-key block splits: a hot doc (member of many
    # candidate pairs) whose keyed run splits would drop the half-rows
    # in fragments without its text row (round-4 hardening)
    halves = exact_segment_fold(
        keyed.sort("k"), key_cols=["k"], fold=attach_block,
        raw_schema=keyed_schema, out_schema=half_schema,
    )

    out_schema = pa.schema(
        [("a_id", id_type), ("b_id", id_type), ("jaccard", pa.float64())]
    )

    def verify_block(batch: pa.Table) -> pa.Table:
        """Sorted-by-(a_id, b_id) block: each complete pair (both
        halves present) verifies exact shingle Jaccard."""
        if batch.num_columns == 0 or batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        starts, ends = _segment_bounds(
            batch.column("a_id"), batch.column("b_id")
        )
        sides = np.asarray(batch.column("side"))
        texts = batch.column("text").to_pylist()
        a_all = np.asarray(batch.column("a_id"))
        b_all = np.asarray(batch.column("b_id"))
        a_out, b_out, j_out = [], [], []
        for s, e in zip(starts, ends):
            seg_sides = sides[s:e]
            i0 = np.nonzero(seg_sides == 0)[0]
            i1 = np.nonzero(seg_sides == 1)[0]
            if not len(i0) or not len(i1):
                continue  # doc missing on one side: inner semantics
            ta, tb = texts[s + i0[0]], texts[s + i1[0]]
            sa, sb = shingle_set(ta), shingle_set(tb)
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 0.0
            if jac >= threshold:
                a_out.append(a_all[s])
                b_out.append(b_all[s])
                j_out.append(jac)
        return pa.table(
            {"a_id": pa.array(a_out, type=id_type),
             "b_id": pa.array(b_out, type=id_type),
             "jaccard": pa.array(j_out, type=pa.float64())}
        ).cast(out_schema)

    # exact under pair-segment block splits: a boundary cut between a
    # pair's two half-rows would drop the pair as single-sided
    # (round-4 hardening)
    return exact_segment_fold(
        halves.sort(["a_id", "b_id"]), key_cols=["a_id", "b_id"],
        fold=verify_block, raw_schema=half_schema, out_schema=out_schema,
    )


def ngram_dup_pairs(docs, *, k: int = 9, threshold: float = 0.5,
                    num_perm: int = 64, bands: int = 16):
    """Near-dup pairs by EXACT character-k-gram Jaccard, with MinHash
    banding as the candidate generator (plan: ``_lsh_exact_pairs``).

    ``k`` defaults to 9: short char shingles (k<=4) occur in nearly
    every document, so signatures collide corpus-wide and bucket verify
    degenerates quadratic (measured: 400+s vs ~5s at sf0.1).
    """
    band_rows = ngram_band_rows(docs, k=k, num_perm=num_perm, bands=bands)
    return _lsh_exact_pairs(
        docs, band_rows,
        lambda t: {t[j:j + k] for j in range(max(1, len(t) - k + 1))},
        threshold,
    )


# --- dup clusters (connected components over candidate pairs) ---------------


def _cc_propagate_block(batch: pa.Table) -> pa.Table:
    """One sorted-(key) block of union(edges tagged 0, labels tagged 1):
    per key segment, read the node's current label (exactly one tagged
    row per key) and emit it to the node itself and every neighbor.
    Fully vectorized: per-row segment index via searchsorted, one fancy-
    index gather for the segment labels."""
    if batch.num_rows == 0:
        return pa.table(
            {"key": pa.array([], type=pa.int64()),
             "val": pa.array([], type=pa.int64())}
        )
    batch = batch.combine_chunks()
    key = batch.column("key").to_numpy(zero_copy_only=False)
    val = batch.column("val").to_numpy(zero_copy_only=False)
    is_label = batch.column("is_label").to_numpy(zero_copy_only=False)
    starts, _ = _segment_bounds(batch.column("key"))
    seg_of_row = np.searchsorted(starts, np.arange(len(key)), side="right") - 1
    lab_mask = is_label.astype(bool)
    # identity default: a segment that (illegally) lacks its label row —
    # e.g. a block split mid-segment, or a caller unioning mismatched
    # keys — labels itself rather than propagating uninitialized memory
    # (ADVICE r2); propagation then converges to the same fixpoint or
    # trips the non-convergence guard loudly.
    seg_label = key[starts].copy()
    seg_label[seg_of_row[lab_mask]] = val[lab_mask]
    # edge rows send the segment label to their neighbor; the label row
    # keeps it on the node itself
    out_key = np.concatenate([val[~lab_mask], key[lab_mask]])
    out_val = np.concatenate(
        [seg_label[seg_of_row[~lab_mask]], val[lab_mask]]
    )
    return pa.table(
        {"key": pa.array(out_key, type=pa.int64()),
         "val": pa.array(out_val, type=pa.int64())}
    )


def _cc_local(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Connected components of a small edge list, vectorized on the
    driver: min-label propagation with pointer jumping (``lab[lab]``
    halves chain depth each round → O(log diameter) rounds, each an
    O(E) numpy pass).  ``nodes`` is sorted, so the converged min *index*
    per component maps back to the component's min doc_id."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, ea, lab[eb])
        np.minimum.at(nxt, eb, lab[ea])
        nxt = nxt[nxt]
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    return pa.table(
        {"doc_id": pa.array(nodes, type=pa.int64()),
         "cluster_id": pa.array(nodes[lab], type=pa.int64())}
    )


def cluster_droplist(clusters):
    """(doc_id, cluster_id) Dataset → doc_ids of every cluster member
    that is NOT its cluster's representative (min doc_id) — the removal
    side of FUZZY dedup, applied with ``relational.anti_join`` exactly
    like ``exact_droplist``'s output.  Pure per-block filter, no
    exchange."""

    def drop(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        batch = batch.combine_chunks()
        keep = pc.invert(
            pc.equal(batch.column("doc_id"), batch.column("cluster_id"))
        )
        return batch.filter(keep).select(["doc_id"])

    return clusters.map_batches(drop, batch_format="pyarrow",
                                zero_copy_batch=True)


def dup_clusters(pairs, *, max_iter: int = 16,
                 small_graph_rows: int = 4_000_000):
    """(a_id, b_id) pair Dataset → (doc_id, cluster_id): connected
    components of the duplicate-candidate graph, cluster_id = the
    component's minimum doc_id.  This is the step that turns pairwise
    near-dup output into keep-one-per-cluster dedup decisions.

    Two physical plans, picked by measured edge count:

    - **small graph** (≤ ``small_graph_rows`` symmetric edge rows,
      default 4M ≈ 64 MB of int64 pairs): pull ONLY the (key, val)
      edge columns to the driver and run vectorized pointer-jumping
      label propagation (`_cc_local`).  This is the broadcast-small-
      side pattern — the candidate-pair graph is orders of magnitude
      smaller than the corpus, so this is the common case even at
      100 TB unless the corpus is pathologically duplicated.
    - **distributed** min-label propagation otherwise: each round
      unions the edge list with the current labels, sorts by node —
      group key == full sort key, so sort ranges cannot split a
      segment — and every node broadcasts its label to its neighbors;
      a Min-aggregate exchange folds received labels.  Rounds needed =
      graph diameter; dup clusters are near-cliques (diameter 1-2) so
      2-3 rounds close in practice, ``max_iter`` bounds pathological
      chains.  Every exchange moves (int64, int64) rows, O(candidate
      pairs); convergence is detected on the driver from sum(label),
      monotone non-increasing per node.
    """
    import ray
    from ray.data.aggregate import Min

    def symmetric_edges(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        a = batch.column("a_id").to_numpy(zero_copy_only=False)
        b = batch.column("b_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array(np.concatenate([a, b]), type=pa.int64()),
             "val": pa.array(np.concatenate([b, a]), type=pa.int64()),
             "is_label": pa.array(
                 np.zeros(2 * len(a), dtype=np.int8), type=pa.int8()
             )}
        )

    edges = pairs.map_batches(
        symmetric_edges, batch_format="pyarrow"
    ).materialize()

    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "cluster_id": pa.array([], type=pa.int64())})
        )
    if n_edges < small_graph_rows:
        flat = edges.take_batch(n_edges, batch_format="pyarrow")
        return ray.data.from_arrow(
            _cc_local(flat.column("key").to_numpy(zero_copy_only=False),
                      flat.column("val").to_numpy(zero_copy_only=False))
        )

    # round 0: label[u] = min(u, min neighbors) in one exchange
    labels = (
        edges.map_batches(
            lambda b: pa.table(
                {"key": b.column("key"),
                 "val": pc.min_element_wise(b.column("key"), b.column("val"))}
            ),
            batch_format="pyarrow",
        )
        .groupby("key")
        .aggregate(Min("val", alias_name="val"))
        .materialize()
    )
    prev_sum = labels.sum("val")

    for _ in range(max_iter):
        tagged = labels.map_batches(
            lambda b: b.append_column(
                "is_label", pa.array(np.ones(b.num_rows, dtype=np.int8))
            ),
            batch_format="pyarrow",
        )
        labels = (
            edges.union(tagged)
            .sort("key")
            .map_batches(_cc_propagate_block, batch_size=None,
                         batch_format="pyarrow", zero_copy_batch=True)
            .groupby("key")
            .aggregate(Min("val", alias_name="val"))
            .materialize()
        )
        s = labels.sum("val")
        if s == prev_sum:
            break
        prev_sum = s
    else:
        # exhausting max_iter without a fixed point means labels are
        # still intermediate — returning them silently would emit wrong
        # cluster ids (one hop propagates per round, so a dup chain
        # longer than max_iter hops from its min node stays split).
        # Fail loudly instead.
        raise RuntimeError(
            f"dup_clusters: label propagation did not converge in "
            f"{max_iter} rounds (a dup chain is longer than {max_iter} "
            f"hops from its component's min doc_id); raise max_iter"
        )

    return labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("key"), "cluster_id": b.column("val")}
        ),
        batch_format="pyarrow",
    )


# --- duplicated-substring statistics (Lee et al. 2022 shape) ---------------

DUP_SUBSTR_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_dup", pa.int64())]
)


def dup_substring_stats(docs, *, k: int = 25, stride: int = 1):
    """Per-document duplicated-substring mass: how many of a document's
    DISTINCT length-``k`` character windows also occur in at least one
    OTHER document.  The diagnostic behind substring-level dedup
    ("Deduplicating Training Data Makes Language Models Better", Lee et
    al. 2022, arXiv:2107.06499): a high count marks boilerplate,
    mirrored articles, and template farms that document-level dedup
    misses.  Returns (doc_id, n_dup) for documents with n_dup >= 1.

    Plan (the suffix-array semantics, Ray-Data-shaped):

    - one streaming pass hashes every window (vectorized sliding-window
      polynomial over codepoints, uint64 wraparound — the same kernel
      family as ``ngram_band_rows``; collisions under-merge with
      probability ~(#windows)^2 / 2^65, documented, never verified
      wrong-way because equal text always hashes equal) and emits the
      per-document DISTINCT (h, doc_id) pairs — a document lives in one
      row, so the distinct step is block-local and complete;
    - ONE sort on ``h`` co-locates equal windows; the per-segment
      "seen in >= 2 docs" fold runs under ``folds.exact_segment_fold``
      (equal-h runs splitting across sort blocks go to the bounded
      driver residual, so a hot window — a viral boilerplate line —
      cannot corrupt the count);
    - per-block partial (doc_id, n_dup) sums, then a doc-keyed groupby.

    The exchange is O(total distinct windows) — that IS the operator
    (suffix arrays pay the same); ``stride`` > 1 samples every
    stride-th window as the documented cost knob at the 100 TB scale
    (stride 1 = exact).
    """
    import ray.data  # noqa: F401  (Dataset ops only)

    from .folds import exact_segment_fold
    from .text import codepoints_of

    base = np.uint64(1099511628211)
    pows = base ** np.arange(k - 1, -1, -1, dtype=np.uint64)

    def window_pairs(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs, owners = [], []
        for did, t in zip(ids, batch.column("text").to_pylist()):
            cps = codepoints_of(t).astype(np.uint64)
            if len(cps) < k:
                continue
            win = np.lib.stride_tricks.sliding_window_view(cps, k)[::stride]
            h = np.unique((win * pows[None, :]).sum(axis=1, dtype=np.uint64))
            hs.append(h)
            owners.append(np.full(len(h), did, dtype=np.int64))
        if not hs:
            return pa.table(
                {"h": pa.array([], type=pa.int64()),
                 "doc_id": pa.array([], type=pa.int64())}
            )
        return pa.table(
            {"h": pa.array(np.concatenate(hs).view(np.int64)),
             "doc_id": pa.array(np.concatenate(owners))}
        )

    pairs = docs.map_batches(window_pairs, batch_format="pyarrow",
                             zero_copy_batch=True)
    raw_schema = pa.schema([("h", pa.int64()), ("doc_id", pa.int64())])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return DUP_SUBSTR_SCHEMA.empty_table()
        t = t.combine_chunks()
        starts, ends = _segment_bounds(t.column("h"))
        sizes = ends - starts
        mask = np.repeat(sizes >= 2, sizes)
        if not mask.any():
            return DUP_SUBSTR_SCHEMA.empty_table()
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)[mask]
        agg = pa.table({"doc_id": pa.array(doc)}).group_by(
            "doc_id"
        ).aggregate([([], "count_all")])
        return pa.table(
            {"doc_id": agg.column("doc_id"),
             "n_dup": agg.column("count_all").cast(pa.int64())}
        ).cast(DUP_SUBSTR_SCHEMA)

    partials = exact_segment_fold(
        pairs.sort("h"), key_cols=["h"], fold=fold,
        raw_schema=raw_schema, out_schema=DUP_SUBSTR_SCHEMA,
    )
    from ray.data.aggregate import Sum

    out = partials.groupby("doc_id").aggregate(
        Sum("n_dup", alias_name="n_dup")
    )

    def finalize(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or b.num_rows == 0:
            return DUP_SUBSTR_SCHEMA.empty_table()
        return b.select(["doc_id", "n_dup"]).cast(DUP_SUBSTR_SCHEMA)

    return out.map_batches(finalize, batch_format="pyarrow",
                           zero_copy_batch=True)


def dedup_keep_best(docs, *, keep_cols: tuple = ("lang", "n_chars")):
    """Exact dedup keeping the BEST copy per duplicate group (highest
    ``quality_score``, doc_id tiebreak) instead of the min-id copy —
    what a curation pipeline actually wants when duplicate crawls
    differ in extraction quality.  Pure composition: content-hash
    annotate (one text pass, text dropped before the exchange) +
    ``selection.cap_per_group(k=1)`` (partial top-1 per block, one
    sort, exact per-group fold)."""
    from .selection import cap_per_group
    from .text import quality_score_batch

    cols = list(keep_cols)

    def annotate(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        q = quality_score_batch(batch)
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "h": pa.array(
                    [hashlib.sha256(t.encode("utf-8")).hexdigest()
                     for t in texts]
                ),
                "doc_id": batch.column("doc_id"),
                **{c: batch.column(c) for c in cols},
                "quality_score": q.column("quality_score"),
            }
        )

    ann = docs.map_batches(annotate, batch_format="pyarrow")
    best = cap_per_group(
        ann, group_col="h", order_cols=["quality_score", "doc_id"],
        descending=[True, False], k=1,
    )
    return best.select_columns(["doc_id"] + cols)


# --- corpus-level line dedup (CCNet / RefinedWeb style) ---------------------

LINE_DROPLIST_CAP = 4_000_000  # driver bound on the broadcast droplist


def common_line_droplist(docs, *, delim: str = "\n", min_len: int = 10,
                         min_count: int = 3):
    """Dataset of ``line_hash`` (int64 view of the exact codepoint
    Horner fingerprint) for every ``delim``-separated line of
    >= ``min_len`` codepoints that occurs >= ``min_count`` times
    corpus-wide — the boilerplate set a CCNet-style line dedup drops.

    Exchange discipline: one row per DISTINCT line per block
    (``np.unique`` pre-aggregation inside ``map_batches``) — never the
    line text — then one sort on ``line_hash`` and a segment-sum +
    threshold filter under ``folds.exact_segment_fold``, so a hot
    boilerplate line whose sorted run splits across blocks still
    counts exactly once."""
    from .folds import exact_segment_fold
    from .text import fingerprint_texts

    raw_schema = pa.schema([("line_hash", pa.int64()), ("n", pa.int64())])
    out_schema = pa.schema([("line_hash", pa.int64())])

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return raw_schema.empty_table()
        lists = pc.split_pattern(
            batch.column("text").combine_chunks(), pattern=delim)
        flat = pc.list_flatten(lists)
        cand = flat.filter(pc.greater_equal(pc.utf8_length(flat), min_len))
        if len(cand) == 0:
            return raw_schema.empty_table()
        hashes = fingerprint_texts(cand.to_pylist())
        uniq, counts = np.unique(hashes, return_counts=True)
        return pa.table(
            {"line_hash": pa.array(uniq.astype(np.int64), type=pa.int64()),
             "n": pa.array(counts.astype(np.int64), type=pa.int64())}
        )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.combine_chunks()
        starts, _ = _segment_bounds(t.column("line_hash"))
        starts = np.asarray(starts)
        tot = np.add.reduceat(
            t.column("n").to_numpy(zero_copy_only=False), starts)
        seg_hash = t.column("line_hash").to_numpy(
            zero_copy_only=False)[starts]
        return pa.table({"line_hash": pa.array(
            seg_hash[tot >= min_count], type=pa.int64())})

    sorted_ds = docs.map_batches(
        partials, batch_format="pyarrow", zero_copy_batch=True
    ).sort("line_hash")
    return exact_segment_fold(
        sorted_ds, key_cols=["line_hash"], fold=fold,
        raw_schema=raw_schema, out_schema=out_schema,
    )


def remove_common_lines(docs, *, delim: str = "\n", min_len: int = 10,
                        min_count: int = 3, cap: int = LINE_DROPLIST_CAP):
    """Corpus-level line dedup (CCNet / RefinedWeb / Dolma shape): drop
    EVERY instance of a line that appears >= ``min_count`` times across
    the corpus (nav bars, cookie banners, boilerplate footers) and
    rewrite each document as its kept lines re-joined by ``delim`` in
    original order ('' when every line is dropped).  Lines shorter than
    ``min_len`` codepoints are never candidates.

    The reference engine is per-file and has no corpus-wide state —
    this is a beyond-reference training-data operator (SURVEY §8).

    Plan (two text passes, text never crosses an exchange):
    1. ``common_line_droplist`` — key-only count exchange;
    2. bounded driver collect of the droplist hashes.  The >=min_count
       line set is boilerplate-sized by construction; a corpus where it
       exceeds ``cap`` raises loudly instead of silently truncating
       (same contract as ``sketches.heavy_hitters_exact`` — the scale
       fallback is applying the droplist via a distributed line-level
       anti-join, which this corpus-size tier does not need);
    3. one exchange-free rewrite pass: vectorized split / hash /
       ``searchsorted`` membership / offset-rebuilt list /
       ``pc.binary_join`` — the sorted hash array broadcasts via
       closure capture (one implicit ray.put per task).

    Returns (doc_id, text, n_kept, n_dropped).
    """
    from .text import fingerprint_texts

    rows = common_line_droplist(
        docs, delim=delim, min_len=min_len, min_count=min_count
    ).limit(cap + 1).take_all()
    if len(rows) > cap:
        raise RuntimeError(
            f"remove_common_lines: droplist exceeds the driver cap ({cap} "
            "lines); raise min_count or apply via a distributed anti-join"
        )
    drop_sorted = np.sort(
        np.array([r["line_hash"] for r in rows], dtype=np.int64)
        .view(np.uint64)
    )

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()),
         ("n_kept", pa.int64()), ("n_dropped", pa.int64())]
    )

    def rewrite(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        lists = pc.split_pattern(batch.column("text"), pattern=delim)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_docs = batch.num_rows
        list_lens = pc.list_value_length(lists).to_numpy().astype(np.int64)
        cand = pc.greater_equal(
            pc.utf8_length(flat), min_len
        ).to_numpy(zero_copy_only=False)
        drop = np.zeros(len(flat), dtype=bool)
        if cand.any() and len(drop_sorted):
            hashes = fingerprint_texts(
                flat.filter(pa.array(cand)).to_pylist())
            pos = np.minimum(np.searchsorted(drop_sorted, hashes),
                             len(drop_sorted) - 1)
            drop[cand] = drop_sorted[pos] == hashes
        keep = ~drop
        seg = np.repeat(np.arange(n_docs, dtype=np.int64), list_lens)
        kept_per_doc = np.bincount(seg[keep], minlength=n_docs)
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=offsets[1:])
        new_list = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            flat.filter(pa.array(keep)))
        clean = pc.binary_join(new_list, delim)
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "text": clean,
             "n_kept": pa.array(kept_per_doc.astype(np.int64),
                                type=pa.int64()),
             "n_dropped": pa.array(
                 (list_lens - kept_per_doc).astype(np.int64),
                 type=pa.int64())}
        ).cast(out_schema)

    return docs.map_batches(rewrite, batch_format="pyarrow",
                            zero_copy_batch=True)


def dup_window_droplist(docs, *, k: int = 25, min_docs: int = 2):
    """Dataset of window hashes (int64 view) for every length-``k``
    character window occurring in >= ``min_docs`` DISTINCT documents —
    the removal set behind ``strip_dup_substrings``.  Same hash kernel
    as ``dup_substring_stats``, but the exchange is pre-aggregated:
    because each document lives wholly in one block and contributes its
    DISTINCT window hashes once, the per-block partial (h, n) — n =
    in-block docs containing h — sums across blocks to the exact
    distinct-doc count, so the sort carries one row per distinct
    in-block window instead of one per (window, doc) pair.  On a corpus
    with real boilerplate that is the dominant shrink (the hot windows
    collapse block-locally)."""
    from .folds import exact_segment_fold
    from .text import codepoints_of

    base = np.uint64(1099511628211)
    pows = base ** np.arange(k - 1, -1, -1, dtype=np.uint64)
    raw_schema = pa.schema([("h", pa.int64()), ("n", pa.int64())])
    out_schema = pa.schema([("h", pa.int64())])

    def window_counts(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        hs = []
        for t in batch.column("text").to_pylist():
            cps = codepoints_of(t).astype(np.uint64)
            if len(cps) < k:
                continue
            win = np.lib.stride_tricks.sliding_window_view(cps, k)
            hs.append(np.unique(
                (win * pows[None, :]).sum(axis=1, dtype=np.uint64)))
        if not hs:
            return raw_schema.empty_table()
        uniq, cnt = np.unique(np.concatenate(hs), return_counts=True)
        return pa.table(
            {"h": pa.array(uniq.view(np.int64)),
             "n": pa.array(cnt.astype(np.int64))}
        )

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.combine_chunks()
        starts, ends = _segment_bounds(t.column("h"))
        starts = np.asarray(starts)
        sums = np.add.reduceat(
            t.column("n").to_numpy(zero_copy_only=False), starts)
        seg_h = t.column("h").to_numpy(zero_copy_only=False)[starts]
        return pa.table(
            {"h": pa.array(seg_h[sums >= min_docs], type=pa.int64())}
        )

    partials = docs.map_batches(window_counts, batch_format="pyarrow",
                                zero_copy_batch=True)
    return exact_segment_fold(
        partials.sort("h"), key_cols=["h"], fold=fold,
        raw_schema=raw_schema, out_schema=out_schema,
    )


def strip_dup_substrings(docs, *, k: int = 25, min_docs: int = 2,
                         cap: int = LINE_DROPLIST_CAP):
    """Duplicated-substring REMOVAL — the apply half of the Lee et al.
    2022 ExactSubstr design whose diagnostic is ``dup_substring_stats``:
    every character covered by at least one length-``k`` window that
    occurs in >= ``min_docs`` distinct documents is removed, in EVERY
    document (simpler than the paper's keep-one-occurrence rule, which
    needs a global occurrence election; documented difference).

    Plan: ``dup_window_droplist`` (distinct per-doc window hashes, one
    sort, >= min_docs segment fold — O(distinct windows) key-only
    exchange) -> bounded droplist broadcast (loud cap, same contract as
    ``remove_common_lines``) -> one exchange-free rewrite pass: per doc
    the window hashes are re-computed vectorized, membership via
    ``searchsorted``, coverage via a +1/-1 diff array cumsum, and the
    kept codepoints decode straight back to a string (utf-32 round
    trip, no per-char Python).

    Returns (doc_id, text, n_removed) where n_removed counts removed
    codepoints.
    """
    from .text import codepoints_of

    base = np.uint64(1099511628211)
    pows = base ** np.arange(k - 1, -1, -1, dtype=np.uint64)

    rows = dup_window_droplist(
        docs, k=k, min_docs=min_docs
    ).limit(cap + 1).take_all()
    if len(rows) > cap:
        raise RuntimeError(
            f"strip_dup_substrings: droplist exceeds the driver cap "
            f"({cap} windows); raise k/min_docs or salt-partition the "
            "apply into per-hash-range passes"
        )
    drop_sorted = np.sort(
        np.array([r["h"] for r in rows], dtype=np.int64).view(np.uint64)
    )

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()),
         ("n_removed", pa.int64())]
    )

    def rewrite(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        batch = batch.combine_chunks()
        texts = batch.column("text").to_pylist()
        out_texts, removed = [], np.zeros(len(texts), dtype=np.int64)
        for r, t in enumerate(texts):
            cps = codepoints_of(t).astype(np.uint64)
            if len(cps) < k or len(drop_sorted) == 0:
                out_texts.append(t)
                continue
            win = np.lib.stride_tricks.sliding_window_view(cps, k)
            h = (win * pows[None, :]).sum(axis=1, dtype=np.uint64)
            pos = np.minimum(np.searchsorted(drop_sorted, h),
                             len(drop_sorted) - 1)
            st = np.nonzero(drop_sorted[pos] == h)[0]
            if len(st) == 0:
                out_texts.append(t)
                continue
            diff = np.zeros(len(cps) + 1, dtype=np.int64)
            diff[st] += 1
            diff[st + k] -= 1
            covered = np.cumsum(diff[:-1]) > 0
            kept = cps[~covered].astype(np.uint32)
            out_texts.append(kept.tobytes().decode("utf-32-le"))
            removed[r] = int(covered.sum())
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "text": pa.array(out_texts, type=pa.string()),
             "n_removed": pa.array(removed, type=pa.int64())}
        ).cast(out_schema)

    return docs.map_batches(rewrite, batch_format="pyarrow",
                            zero_copy_batch=True)


INTRADOC_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("text", pa.string()),
     ("n_kept", pa.int64()), ("n_dropped", pa.int64())]
)


def dedup_lines_within_doc(docs, *, delim: str = "\n",
                           min_len: int = 10):
    """Intra-document line dedup (the RefinedWeb/Dolma sibling of
    ``remove_common_lines``): within each document, keep only the
    FIRST occurrence of every repeated line of >= ``min_len``
    codepoints (shorter lines are never candidates and always kept),
    rewriting the doc from kept lines in original order.

    The reference engine has no line-level rewrite at all — this is a
    beyond-reference training-data operator (SURVEY §8).

    Plan: ONE exchange-free pass.  Per block: vectorized split,
    ``pc.dictionary_encode`` for exact line identity (no hashing, no
    collisions), one ``np.lexsort`` over (doc, code, position) to mark
    first occurrences, offset-rebuilt list + ``pc.binary_join``.
    Rows are atomic in Ray Data, so a document never spans blocks and
    the kernel needs no cross-block state.

    Returns (doc_id, text, n_kept, n_dropped).
    """

    def rewrite(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return INTRADOC_SCHEMA.empty_table()
        batch = batch.combine_chunks()
        lists = pc.split_pattern(batch.column("text"), pattern=delim)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_docs = batch.num_rows
        list_lens = pc.list_value_length(lists).to_numpy().astype(np.int64)
        seg = np.repeat(np.arange(n_docs, dtype=np.int64), list_lens)
        keep = np.ones(len(flat), dtype=bool)
        cand = pc.greater_equal(
            pc.utf8_length(flat), min_len
        ).to_numpy(zero_copy_only=False)
        if cand.any():
            codes = pc.dictionary_encode(flat).indices.to_numpy(
                zero_copy_only=False).astype(np.int64)
            pos = np.arange(len(flat), dtype=np.int64)
            order = np.lexsort((pos, codes, seg))
            s_seg, s_code = seg[order], codes[order]
            first = np.ones(len(flat), dtype=bool)
            first[1:] = (s_seg[1:] != s_seg[:-1]) | (
                s_code[1:] != s_code[:-1])
            repeat = np.zeros(len(flat), dtype=bool)
            repeat[order] = ~first
            keep = ~(repeat & cand)
        kept_per_doc = np.bincount(seg[keep], minlength=n_docs)
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=offsets[1:])
        new_list = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            flat.filter(pa.array(keep)))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text": pc.binary_join(new_list, delim),
                "n_kept": pa.array(kept_per_doc.astype(np.int64)),
                "n_dropped": pa.array(
                    (list_lens - kept_per_doc).astype(np.int64)),
            }
        )

    return docs.map_batches(rewrite, batch_format="pyarrow",
                            zero_copy_batch=True)

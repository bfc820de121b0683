"""Sharded shared fingerprint index for INCREMENTAL exact dedup.

The batch exact-dedup path (``functions/dedup.exact_dedup``) is an
exchange: every (hash, doc_id) row shuffles once — the right plan when
the whole corpus is in front of you.  The incremental case is
different: a daily ingest of new shards must dedup against EVERYTHING
already exported, and re-shuffling 100 TB of history per day is wrong.
The scale answer is a persistent index keyed by content hash — the one
semantics the Dataset API genuinely can't express (a shared MUTABLE
lookup across independent tasks), so this module drops to raw Ray
actors, per the documented escape-hatch policy.

Design:

- ``IndexShard`` actors (``num_cpus=0`` — memory services, not
  compute) each own ``hash -> (min_doc_id, count)`` for their slice of
  the hash space.  Routing is the digest's first 8 bytes mod
  ``n_shards`` — deterministic, so a hash always lands on one shard
  and no cross-shard coordination exists.  On a real cluster shards
  spread across nodes; memory is ~50 B per distinct document, the
  honest price of never re-reading history.
- Ingest is TWO-PHASE so the result is deterministic (global min
  doc_id wins) rather than arrival-order racy: phase 1 streams
  ``offer`` batches into the shards (each map task blocks on its
  actor acks, and the pass is materialized as a barrier); phase 2
  streams ``lookup`` batches and keeps exactly the rows whose id IS
  the registered winner.
- ``seal()`` freezes the current winners: a later corpus's offers
  cannot displace a sealed entry even with a smaller doc_id — the
  incremental contract (history is already exported; new dups of old
  content must DROP, not steal the crown).

Reference parity note: the reference has no incremental story at all
(one process, one file at a time — ocr_router.py main loop); this is
part of the beyond-reference training-data suite.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray


def _spawn_shards(actor_cls, n_shards: int) -> list:
    """Spawn shard actors with the SPREAD scheduling strategy (r5
    VERDICT #8): on a multi-node cluster Ray places them round-robin
    across nodes, so the index's aggregate memory scales with the
    cluster instead of stacking every ``num_cpus=0`` actor on the head
    node (the default packing behavior for zero-resource actors).  On
    one node it is a no-op.  Shard-count sweeps on one box measure RPC
    overhead only; node fan-out is the real scaling axis — see the
    ``ray job submit`` recipe in BASELINE.md for running an ingest on
    a real cluster."""
    return [
        actor_cls.options(scheduling_strategy="SPREAD").remote()
        for _ in range(n_shards)
    ]


@ray.remote(num_cpus=0)
class IndexShard:
    """One hash-space slice: ``digest -> (min_doc_id, offer_count)``.

    Methods take parallel lists (one actor call per batch per shard,
    never per row).  State splits into ``_sealed`` (winners frozen by
    ``seal()``) and ``_open`` (the current ingest's candidates)."""

    def __init__(self):
        self._sealed: dict = {}
        self._open: dict = {}
        self._seen_keys: set = set()

    def offer(self, key: int, digests: list, ids: list) -> int:
        """``key`` is an idempotency token (the batch slice's min
        doc_id — unique because batches partition the id space): a
        replayed offer (Ray task retry, or a rerun of the same ingest
        against an unsealed index) is a no-op, so multiplicities stay
        exact under retries."""
        if key in self._seen_keys:
            return len(self._open)
        self._seen_keys.add(key)
        sealed, open_ = self._sealed, self._open
        for h, i in zip(digests, ids):
            if h in sealed:
                ent = sealed[h]
                sealed[h] = (ent[0], ent[1] + 1)
                continue
            ent = open_.get(h)
            if ent is None:
                open_[h] = (i, 1)
            else:
                open_[h] = (min(ent[0], i), ent[1] + 1)
        return len(open_)

    def lookup(self, digests: list) -> list:
        sealed, open_ = self._sealed, self._open
        out = []
        for h in digests:
            ent = sealed.get(h) or open_.get(h)
            out.append((-1, 0) if ent is None else ent)
        return out

    def seal(self) -> int:
        self._sealed.update(self._open)
        self._open = {}
        self._seen_keys = set()  # next ingest is a fresh epoch
        return len(self._sealed)

    def size(self) -> tuple:
        return (len(self._sealed), len(self._open))

    def dump_sealed(self, path: str) -> int:
        """Persist the SEALED entries as one parquet file (digest,
        min_doc_id, count) — each shard writes its own slice, so the
        save is shard-parallel and never funnels the index through
        the driver.  Open (unsealed) entries are deliberately not
        saved: an unfinished ingest resumes by re-running it (the
        offers are idempotent), not by restoring half its state."""
        import pyarrow.parquet as pq

        items = list(self._sealed.items())
        # ids may MIX int and string across epochs (a parquet epoch
        # followed by a JSONL crawl epoch) — store (str, kind) so the
        # exact Python objects round-trip; equality semantics across
        # differently-typed epochs stay correct (a sealed int winner
        # never equals a new str id, so new copies of old content
        # drop — the intended contract)
        t = pa.table(
            {
                "digest": pa.array([h for h, _ in items],
                                   type=pa.binary()),
                "doc_id": pa.array([str(e[0]) for _, e in items],
                                   type=pa.string()),
                "id_kind": pa.array(
                    ["i" if isinstance(e[0], (int, np.integer)) else "s"
                     for _, e in items],
                    type=pa.string(),
                ),
                "count": pa.array([e[1] for _, e in items],
                                  type=pa.int64()),
            }
        )
        pq.write_table(t, path)
        return t.num_rows

    def load_sealed(self, path: str) -> int:
        import pyarrow.parquet as pq

        t = pq.read_table(path)
        self._sealed = {
            h: (int(i) if k == "i" else i, c)
            for h, i, k, c in zip(t.column("digest").to_pylist(),
                                  t.column("doc_id").to_pylist(),
                                  t.column("id_kind").to_pylist(),
                                  t.column("count").to_pylist())
        }
        return len(self._sealed)


class DedupIndex:
    """Driver-side handle over ``n_shards`` IndexShard actors; the
    handle (actor refs + shard count) pickles into map tasks.

    ``save``/``load`` give the index a life beyond one Ray session —
    the incremental contract is cross-JOB (yesterday's export, today's
    ingest), so the sealed winners persist as per-shard parquet under
    a directory whose shard count is pinned in ``index.json`` (the
    digest→shard routing depends on n_shards, so a reload must use
    the same fan-out).  Shards write/read the snapshot directly, so
    the path must be shared storage on a multi-node cluster (NFS/S3
    mount — the same requirement ``state/runner.py`` documents for
    its checkpoint dirs)."""

    def __init__(self, n_shards: int = 8):
        self.n_shards = n_shards
        self.shards = _spawn_shards(IndexShard, n_shards)

    def seal(self) -> int:
        return sum(ray.get([s.seal.remote() for s in self.shards]))

    def sizes(self) -> list:
        return ray.get([s.size.remote() for s in self.shards])

    def save(self, path: str) -> int:
        """Seal, then persist every shard (parallel, atomic via the
        shared ``_atomic_snapshot_save`` scaffolding)."""
        import os

        self.seal()

        def dump(tmp):
            return sum(ray.get([
                s.dump_sealed.remote(
                    os.path.join(tmp, f"shard-{i}.parquet"))
                for i, s in enumerate(self.shards)
            ]))

        return _atomic_snapshot_save(
            path, {"n_shards": self.n_shards, "kind": "exact"}, dump
        )

    @classmethod
    def load(cls, path: str) -> "DedupIndex":
        import os

        meta = _load_snapshot_meta(path, "exact")
        index = cls(n_shards=meta["n_shards"])
        ray.get([
            s.load_sealed.remote(os.path.join(path, f"shard-{i}.parquet"))
            for i, s in enumerate(index.shards)
        ])
        return index


def _digest_route(batch: pa.Table, n_shards: int):
    """(digests, ids, shard_of) for one batch.  Content identity:
    sha256 of the ``text`` column when present (the exact_dedup
    contract), else of a canonical serialization of the interleaved
    ``spans`` column (kind/text/media_ref/offset per span, length-
    prefixed so no two span lists collide by concatenation) — the
    shape the CLI ingest job sees.  Ids may be int64 or string; the
    index only needs equality + a stable min."""
    names = set(batch.schema.names)
    if "text" in names:
        contents = [t.encode("utf-8")
                    for t in batch.column("text").to_pylist()]
    elif "spans" in names:
        contents = []
        for spans in batch.column("spans").to_pylist():
            parts = []
            for s in spans or []:
                for field in ("kind", "text", "media_ref"):
                    v = s.get(field) or ""
                    parts.append(f"{len(v)}:{v}")
                parts.append(f"o{s.get('offset')}")
            contents.append("|".join(parts).encode("utf-8"))
    else:
        raise ValueError(
            "dedup_index: batch has neither 'text' nor 'spans'; "
            f"columns: {sorted(names)}"
        )
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    digests = [hashlib.sha256(c).digest() for c in contents]
    shard_of = np.array(
        [int.from_bytes(d[:8], "big") % n_shards for d in digests],
        dtype=np.int64,
    )
    return digests, ids, shard_of


def ingest_dedup(docs, index: DedupIndex, *, keep_cols=("doc_id",),
                 stats: dict | None = None):
    """Two-phase incremental exact dedup of ``docs`` against (and
    into) ``index``: returns the surviving rows plus ``n_dups`` (this
    ingest's multiplicity folded onto the winner; for content sealed
    in a previous ingest, nobody survives here — those dups counted
    against history are dropped entirely).

    Phase 1 (offer) is materialized as a barrier; phase 2 (lookup +
    filter) streams.  Output is deterministic: the winner is the
    global min doc_id among this ingest's copies, never a race.
    Pass ``stats`` to receive ``n_input`` from the barrier's per-batch
    counts — callers then don't pay a separate counting scan.
    """
    shards, n = index.shards, index.n_shards

    def offer(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return pa.table({"n": pa.array([0], type=pa.int64())})
        digests, ids, shard_of = _digest_route(batch, n)
        key = ids.min()  # idempotency token: batches partition the
        # id space, so the slice minimum is unique per batch
        key = key.item() if hasattr(key, "item") else key
        refs = []
        for s in np.unique(shard_of):
            m = shard_of == s
            refs.append(shards[int(s)].offer.remote(
                key,
                [d for d, hit in zip(digests, m) if hit],
                ids[m].tolist(),
            ))
        ray.get(refs)  # ack before the barrier counts this block done
        return pa.table({"n": pa.array([batch.num_rows],
                                       type=pa.int64())})

    counts = docs.map_batches(offer, batch_format="pyarrow").materialize()
    if stats is not None:
        # one row per batch — bounded by block count, not corpus size
        stats["n_input"] = sum(r["n"] for r in counts.take_all())

    cols = list(keep_cols)

    def keep_winners(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        out_schema = pa.schema(
            [(c, batch.schema.field(c).type) for c in cols]
            + [("n_dups", pa.int64())]
        )
        if batch.num_rows == 0:
            return out_schema.empty_table()
        digests, ids, shard_of = _digest_route(batch, n)
        win = np.empty(len(ids), dtype=object)  # ids may be str or int
        cnt = np.zeros(len(ids), dtype=np.int64)
        refs, masks = [], []
        for s in np.unique(shard_of):
            m = shard_of == s
            masks.append(m)
            refs.append(shards[int(s)].lookup.remote(
                [d for d, hit in zip(digests, m) if hit]
            ))
        for m, res in zip(masks, ray.get(refs)):
            win[m] = np.array([r[0] for r in res], dtype=object)
            cnt[m] = np.array([r[1] for r in res], dtype=np.int64)
        sel = pa.array((win == ids).astype(bool))
        kept = batch.filter(sel).select(cols)
        return kept.append_column(
            "n_dups", pa.array(cnt[win == ids], type=pa.int64())
        )

    return docs.map_batches(keep_winners, batch_format="pyarrow")


# --- incremental NEAR-dup: LSH signature index ------------------------------
#
# The exact index above answers "have I exported this exact content?".
# Real crawls re-ingest boilerplate-mutated copies, so the incremental
# question is fuzzy: "is this a near-duplicate of anything in history?".
# Same actor-shard shape, but entries are MinHash signatures routed by
# LSH band bucket: a new document probes its ``bands`` buckets, and
# candidates are verified by the signature-equality Jaccard estimate
# (mean over num_perm permutations — the standard unbiased estimator).
# Banding recall is the same trade as the batch MinHash plan
# (functions/dedup.py): a true near-dup pair collides in >= 1 band
# with the usual S-curve probability; missed-band pairs are the
# documented recall cost, measured by the gate query, never silent.
#
# Storage layout (the 100-TB design, measured in BASELINE.md r4): each
# document's signature is stored ONCE, on the shard ``_id_route``
# picks; band buckets hold (doc_id, sealed) entries only.  A probe
# pays a second batched hop (``get_sigs`` for the few verify-worthy
# candidates) instead of every band entry carrying bands x sig_bytes
# duplication — cutting snapshot size, shard memory, and the candidate
# response payloads that starved producer CPUs in the one-hop design.


def _encode_id(i):
    """(str, kind) round-trip encoding shared by both snapshot formats
    (ids may mix int and string across epochs)."""
    return str(i), ("i" if isinstance(i, (int, np.integer)) else "s")


def _decode_id(s: str, kind: str):
    return int(s) if kind == "i" else s


_SIG_FORMAT = "u8fold"  # stamped into near-dup snapshots; bump when
# _sig_compact (or render_spans_text) changes — old signatures are
# incomparable with new ones


def render_spans_text(spans) -> str:
    """Canonical text rendering of one interleaved document for
    near-dup shingling: text spans in offset order, media refs inlined
    as tokens (an image-only edit still counts as a change).  Part of
    the signature identity — snapshots bake it in, so changing it
    requires a ``_SIG_FORMAT`` bump."""
    parts = []
    for s in sorted(spans or [], key=lambda x: x.get("offset") or 0):
        parts.append(s.get("text") or s.get("media_ref") or "")
    return "\n".join(parts)


def _sig_compact(sigs: np.ndarray) -> np.ndarray:
    """(n, num_perm) uint64 MinHash values → (n, num_perm) uint8: the
    verify stage only tests per-permutation EQUALITY, so one mixed
    byte per perm suffices.  Collision bias: P(equal bytes | unequal
    values) = 1/256, inflating the Jaccard estimate by (1-J)/256 —
    an order of magnitude under the 64-perm estimator noise (~0.06),
    and it cuts index memory and snapshot size ~6x (measured 6.7 GB →
    1.1 GB per 1M docs at 16 bands, BASELINE.md r4).  The fold is part
    of the snapshot format (stamped as ``sig_format`` in index.json):
    offers and probes must use the same function."""
    x = sigs.astype(np.uint64, copy=False) * np.uint64(0x9E3779B97F4A7C15)
    return (x >> np.uint64(56)).astype(np.uint8)


def _id_lt(a, b) -> bool:
    """Total order over possibly mixed-type ids (int epoch vs string
    epoch sharing one unsealed index): same kind compares naturally,
    ints order before strings — any fixed rule works, it only has to
    be deterministic."""
    ka, kb = isinstance(a, str), isinstance(b, str)
    if ka != kb:
        return kb  # int < str
    return a < b


def _enc_id_str(i) -> str:
    """Canonical one-string id encoding (``kind:value``) used for the
    shard-side numpy arrays and snapshots: mixed int/str epochs stay
    homogeneous, and the kind prefix keeps int 5 and str "5" distinct.
    Only EQUALITY is ever tested on the encoded form — ordering
    decisions decode first (``_id_lt`` is kind-aware numeric/lexical,
    which the encoded string is not)."""
    s, k = _encode_id(i)
    return f"{k}:{s}"


def _dec_id_str(e: str):
    k, s = e.split(":", 1)
    return _decode_id(s, k)


def _id_route_enc(enc: str, n_shards: int) -> int:
    """Deterministic home shard of a doc id's single signature copy —
    blake2b of the encoded form (process-independent, unlike builtin
    str hash)."""
    h = hashlib.blake2b(enc.encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") % n_shards


@ray.remote(num_cpus=0)
class SigShard:
    """One slice of TWO routing spaces served by the same actor set:
    band space (``bucket % n_shards`` -> (doc_id, sealed) entries) and
    signature space (``_id_route_enc(doc_id)`` -> the doc's single
    signature copy).  Probes resolve candidate IDS from buckets, then
    batch-fetch only the verify-worthy signatures via ``get_sigs`` —
    the two-hop, single-copy layout (see the section comment above).

    The data plane is ARRAY-backed and loop-free: offers append whole
    numpy arrays (O(1) Python work per call), the first probe after
    new offers triggers one vectorized compaction (concatenate +
    argsort), and probes/fetches answer via ``searchsorted`` slices.
    The phase protocol makes this cheap: all offers land before any
    probe (the ingest barrier), so compaction runs once per epoch.
    The dict-of-tuples design this replaces went GC-bound at ~60M
    entries (per-entry Python objects; measured in BASELINE.md r4).
    Ids live in the encoded ``kind:value`` string form throughout.

    ``condemn`` records the ids the decide phase DROPPED; ``seal``
    prunes their open entries — a dropped document's signature must
    NOT become history, or later epochs over-drop docs whose only
    near-dup was never exported (transitive chain-drops).  Condemning
    the dropped side (O(dups)) instead of marking the kept side
    (O(corpus)) is safe because ``ingest_neardup`` materializes the
    decide pass before returning, so every document has been decided
    before anything can seal; condemns are idempotent under task
    retries."""

    def __init__(self):
        self._seen_keys: set = set()
        self._condemned: list = []         # U-str array chunks
        # band space: bucket-sorted columns + pending offer chunks
        self._bk = np.empty(0, dtype=np.int64)
        self._bi = np.empty(0, dtype="U1")
        self._bsealed = np.empty(0, dtype=bool)
        self._b_chunks: list = []
        # sig space: id-sorted columns + pending offer chunks
        self._sk = np.empty(0, dtype="U1")
        self._sv = np.empty((0, 0), dtype=np.uint8)
        self._ssealed = np.empty(0, dtype=bool)
        self._s_chunks: list = []
        # probes whose bucket exceeded the hot-bucket cap (per-ingest
        # diagnostic; read-and-reset) + cached per-bucket cap prefixes
        self._n_saturated = 0
        self._hot_prefix: dict = {}

    def offer(self, key, buckets, band_ids, sig_ids, sigs) -> int:
        """One producer batch's slice for this shard: band entries
        (``buckets``/``band_ids`` int64/U-str arrays, routed here by
        bucket) plus home signatures (``sig_ids``/``sigs`` U-str /
        (k, sig_bytes) uint8 arrays, routed here by id).  ``key`` is
        the batch idempotency token — it guards both tables, and each
        shard skips the whole replayed slice atomically."""
        if key in self._seen_keys:
            return 0
        self._seen_keys.add(key)
        if len(buckets):
            self._b_chunks.append((np.asarray(buckets, dtype=np.int64),
                                   np.asarray(band_ids)))
        if len(sig_ids):
            self._s_chunks.append((np.asarray(sig_ids),
                                   np.asarray(sigs, dtype=np.uint8)))
        return len(self._b_chunks)

    def _compact(self):
        if self._b_chunks:
            bk = np.concatenate([self._bk]
                                + [c[0] for c in self._b_chunks])
            bi = np.concatenate([self._bi]
                                + [c[1] for c in self._b_chunks])
            bs = np.concatenate(
                [self._bsealed,
                 np.zeros(len(bk) - len(self._bsealed), dtype=bool)])
            order = np.argsort(bk, kind="stable")
            self._bk, self._bi, self._bsealed = (
                bk[order], bi[order], bs[order])
            self._b_chunks = []
            # bucket contents changed: hot-prefix selections recompute
            self._hot_prefix = {}
        if self._s_chunks:
            sk = np.concatenate([self._sk]
                                + [c[0] for c in self._s_chunks])
            mats = ([self._sv] if self._sv.shape[0] else []) + \
                [c[1] for c in self._s_chunks]
            sv = np.concatenate(mats)
            ss = np.concatenate(
                [self._ssealed,
                 np.zeros(len(sk) - len(self._ssealed), dtype=bool)])
            order = np.argsort(sk, kind="stable")
            self._sk, self._sv, self._ssealed = (
                sk[order], sv[order], ss[order])
            self._s_chunks = []

    def _hot_prefix_idx(self, bucket: int, lo: int, hi: int,
                        cap: int) -> np.ndarray:
        """Absolute indices of the (sealed-first, then _id_lt-smallest)
        ``cap``-prefix of one oversized bucket — exactly the entries
        the sealed-or-min-id keep rule can lose to.  Selection decodes
        the encoded ids, because THEIR lexicographic order is not the
        id order ('i:9' > 'i:100' — encoded form supports equality
        only).  Fully vectorized (np.char decode + one lexsort over
        (sealed, kind, numeric-or-string) keys — a per-entry Python
        key over a corpus-sized mega-bucket cost seconds of actor
        time), computed once per (bucket, cap, epoch) and cached
        (invalidated whenever the band arrays change)."""
        cached = self._hot_prefix.get((bucket, cap))
        if cached is not None:
            return cached
        ids = self._bi[lo:hi]
        sealed = self._bsealed[lo:hi]
        suffix = np.char.partition(ids, ":")[:, 2]
        is_str = np.char.startswith(ids, "s:")
        num = np.full(len(ids), np.iinfo(np.int64).max, dtype=np.int64)
        is_int = ~is_str
        if is_int.any():
            num[is_int] = suffix[is_int].astype(np.int64)
        # lexsort: primary = sealed-first, then ints-before-strings
        # (_id_lt), then numeric value for ints / raw suffix for strs
        order = np.lexsort((suffix, num, is_str.astype(np.int8),
                            (~sealed).astype(np.int8)))[:cap]
        out = np.sort(order).astype(np.int64) + lo
        self._hot_prefix[(bucket, cap)] = out
        return out

    def candidates(self, probes, cap: int = 0):
        """(counts, ids, sealed) for the probed buckets: ``counts[i]``
        entries of probe i, concatenated in probe order — the caller
        splits by counts.  One searchsorted pair over the sorted
        bucket column; no per-entry Python on the common path.

        ``cap`` > 0 bounds the entries returned PER BUCKET (the
        hot-bucket guard, r5): a boilerplate-template bucket holding a
        large fraction of the corpus would otherwise make every probe
        verify against the whole bucket — quadratic, measured as a
        wedged 1M-doc ingest on a single-template corpus.  Saturated
        buckets return the ``_hot_prefix_idx`` selection (sealed
        first, then the _id_lt-smallest ids — deterministic by corpus
        content, not arrival order); saturation is counted per ingest
        (``saturation_count``) so the recall caveat surfaces instead
        of hiding."""
        self._compact()
        probes = np.asarray(probes, dtype=np.int64)
        lo = np.searchsorted(self._bk, probes, side="left")
        hi = np.searchsorted(self._bk, probes, side="right")
        true_counts = hi - lo
        sat = (np.nonzero(true_counts > cap)[0] if cap > 0
               else np.empty(0, dtype=np.int64))
        if len(sat) == 0:
            counts = true_counts
            total = int(counts.sum())
            if total == 0:
                return counts, np.empty(0, dtype="U1"), np.empty(0, bool)
            starts = np.cumsum(counts) - counts
            idx = np.repeat(lo, counts) + (np.arange(total)
                                           - np.repeat(starts, counts))
            return counts, self._bi[idx], self._bsealed[idx]
        self._n_saturated += len(sat)
        counts = np.minimum(true_counts, cap)
        # stitch: vectorized repeat-gather for the (many) non-saturated
        # probes, the cached prefix selection only for the (few)
        # saturated ones — all placed at their probe-order offsets
        starts = np.cumsum(counts) - counts
        idx = np.empty(int(counts.sum()), dtype=np.int64)
        norm = true_counts <= cap
        if norm.any():
            nc = counts[norm]
            within = (np.arange(int(nc.sum()))
                      - np.repeat(np.cumsum(nc) - nc, nc))
            idx[np.repeat(starts[norm], nc) + within] = \
                np.repeat(lo[norm], nc) + within
        for k in sat:
            idx[starts[k]:starts[k] + cap] = self._hot_prefix_idx(
                int(probes[k]), int(lo[k]), int(hi[k]), cap)
        return counts, self._bi[idx], self._bsealed[idx]

    def get_sigs(self, ids):
        """(found, sigs): boolean mask over ``ids`` plus the signature
        matrix rows for the found ones, in input order."""
        self._compact()
        ids = np.asarray(ids)
        if not len(self._sk):
            return np.zeros(len(ids), dtype=bool), \
                np.empty((0, 0), dtype=np.uint8)
        pos = np.searchsorted(self._sk, ids)
        pos_c = np.minimum(pos, len(self._sk) - 1)
        found = self._sk[pos_c] == ids
        return found, self._sv[pos_c[found]]

    def condemn(self, ids) -> None:
        if len(ids):
            self._condemned.append(np.asarray(ids))

    def saturation_count(self, reset: bool = False) -> int:
        """Per-ingest diagnostic (the ingest reads with ``reset`` so a
        later epoch starts from zero).  Approximate under Ray task
        retries — a retried decide batch re-probes and re-counts —
        which is fine for a diagnostic, never a correctness value."""
        n = self._n_saturated
        if reset:
            self._n_saturated = 0
        return n

    def seal(self) -> int:
        self._compact()
        condemned = (np.unique(np.concatenate(self._condemned))
                     if self._condemned else np.empty(0, dtype="U1"))
        keep_b = self._bsealed | ~np.isin(self._bi, condemned)
        self._bk = self._bk[keep_b]
        self._bi = self._bi[keep_b]
        self._bsealed = np.ones(len(self._bk), dtype=bool)
        keep_s = self._ssealed | ~np.isin(self._sk, condemned)
        self._sk = self._sk[keep_s]
        self._sv = self._sv[keep_s] if self._sv.shape[0] else self._sv
        self._ssealed = np.ones(len(self._sk), dtype=bool)
        self._seen_keys = set()
        self._condemned = []
        self._hot_prefix = {}  # entries pruned/resealed: recompute
        return int(len(self._bk))

    def dump_sealed(self, bands_path: str, sigs_path: str) -> int:
        import pyarrow.parquet as pq

        self._compact()
        bm = self._bsealed
        pq.write_table(
            pa.table(
                {
                    "bucket": pa.array(self._bk[bm]),
                    "doc_id": pa.array(self._bi[bm]),
                }
            ),
            bands_path,
        )
        sm = self._ssealed
        sv = self._sv[sm] if self._sv.shape[0] else \
            np.empty((0, 0), dtype=np.uint8)
        width = int(sv.shape[1])
        sig_arr = (
            pa.Array.from_buffers(
                pa.binary(width), len(sv),
                [None, pa.py_buffer(np.ascontiguousarray(sv).tobytes())])
            if width else pa.array([], type=pa.binary())
        )
        pq.write_table(
            pa.table({"doc_id": pa.array(self._sk[sm]), "sig": sig_arr}),
            sigs_path,
        )
        return int(bm.sum())

    def load_sealed(self, bands_path: str, sigs_path: str) -> int:
        import pyarrow.parquet as pq

        t = pq.read_table(bands_path)
        # dump wrote bucket-sorted sealed rows, so this IS the
        # compacted state
        self._bk = t.column("bucket").to_numpy(zero_copy_only=False)
        self._bi = np.asarray(t.column("doc_id").to_pylist(), dtype="U")\
            if t.num_rows else np.empty(0, dtype="U1")
        self._bsealed = np.ones(t.num_rows, dtype=bool)
        self._hot_prefix = {}
        ts = pq.read_table(sigs_path)
        if ts.num_rows:
            self._sk = np.asarray(ts.column("doc_id").to_pylist(),
                                  dtype="U")
            col = ts.column("sig").combine_chunks()
            sig_bytes = col.cast(pa.binary()).to_pylist()
            self._sv = np.frombuffer(
                b"".join(sig_bytes), dtype=np.uint8
            ).reshape(ts.num_rows, -1).copy()
            self._ssealed = np.ones(ts.num_rows, dtype=bool)
        return t.num_rows


def _atomic_snapshot_save(path: str, meta: dict, dump) -> int:
    """Shared save scaffolding for both index kinds: append-only
    guard FIRST (before any dump work), then the commit protocol of
    ``state/manifest.py`` — a crashed save's staging dir (maybe with
    a different fan-out) is cleaned so no stale shard file leaks into
    the snapshot, the shard-parallel dump writes ``dump(tmp_dir)``,
    the meta goes last, and the dir is renamed into place."""
    import json
    import os

    from .manifest import publish_dir, stage

    if os.path.exists(path):
        raise FileExistsError(
            f"index save: {path} exists; saves are append-only "
            "snapshots — pick a fresh path per ingest epoch"
        )
    tmp = stage(path)
    os.makedirs(tmp)
    n = dump(tmp)
    with open(os.path.join(tmp, "index.json"), "w") as f:
        json.dump({**meta, "entries": n}, f)
    publish_dir(path)
    return n


def _load_snapshot_meta(path: str, expect_kind: str) -> dict:
    import json
    import os

    with open(os.path.join(path, "index.json")) as f:
        meta = json.load(f)
    kind = meta.get("kind", "exact")  # pre-kind snapshots were exact
    if kind != expect_kind:
        raise ValueError(
            f"index load: {path} is a '{kind}' snapshot, not "
            f"'{expect_kind}' — exact and near-dup snapshots are not "
            "interchangeable"
        )
    return meta


class NearDupIndex:
    """Driver-side handle; MinHash parameters are part of the index
    identity (signatures from different parameters are incomparable),
    so they are pinned in the snapshot's ``index.json`` and a reload
    reconstructs the exact hasher."""

    def __init__(self, n_shards: int = 8, *, num_perm: int = 64,
                 bands: int = 16, shingle_k: int = 3, seed: int = 42):
        self.n_shards = n_shards
        self.params = {"num_perm": num_perm, "bands": bands,
                       "shingle_k": shingle_k, "seed": seed}
        self.shards = _spawn_shards(SigShard, n_shards)

    def make_hasher(self):
        from ..functions.dedup import MinHashLSH

        return MinHashLSH(**self.params)

    def seal(self) -> int:
        return sum(ray.get([s.seal.remote() for s in self.shards]))

    def save(self, path: str) -> int:
        import os

        self.seal()

        def dump(tmp):
            return sum(ray.get([
                s.dump_sealed.remote(
                    os.path.join(tmp, f"shard-{i}.parquet"),
                    os.path.join(tmp, f"sigs-{i}.parquet"))
                for i, s in enumerate(self.shards)
            ]))

        return _atomic_snapshot_save(
            path,
            {"n_shards": self.n_shards, "params": self.params,
             "kind": "neardup", "sig_format": _SIG_FORMAT,
             "layout": "sigtab"},
            dump,
        )

    @classmethod
    def load(cls, path: str) -> "NearDupIndex":
        import os

        meta = _load_snapshot_meta(path, "neardup")
        fmt = meta.get("sig_format")
        if fmt != _SIG_FORMAT:
            raise ValueError(
                f"NearDupIndex.load: {path} stores signatures in "
                f"format {fmt!r}, this build expects {_SIG_FORMAT!r} — "
                "signatures across formats are incomparable; re-ingest "
                "history to migrate"
            )
        layout = meta.get("layout")
        if layout != "sigtab":
            raise ValueError(
                f"NearDupIndex.load: {path} uses snapshot layout "
                f"{layout!r}; this build reads the single-copy "
                "'sigtab' layout (bands + sigs files per shard) — "
                "re-ingest history to migrate"
            )
        index = cls(n_shards=meta["n_shards"], **meta["params"])
        ray.get([
            s.load_sealed.remote(
                os.path.join(path, f"shard-{i}.parquet"),
                os.path.join(path, f"sigs-{i}.parquet"))
            for i, s in enumerate(index.shards)
        ])
        return index


_DROPLIST_DRIVER_MAX = 2_000_000  # dropped ids fetched to the driver
# for the broadcast apply path; above this the apply switches to the
# co-partitioned anti-join so driver memory stays bounded


def ingest_neardup(docs, index: NearDupIndex, *, threshold: float = 0.7,
                   keep_cols=("doc_id",), stats: dict | None = None,
                   hot_bucket_cap: int = 4096):
    """Incremental NEAR-dup filter: a document drops when any
    LSH-candidate's estimated Jaccard is >= ``threshold`` AND the
    candidate is history (sealed) or an epoch-mate with a smaller id —
    the same deterministic pairwise keep-rule as ``emb_dedup_apply``
    (min id wins; no arrival-order races).  Requires a ``text``
    column and unique doc_ids across epochs.

    THREE passes, and the result is returned MATERIALIZED:

    1. offer — shingle + MinHash each batch ONCE; register band
       entries (bucket-routed) and single-copy signatures (id-routed)
       on the shards; EMIT (doc_id, sig, buckets) rows.  The
       materialized barrier doubles as the signature cache, so no
       later pass re-shingles text (the old two-pass design recomputed
       every signature in its keep pass — measured ~40%% of the
       1M-doc ingest wall, BASELINE.md r4).
    2. decide — over the signature rows (no text): probe buckets for
       candidate IDS, batch-fetch the few verify-worthy signatures by
       id (the second hop of the single-copy layout), verify,
       ``condemn`` the dropped ids on their shards (O(dups) traffic),
       and emit them.  Materializing this pass is the condemn barrier:
       ``seal()``/``save()`` prune every condemned entry, because a
       dropped document's signature must not suppress future documents
       (it was never exported).
    3. apply — filter ``docs`` by the droplist: broadcast ``pc.is_in``
       when the epoch's dup count is driver-small, else the
       co-partitioned ``relational.anti_join``.  The droplist is
       O(dups in this epoch), never O(corpus).

    The candidate-verify loop is per document over its (few) bucket
    hits, with the signature comparison itself vectorized across all
    of a document's candidates."""
    if 0 < hot_bucket_cap < 2:
        # the decide pass prefilters on capped bucket counts >= 2 (own
        # entry + at least one foreign); a cap of 1 would silently
        # disable dedup entirely
        raise ValueError(
            "ingest_neardup: hot_bucket_cap must be >= 2 (or <= 0 to "
            "disable the cap)"
        )
    import pyarrow.compute as pc

    from ..functions.dedup import band_buckets

    shards, n = index.shards, index.n_shards
    hasher = index.make_hasher()
    bands = index.params["bands"]

    def offer(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        id_col = batch.column("doc_id")
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", id_col.type), ("sig", pa.binary()),
                 ("buckets", pa.list_(pa.int64(), bands))]
            ).empty_table()
        texts = batch.column("text").to_pylist()
        ids_np = id_col.to_numpy(zero_copy_only=False)
        ids = [i.item() if hasattr(i, "item") else i for i in ids_np]
        sigs = hasher.signature_batch(texts)
        buckets = band_buckets(sigs, bands)
        compact = _sig_compact(sigs)  # (n, num_perm) uint8 — see
        # _sig_compact; shipped as matrix slices, stored once per doc
        enc = np.array([_enc_id_str(i) for i in ids])
        key = min(ids)
        flat_b = buckets.reshape(-1)
        flat_i = np.repeat(np.arange(len(ids)), bands)
        band_shard = flat_b % n
        sig_shard = np.array([_id_route_enc(e, n) for e in enc],
                             dtype=np.int64)
        refs = []
        for s in np.unique(np.concatenate([band_shard, sig_shard])):
            bm = band_shard == s
            si = sig_shard == s
            refs.append(shards[int(s)].offer.remote(
                key, flat_b[bm], enc[flat_i[bm]], enc[si], compact[si],
            ))
        ray.get(refs)  # ack before the barrier counts this block done
        return pa.table({
            "doc_id": id_col,
            "sig": pa.array([s.tobytes() for s in compact],
                            type=pa.binary()),
            "buckets": pa.FixedSizeListArray.from_arrays(
                pa.array(flat_b, type=pa.int64()), bands),
        })

    import time as _time

    _t0 = _time.perf_counter()
    sig_ds = docs.map_batches(offer, batch_format="pyarrow").materialize()
    if stats is not None:
        stats["n_input"] = sig_ds.count()  # metadata count — free
        stats["t_offer_s"] = round(_time.perf_counter() - _t0, 2)

    def decide(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        id_col = batch.column("doc_id")
        if batch.num_rows == 0:
            return pa.schema([("doc_id", id_col.type)]).empty_table()
        ids_np = id_col.to_numpy(zero_copy_only=False)
        ids = [i.item() if hasattr(i, "item") else i for i in ids_np]
        enc = np.array([_enc_id_str(i) for i in ids])
        own_compact = np.frombuffer(
            b"".join(batch.column("sig").to_pylist()), dtype=np.uint8
        ).reshape(len(ids), -1)
        buckets = (
            batch.column("buckets").chunk(0).values.to_numpy()
            .reshape(len(ids), bands)
        )
        uniq, inverse = np.unique(buckets.reshape(-1),
                                  return_inverse=True)
        shard_of = uniq % n
        refs, group_pos = [], []
        for s in np.unique(shard_of):
            pos = np.nonzero(shard_of == s)[0]
            group_pos.append(pos)
            refs.append(shards[int(s)].candidates.remote(
                uniq[pos], hot_bucket_cap))
        # every probed bucket holds the probing doc's OWN entry (its
        # offer landed before the barrier), so a bucket carries a
        # foreign candidate iff its entry count is >= 2 — materialize
        # entry lists only for those (O(dups), not O(docs x bands)).
        # hot_bucket_cap bounds each bucket's entry list (sealed +
        # smallest ids, deterministic) so a boilerplate-template
        # bucket cannot make verification quadratic; saturation is
        # counted shard-side and surfaced in stats.
        bucket_entries: dict = {}
        counts_full = np.empty(len(uniq), dtype=np.int64)
        for pos, (counts, c_ids, c_sealed) in zip(group_pos,
                                                  ray.get(refs)):
            counts_full[pos] = counts
            multi = np.nonzero(counts >= 2)[0]
            if len(multi):
                starts = np.cumsum(counts) - counts
                for k in multi:
                    s0, c0 = int(starts[k]), int(counts[k])
                    bucket_entries[int(uniq[pos[k]])] = (
                        c_ids[s0:s0 + c0], c_sealed[s0:s0 + c0])
        cell_counts = counts_full[inverse].reshape(len(ids), bands)
        slow = np.nonzero((cell_counts >= 2).any(axis=1))[0]
        # per-doc candidate sets (deduped across the doc's bands), then
        # ONE batched signature fetch for the union — the second hop
        cand_of, need = {}, set()
        for j in slow:
            own_e = enc[j]
            cand: dict = {}
            for b in buckets[j]:
                e = bucket_entries.get(int(b))
                if e is None:
                    continue
                for cid, sealed in zip(*e):
                    if cid != own_e:
                        cand[str(cid)] = bool(sealed)
            if cand:
                cand_of[j] = cand
                need.update(cand)
        sig_of: dict = {}
        if need:
            need_a = np.array(sorted(need))
            route = np.array([_id_route_enc(e, n) for e in need_a],
                             dtype=np.int64)
            refs, groups = [], []
            for s in np.unique(route):
                grp = need_a[route == s]
                groups.append(grp)
                refs.append(shards[int(s)].get_sigs.remote(grp))
            for grp, (found, mat) in zip(groups, ray.get(refs)):
                if not found.all():
                    raise RuntimeError(
                        "near-dup index: candidate signature missing "
                        f"for ids {grp[~found][:3].tolist()!r} — a "
                        "band entry without a home signature means "
                        "the offer barrier was violated"
                    )
                for e, row in zip(grp, mat):
                    sig_of[str(e)] = row
        keep_mask = np.ones(len(ids), dtype=bool)
        for j, cand in cand_of.items():
            own = ids[j]
            mat = np.stack([sig_of[c] for c in cand])
            sims = (mat == own_compact[j]).mean(axis=1)
            for (cid, sealed), sim in zip(cand.items(), sims):
                if sim >= threshold and (
                        sealed or _id_lt(_dec_id_str(cid), own)):
                    keep_mask[j] = False
                    break
        # dropped docs must NOT become history: condemn them on every
        # shard holding one of their band entries AND their signature
        # home shard (O(dups) traffic, not O(corpus); idempotent —
        # retries are safe; the decide materialize precedes any seal)
        drop_idx = np.nonzero(~keep_mask)[0]
        if len(drop_idx):
            flat_doc = np.repeat(np.arange(len(ids)), bands)
            drop_flat = np.isin(flat_doc, drop_idx)
            flat_b = buckets.reshape(-1)
            b_shard = flat_b % n
            sig_route = np.array(
                [_id_route_enc(str(enc[j]), n) for j in drop_idx],
                dtype=np.int64)
            refs = []
            for s in range(n):
                both = np.unique(np.concatenate([
                    enc[flat_doc[drop_flat & (b_shard == s)]],
                    enc[drop_idx[sig_route == s]],
                ]))
                if len(both):
                    refs.append(shards[s].condemn.remote(both))
            ray.get(refs)
        return pa.table({"doc_id": id_col.filter(pa.array(~keep_mask))})

    _t1 = _time.perf_counter()
    dropped_ds = sig_ds.map_batches(
        decide, batch_format="pyarrow").materialize()
    n_dropped = dropped_ds.count()
    # probes whose bucket was larger than hot_bucket_cap: nonzero
    # means template-heavy data where near-dup recall inside those
    # buckets is bounded by the sealed+min-id prefix — the operator's
    # cue to raise the cap or pre-strip boilerplate.  Read with reset
    # UNCONDITIONALLY so a later epoch on the same live index starts
    # its diagnostic from zero.
    n_sat = sum(ray.get(
        [s.saturation_count.remote(reset=True) for s in shards]))
    if stats is not None:
        stats["t_decide_s"] = round(_time.perf_counter() - _t1, 2)
        stats["n_saturated_bucket_probes"] = n_sat
    cols = list(keep_cols)

    if n_dropped == 0:
        return docs.map_batches(
            lambda b: b.select(cols), batch_format="pyarrow"
        ).materialize()
    if n_dropped > _DROPLIST_DRIVER_MAX:
        from ..functions.relational import anti_join

        kept = anti_join(docs, dropped_ds, key="doc_id",
                         left_cols=[c for c in cols if c != "doc_id"])
        return kept.map_batches(  # normalize to keep_cols projection
            lambda b: b.select(cols), batch_format="pyarrow"
        ).materialize()

    key_type = docs.schema().base_schema.field("doc_id").type
    drop_ref = ray.put(pa.array(
        [r["doc_id"] for r in dropped_ds.take_all()], type=key_type))

    def apply(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        if batch.num_rows == 0:
            return batch.select(cols)
        drop = ray.get(drop_ref)  # local object-store hit per batch
        mask = pc.invert(pc.is_in(batch.column("doc_id"),
                                  value_set=drop))
        return batch.filter(mask).select(cols)

    return docs.map_batches(apply, batch_format="pyarrow").materialize()

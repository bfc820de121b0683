"""OCR of media spans — the stateful actor-pool stage.

Engine analog of ``TrOCREngine`` (``/root/reference/ocr_router.py:31-46``):
the reference constructs the model once for a whole batch run
(``ocr_router.py:388-389``) and threads it through every call; here the
model loads once per actor in ``__init__`` and ``__call__`` transcribes a
whole Arrow batch of span rows.  Both extraction plans run it inside
one actor call after extract, on the pool ``pipelines.extract.ocr_pool``
sizes: the fused plan after explode too (``SpanExtractor``;
``FusedExtractor`` adds the block-local reassembly), the split plan on
fixed-size blocks of span rows (``SpanRowExtractor``).

The sandbox has no vision model, so the "model" is the deterministic
transcription contract of ``spec.mock_transcript`` plus two
configurable inference-cost knobs (mirroring the determinism knobs of
``ollama_local_ocr.py:143-144``):

- ``burn_iters``: CPU hash iterations per media span — a compute-bound
  stand-in (in-process model like TrOCR, ``ocr_router.py:31-46``);
- ``latency_ms``: wall latency per media span, charged as ONE batched
  sleep per call — a latency-bound stand-in (GPU / remote inference
  like the Ollama API path, whose 30-60s/image cost is service
  latency, not local CPU: ``ollama_local_ocr.py:202``).

Corrupt media become inline error spans and processing continues — the
per-page error semantics of ``ocr_router.py:296-298``.

Adds an ``ocr_ms`` column (the batch's OCR wall time amortized over its
media-derived rows, 0 on every other row) consumed by the lineage/metrics
sink.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..spec import (CORRUPT_SUFFIX, ERROR_TEXT, mock_transcript,
                    mode_transcript, resolve_policy)


class MediaPayload(bytes):
    """Store-resolved media bytes that keep their ``media_ref`` (read by
    ``stages.routing.RouterModel``'s file-name keywords)."""

    def __new__(cls, data, ref: str):
        self = super().__new__(cls, data)
        self.ref = ref
        return self


class OcrModel:
    """Callable-class stage: __init__ once per actor, __call__ per batch."""

    def __init__(self, burn_iters: int = 0, latency_ms: float = 0.0,
                 policy: str = "text", media_store=None, model=None,
                 metrics_sink=None, metrics_tag=None):
        # "load the model": in the real engine this is where weights land
        # on the device; here we pre-touch the transcription vocab and
        # keep the cost knobs.  ``policy`` is the mode dispatch of the
        # reference's --mode flag (R4, ``ollama_cloud_ocr.py:744-788``);
        # the 'multi' policy fans each media span into ordered sub-spans
        # (R9) — sub indices keep reassembly exact.
        #
        # ``media_store`` is the broadcast media-sidecar lookup of
        # SURVEY §2.7: a {media_ref: payload bytes} mapping (pass a
        # ``ray.put`` ObjectRef so the store ships to each actor ONCE,
        # not per batch) resolved here, inside the actor — media bytes
        # never enter the shuffle path.  Absent a store, the payload is
        # the deterministic content function of the ref (synthetic
        # corpus contract).
        self.burn_iters = int(burn_iters)
        self.latency_ms = float(latency_ms)
        resolve_policy(policy)  # unknown policy name fails fast, per actor
        self.policy = policy
        try:
            import ray

            if isinstance(media_store, ray.ObjectRef):
                media_store = ray.get(media_store)
        except ImportError:
            pass
        self.media_store = media_store
        # ``model`` is the real-engine adapter seam (the typed analog of
        # the engine dispatch at ``ocr_router.py:177-217``): a batched
        # callable ``payloads -> one transcript per payload``, where a
        # payload is the ``MediaPayload`` bytes when ``media_store``
        # resolves the ref, else the ref string.  Inject a
        # TrOCR/Ollama/Tesseract wrapper here to swap mock for real
        # inference as pure config; ``None`` keeps the deterministic
        # mock-policy contract.
        self.model = model
        self._warm = mock_transcript("media://warmup/0")
        # per-actor resource sampling (reference's per-call GPU/resource
        # probe, ``ollama_local_ocr.py:205-262``): one sample per batch,
        # fire-and-forget to the job-wide MetricsSink; a single ``if``
        # when no sink is configured
        from ..state.metrics import ResourceRecorder

        self.recorder = ResourceRecorder(metrics_sink, metrics_tag)

    def _record(self, n_rows: int, n_media: int, t0: float) -> None:
        if self.recorder.sink is not None:
            self.recorder.record(
                n_rows=n_rows, n_media=n_media,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )

    def resolve_media(self, ref: str) -> bytes | None:
        """media_ref → payload bytes via the broadcast sidecar store;
        None when no store is configured (ref-keyed mock contract)."""
        if self.media_store is None:
            return None
        return self.media_store.get(ref)

    MISSING_MEDIA = "[Error processing page: media not found: {ref}]"

    def _transcribe_key(self, ref: str):
        """(key, ok): transcription key for a media span.  With a sidecar
        store the mock model "reads the pixels" — the transcript is a
        function of the PAYLOAD, so two refs with identical bytes
        transcribe identically; a ref missing from the store is a data
        error (inline error span, processing continues)."""
        if self.media_store is None:
            return ref, True
        payload = self.media_store.get(ref)
        if payload is None:
            return None, False
        return "payload:" + hashlib.sha256(payload).hexdigest(), True

    def _burn(self, ref: str) -> None:
        # deterministic stand-in for per-span compute cost
        h = ref.encode()
        for _ in range(self.burn_iters):
            h = hashlib.sha256(h).digest()

    def simulate_latency(self, n_media: int) -> None:
        """One batched sleep modeling inference latency for n_media spans
        (batched inference amortizes per-call overhead; per-span cost is
        what scales)."""
        if self.latency_ms > 0.0 and n_media > 0:
            time.sleep(self.latency_ms * n_media / 1e3)

    def resolve_batch(self, refs: list[str]):
        """One resolution pass for a batch's media refs.

        Returns ``(status, keys, payloads)``: ``status[j]`` is
        ``"corrupt"`` / ``"missing"`` / ``"ok"`` per ref; ``keys`` and
        ``payloads`` hold the transcription key and model payload for
        the OK refs in order.  Resolving BEFORE the latency sleep means
        ``n_infer`` counts only spans the model actually sees — corrupt
        payloads and refs absent from the sidecar store charge no
        inference wall time.
        """
        status, keys, payloads = [], [], []
        for ref in refs:
            if ref.endswith(CORRUPT_SUFFIX):
                status.append("corrupt")
                continue
            key, ok = self._transcribe_key(ref)
            if not ok:
                status.append("missing")
                continue
            status.append("ok")
            keys.append(key)
            payloads.append(
                MediaPayload(self.resolve_media(ref), ref)
                if self.media_store is not None else ref
            )
        return status, keys, payloads

    def infer_texts(self, payloads: list, keys: list[str]) -> list[list[str]]:
        """Batched inference: ordered output texts per media payload.

        With an injected ``model`` this is ONE batched call over the
        payloads (real engines amortize per-call cost over the batch,
        the reference's per-image loop at ``ocr_router.py:383-415``
        turned batch-first); each transcript becomes a single output
        span.  Without one, the deterministic mock policy contract maps
        each KEY to its ordered sub-span texts (R4-R9 mode dispatch).
        """
        if not keys:
            return []
        if self.model is not None:
            texts = self.model(payloads)
            if len(texts) != len(payloads):
                raise ValueError(
                    f"injected model returned {len(texts)} transcripts "
                    f"for {len(payloads)} payloads"
                )
            return [[t] for t in texts]
        return [mode_transcript(k, self.policy) for k in keys]

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Span rows in, span rows out, with ``ocr_ms`` appended.

        Each media row becomes its outputs in place: one error row for a
        corrupt or missing ref, else one ``ocr`` row per transcript with
        ``sub`` = 0..k-1 (the R9 fan-out).  Every other row passes
        through unchanged.
        """
        t_call = time.perf_counter()
        batch = batch.combine_chunks()
        n = len(batch)
        is_media = pc.equal(batch.column("kind"), "media").to_numpy()
        media_idx = np.nonzero(is_media)[0]
        refs = batch.column("media_ref").take(media_idx).to_pylist()
        t0 = time.perf_counter()
        status, keys, payloads = self.resolve_batch(refs)
        self.simulate_latency(len(keys))
        for k in keys:
            self._burn(k)
        ok_outs = iter(self.infer_texts(payloads, keys))
        outs = [
            [("ocr", t) for t in next(ok_outs)] if st == "ok"
            else [("error", ERROR_TEXT if st == "corrupt"
                   else self.MISSING_MEDIA.format(ref=ref))]
            for ref, st in zip(refs, status)
        ]
        counts = np.ones(n, dtype=np.int64)
        counts[media_idx] = [len(o) for o in outs]
        # amortized batch OCR latency over the media-derived rows,
        # measured AFTER the work
        per_row_ms = ((time.perf_counter() - t0) * 1e3
                      / max(1, int(counts[media_idx].sum())))
        rows = np.repeat(np.arange(n), counts)
        from_media = pa.array(is_media[rows])
        first_out = np.cumsum(counts) - counts
        media_sub = np.arange(len(rows)) - first_out[rows]
        out = batch.take(pa.array(rows))
        self._record(n, len(media_idx), t_call)
        return pa.table(
            {
                "doc_id": out.column("doc_id"),
                "offset": out.column("offset"),
                "sub": pc.if_else(from_media,
                                  pa.array(media_sub, type=pa.int32()),
                                  out.column("sub")),
                "kind": pc.replace_with_mask(
                    out.column("kind"), from_media,
                    pa.array([k for o in outs for k, _ in o],
                             type=pa.string())),
                "text": pc.replace_with_mask(
                    out.column("text"), from_media,
                    pa.array([t for o in outs for _, t in o],
                             type=pa.string())),
                "media_ref": out.column("media_ref"),
                "ocr_ms": pc.if_else(from_media, per_row_ms, 0.0),
            }
        )

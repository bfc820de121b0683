"""Multimodal columns: image/audio/video as opaque ``binary`` payloads
with typed metadata, processed by actor-pool ``map_batches`` stages.

The reference touches media only as whole image files fed to external
engines (cv2/PIL loads at ``/root/reference/ocr_router.py:42,80-82``,
base64 payloads at ``/root/reference/ollama_cloud_ocr.py:165-180``).
At 100 TB the engine instead treats media as columns:

    media(media_ref: string, payload: binary, media_type: string,
          width:int32, height:int32, n_frames:int32, sample_rate:int32)

and every media transform is a stateful stage over Arrow batches.  The
one stage here is ``FeatureExtractor`` (payload → fixed-dim feature
vector); its "model" is a deterministic fake (a seeded projection of
the byte histogram), since this repo ships no image encoder.  The
Ray-side plumbing — schema, batch sizing, actor signature, zero-copy
binary handling, output layout — is real and tested.

Scale notes: binary payloads dominate block size, so the stage runs
with a small ``batch_size`` (payload-count, not row-count, is what must
fit in a worker heap) and drops the payload column (features keep only
the feature vector).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("payload", pa.binary()),
        pa.field("media_type", pa.string()),  # 'image' | 'audio' | 'video'
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("n_frames", pa.int32()),
        pa.field("sample_rate", pa.int32()),
    ]
)

FEATURE_DIM = 32


def synth_media_table(refs: list[str], media_type: str = "image") -> pa.Table:
    """Deterministic synthetic media rows: payload bytes are a pure
    function of media_ref (the corpus-side analog of the pixel content
    being determined by the file, ``ocr_router.py:80-82``)."""
    payloads, widths, heights, frames, rates = [], [], [], [], []
    for ref in refs:
        digest = hashlib.sha256(ref.encode()).digest()
        # pseudo-payload: repeatable bytes, size varies by ref
        size = 256 + digest[0] * 16
        payloads.append((digest * ((size // len(digest)) + 1))[:size])
        widths.append(16 + digest[1] % 64)
        heights.append(16 + digest[2] % 64)
        frames.append(1 if media_type == "image" else 1 + digest[3] % 30)
        rates.append(0 if media_type != "audio" else 8000 + 100 * (digest[4] % 80))
    return pa.table(
        {
            "media_ref": pa.array(refs, type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "media_type": pa.array([media_type] * len(refs)),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "n_frames": pa.array(frames, type=pa.int32()),
            "sample_rate": pa.array(rates, type=pa.int32()),
        }
    )


class FeatureExtractor:
    """Actor-pool stage: payload binary → fixed-dim feature vector
    (list<float>), the embedding step of a multimodal training
    pipeline.  The model load happens once per actor; the fake model
    projects the byte histogram through a seeded random matrix —
    deterministic, shaped exactly like a real encoder output."""

    def __init__(self, dim: int = FEATURE_DIM, seed: int = 7):
        rng = np.random.default_rng(seed)
        self._proj = rng.standard_normal((256, dim)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        payloads = batch.column("payload").to_pylist()
        feats = []
        for p in payloads:
            hist = np.bincount(np.frombuffer(p, dtype=np.uint8),
                               minlength=256).astype(np.float32)
            v = hist @ self._proj
            n = np.linalg.norm(v)
            feats.append((v / n if n else v).astype(np.float32))
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "feature": pa.array(
                    [f.tolist() for f in feats], type=pa.list_(pa.float32())
                ),
            }
        )


def media_feature_pipeline(media_ds, *, batch_size: int = 32,
                           concurrency=(2, 8)):
    """media table Dataset → (media_ref, feature) Dataset.

    Small batch_size: payloads are the block-size driver (see module
    docstring); concurrency × batch_size × payload bytes is the
    per-stage heap bound.
    """
    return media_ds.map_batches(
        FeatureExtractor,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )

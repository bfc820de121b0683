"""Per-actor resource sampling into the lineage manifest.

The reference samples GPU/resource state around every inference call
(``/root/reference/ollama_local_ocr.py:61-138`` nvidia-smi / ollama-ps
probe; ``:205-262`` per-call metrics block).  The distributed analog:
every OCR actor records one sample per batch (RSS, CPU time delta,
wall time, rows/media counts, GPU snapshot when a GPU exists) and
fire-and-forgets it to a job-wide ``MetricsSink`` actor; the runner
drains the sink at partition commit and folds per-actor aggregates
into the partition's manifest record.

Scale design: the sink is ``num_cpus=0`` (never competes with work),
a push is one tiny RPC per BATCH (hundreds of docs), and each sample is
tagged with its batch's partition id, so the partitions that share one
Dataset and one actor pool drain independently.  Sampling itself reads
``/proc/self/statm`` (~µs) — no psutil dependency; the GPU probe is a
subprocess, so it runs at most once per actor per ``GPU_PROBE_TTL_S``
and only when nvidia-smi exists.
"""

from __future__ import annotations

import os
import time

GPU_PROBE_TTL_S = 30.0
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def rss_mb() -> float:
    """Resident set size of this process in MiB via /proc (Linux);
    falls back to ru_maxrss (peak, not current) elsewhere."""
    try:
        with open("/proc/self/statm") as f:
            return float(int(f.read().split()[1]) * _PAGE_MB)
    except (OSError, ValueError, IndexError):
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux but BYTES on macOS
        return rss / (1024.0 * 1024.0) if sys.platform == "darwin" \
            else rss / 1024.0


def gpu_snapshot() -> dict | None:
    """One nvidia-smi sample (util %, memory MiB) or None when no GPU
    tooling exists — the reference's "is the GPU actually active" check
    (``ollama_local_ocr.py:61-91``), subprocess-guarded."""
    import subprocess

    try:
        out = subprocess.run(
            ["nvidia-smi",
             "--query-gpu=utilization.gpu,memory.used",
             "--format=csv,noheader,nounits"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    try:
        util, mem = out.stdout.strip().splitlines()[0].split(",")
        return {"util_pct": float(util), "mem_mb": float(mem)}
    except (ValueError, IndexError):
        return None


class ResourceRecorder:
    """Lives INSIDE each OCR actor (constructed with it): accumulates
    one sample per batch and ships them to the sink without waiting.

    Samples are BUFFERED locally and flushed when the buffer reaches
    ``FLUSH_SAMPLES``, is older than ``FLUSH_AGE_S``, or takes the first
    sample of a tag this actor has not recorded before — per-batch RPCs
    would funnel every batch in the job into one zero-CPU actor, which
    becomes the bottleneck exactly at the scale telemetry matters.  A
    best-effort ``__del__`` flush catches the tail at actor teardown
    (pool teardown precedes the runner's drain); losing a tail sample
    degrades telemetry only, never data.

    ``sink`` is a ``MetricsSink`` actor handle (picklable through
    ``fn_constructor_kwargs``); None disables recording at the cost of
    a single ``if`` per batch.  ``record`` takes each batch's tag."""

    FLUSH_SAMPLES = 8
    FLUSH_AGE_S = 2.0

    def __init__(self, sink=None):
        self.sink = sink
        self.pid = os.getpid()
        self._last_cpu = time.process_time()
        self._gpu = None
        self._gpu_ts = -1e18
        self._buf: list[tuple] = []  # (tag, sample)
        # the FIRST sample of each tag flushes immediately, so every
        # actor is visible in each partition's record even on jobs too
        # short/fast to hit the size threshold (the teardown flush can
        # race the runner's drain); steady state amortizes 8:1 / 2 s
        self._tags: set = set()
        self._last_flush = time.monotonic()

    def _gpu_sample(self):
        now = time.monotonic()
        if now - self._gpu_ts >= GPU_PROBE_TTL_S:
            self._gpu = gpu_snapshot()
            self._gpu_ts = now
        return self._gpu

    def record(self, *, n_rows: int, n_media: int, wall_ms: float,
               tag=None) -> None:
        if self.sink is None:
            return
        cpu = time.process_time()
        sample = {
            "pid": self.pid,
            "rss_mb": rss_mb(),
            "cpu_ms": (cpu - self._last_cpu) * 1e3,
            "wall_ms": wall_ms,
            "n_rows": int(n_rows),
            "n_media": int(n_media),
            "gpu": self._gpu_sample(),
        }
        self._last_cpu = cpu
        self._buf.append((tag, sample))
        now = time.monotonic()
        if (tag not in self._tags or len(self._buf) >= self.FLUSH_SAMPLES
                or now - self._last_flush >= self.FLUSH_AGE_S):
            self._tags.add(tag)
            self.flush()

    def flush(self) -> None:
        if self.sink is None or not self._buf:
            return
        by_tag: dict = {}
        for tag, sample in self._buf:
            by_tag.setdefault(tag, []).append(sample)
        self._buf = []
        self._last_flush = time.monotonic()
        # fire-and-forget: inference never blocks on telemetry
        for tag, samples in by_tag.items():
            self.sink.push.remote(tag, samples)

    def __del__(self):  # best-effort tail flush at actor teardown
        try:
            self.flush()
        except Exception:  # noqa: BLE001 - telemetry only, never raise
            pass


def make_sink():
    """Job-wide zero-CPU sample collector actor."""
    import ray

    @ray.remote(num_cpus=0)
    class MetricsSink:
        def __init__(self):
            self._by_tag: dict = {}
            self._closed: set = set()

        def push(self, tag, samples: list[dict]) -> None:
            # a straggler push landing after the tag's drain is DROPPED
            # (never misattributed, never retained): each partition
            # drains exactly once at commit, so re-accumulating under a
            # closed tag would leak for the rest of a long job
            if tag in self._closed:
                return
            self._by_tag.setdefault(tag, []).extend(samples)

        def drain(self, tag) -> list[dict]:
            self._closed.add(tag)
            return self._by_tag.pop(tag, [])

    return MetricsSink.remote()


def aggregate_samples(samples: list[dict]) -> dict:
    """Per-partition manifest block from raw actor samples."""
    import numpy as np

    if not samples:
        return {"samples": 0}
    rss = np.array([s["rss_mb"] for s in samples])
    gpu = [s["gpu"] for s in samples if s.get("gpu")]
    return {
        "samples": len(samples),
        "actors": len({s["pid"] for s in samples}),
        "rss_mb_max": float(rss.max()),
        "rss_mb_p95": float(np.percentile(rss, 95)),
        "cpu_ms_total": float(sum(s["cpu_ms"] for s in samples)),
        "ocr_wall_ms_total": float(sum(s["wall_ms"] for s in samples)),
        "rows": int(sum(s["n_rows"] for s in samples)),
        "media": int(sum(s["n_media"] for s in samples)),
        "gpu_active": bool(gpu),
        "gpu_util_pct_max": (max(g["util_pct"] for g in gpu)
                             if gpu else None),
    }

"""Per-actor resource metrics (VERDICT r2 #9): OCR actors sample
RSS/CPU per batch into a job-wide sink; the runner folds per-partition
aggregates into the manifest record — the distributed analog of the
reference's per-call GPU/resource probe (ollama_local_ocr.py:205-262)."""

from ollama_ocr_ray import synth
from ollama_ocr_ray.state import metrics
from ollama_ocr_ray.state.manifest import Manifest
from ollama_ocr_ray.state.runner import run_extract


def test_rss_sample_and_gpu_probe():
    assert metrics.rss_mb() > 1.0  # this test process certainly > 1 MiB
    snap = metrics.gpu_snapshot()  # no GPU in sandbox → None; dict shape
    assert snap is None or set(snap) == {"util_pct", "mem_mb"}


def test_aggregate_samples():
    assert metrics.aggregate_samples([]) == {"samples": 0}
    samples = [
        {"pid": 1, "rss_mb": 100.0, "cpu_ms": 5.0, "wall_ms": 7.0,
         "n_rows": 10, "n_media": 3, "gpu": None},
        {"pid": 2, "rss_mb": 200.0, "cpu_ms": 6.0, "wall_ms": 8.0,
         "n_rows": 20, "n_media": 0, "gpu": {"util_pct": 55.0,
                                             "mem_mb": 1024.0}},
    ]
    agg = metrics.aggregate_samples(samples)
    assert agg["samples"] == 2 and agg["actors"] == 2
    assert agg["rss_mb_max"] == 200.0
    assert agg["cpu_ms_total"] == 11.0
    assert agg["rows"] == 30 and agg["media"] == 3
    assert agg["gpu_active"] is True and agg["gpu_util_pct_max"] == 55.0


def test_recorder_pushes_per_batch(ray_session):
    """ResourceRecorder + MetricsSink round-trip: one tagged sample per
    record() call, drain() pops only that tag."""
    import ray

    sink = metrics.make_sink()
    rec = metrics.ResourceRecorder(sink)
    rec.record(n_rows=4, n_media=1, wall_ms=2.5, tag=7)  # first: flushes now
    rec.record(n_rows=6, n_media=0, wall_ms=1.0, tag=7)  # second: buffered
    assert len(rec._buf) == 1
    rec.flush()
    got = ray.get(sink.drain.remote(7))
    assert len(got) == 2
    assert all(s["rss_mb"] > 1.0 and s["cpu_ms"] >= 0.0 for s in got)
    assert ray.get(sink.drain.remote(7)) == []  # popped
    assert ray.get(sink.drain.remote(99)) == []  # unknown tag is empty


def test_manifest_carries_resources(ray_session, tmp_path):
    """run_extract commits a resources block per partition, and the
    numbers are sane."""
    corpus = synth.write_corpus(str(tmp_path / "c"), 120, seed=31)
    out = str(tmp_path / "out")
    s = run_extract(corpus, out, plan="fused", wave=2, ocr_concurrency=1)
    assert s["partitions_run"] > 0
    m = Manifest(out)
    for rec in m.records():
        res = rec["resources"]
        assert res["samples"] > 0
        assert res["actors"] >= 1
        assert res["rss_mb_max"] > 10.0
        assert res["rows"] > 0
        assert res["cpu_ms_total"] >= 0.0
        assert res["gpu_active"] is False  # sandbox has no GPU


def test_dead_sink_degrades_not_fails(ray_session, tmp_path):
    """A dead metrics sink must degrade the manifest record, never fail
    the partition commit (telemetry is best-effort by contract)."""
    import ray

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.pipelines import extract as px
    from ollama_ocr_ray.sources.io import read_documents_files
    from ollama_ocr_ray.state import metrics
    from ollama_ocr_ray.state.runner import _extract_group
    from ollama_ocr_ray.state.manifest import Manifest

    corpus = synth.write_corpus(str(tmp_path / "c"), 40, seed=13)
    import os

    f0 = sorted(
        os.path.join(corpus, f) for f in os.listdir(corpus)
        if f.endswith(".parquet")
    )[0]
    sink = metrics.make_sink()
    ray.kill(sink)
    out = str(tmp_path / "out")
    os.makedirs(out, exist_ok=True)
    _, probe = px.resolve_plan(read_documents_files([f0]), "fused")
    ((pid, source, result),) = _extract_group(
        "fused", {0: probe}, [f0], Manifest(out), ocr_burn=0,
        ocr_latency_ms=0, ocr_concurrency=1, policy="text", metrics_sink=sink,
    )
    rec = result()
    assert (pid, source) == (0, f0)
    assert rec["docs"] > 0
    assert rec["resources"]["samples"] == 0
    assert "sink unavailable" in rec["resources"]["error"]

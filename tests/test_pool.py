"""The extraction actor pool rule (``pipelines.extract.ocr_pool``): one
fixed-size pool per pipeline, sized from the work its input brings, one
batch in flight per actor."""

import os

import pytest

from ollama_ocr_ray.pipelines import extract as px
from ollama_ocr_ray.pipelines.extract import DocProbe, ocr_pool

LATENCY = {"ocr_latency_ms": 10.0}       # latency-bound mock inference
CPU_BOUND = {"ocr_burn": 20_000}         # ~11 ms of hashing per span


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(px, "_cluster_cpus", lambda: n)
    return set_cpus


def _probe(n_docs: int, media: float = 1.0) -> DocProbe:
    return DocProbe(n_docs, n_docs, media)


def _batches(pool, n_docs: int) -> int:
    return -(-n_docs // pool.batch_size)


def test_pool_never_outnumbers_its_batches(cpus):
    cpus(4)
    for n_docs in (0, 1, 5, 16, 63, 65, 100, 256, 1000, 10**5):
        for cost in (LATENCY, CPU_BOUND, {}):
            pool = ocr_pool(_probe(n_docs), **cost)
            assert 1 <= pool.actors <= max(1, _batches(pool, n_docs))


def test_small_input_gets_one_actor(cpus):
    cpus(4)
    for cost in (LATENCY, {}):
        pool = ocr_pool(probe=_probe(16), **cost)
        assert pool.actors == 1 and pool.batch_size == 16


def test_large_or_unknown_input_gets_the_cap(cpus):
    cpus(4)
    assert ocr_pool(probe=_probe(10**5), **LATENCY).actors == 12
    assert ocr_pool(probe=_probe(10**5), cap=8, **LATENCY).actors == 8
    # a sample cut at sample_docs says nothing about the input's size
    inexact = _probe(16)._replace(total=None)
    assert ocr_pool(probe=inexact, **LATENCY).actors == 12
    cpus(32)
    assert ocr_pool(probe=_probe(10**6), **LATENCY).actors == 112
    assert ocr_pool(probe=_probe(10**6), **CPU_BOUND).actors == 31


def test_medium_input_spreads_over_actors(cpus):
    """The benchmark's 256-doc latency-bound partition: four actors,
    one 64-doc batch each."""
    cpus(4)
    pool = ocr_pool(probe=_probe(256, 1.03), **LATENCY)
    assert (pool.actors, pool.num_cpus, pool.batch_size) == (4, 0.25, 64)


def test_group_pool_takes_the_largest_partitions_batch(cpus):
    """Two 256-doc partitions in one Dataset (the benchmark's job): the
    merged work sizes the actors (5), and the batch is each partition's
    own (64), so each fills waves of its own.  One partition gets
    exactly its own pool."""
    cpus(4)
    a, b = _probe(256, 1.03), _probe(256, 1.05)
    merged = px.merge_probes([a, b])
    assert (merged.docs, merged.total) == (512, 512)
    assert ocr_pool(merged, **LATENCY) == px.OcrPool(5, 0.25, 103)
    assert ocr_pool(a, **LATENCY) == px.OcrPool(4, 0.25, 64)
    assert ocr_pool(merged, largest=a, **LATENCY) == px.OcrPool(5, 0.25, 64)
    assert ocr_pool(a, largest=a, **LATENCY) == ocr_pool(a, **LATENCY)


def test_clamp_leaves_one_cpu_free(cpus):
    """Both footprints the rule produces: 0.25 CPU (latency-bound) and
    1 CPU (compute-bound) per actor."""
    for n in (2, 3, 4, 8, 32):
        cpus(n)
        for cost in (LATENCY, CPU_BOUND):
            pool = ocr_pool(probe=_probe(10**6), cap=10**6, **cost)
            assert pool.actors * pool.num_cpus <= n - 1


def test_split_pool_and_fold_fit_the_clamp(cpus):
    """The split plan's span pool plus its fold actor never take more
    than the CPUs but one, whenever one span actor and the fold fit."""
    for n in (2, 3, 4, 8, 32):
        cpus(n)
        for cost in (LATENCY, CPU_BOUND):
            pool = ocr_pool(probe=_probe(10**6), cap=10**6, plan="split",
                            **cost)
            num_cpus = pool.num_cpus
            if num_cpus + px._FOLD_CPUS <= n - 1:
                used = pool.actors * num_cpus + px._FOLD_CPUS
                assert used <= n - 1, (n, num_cpus, pool)
            else:
                assert pool.actors == 1


def test_split_pool_is_sized_from_the_samples_span_work(cpus):
    """The benchmark's skew corpus: a 512-doc sample of a longer input
    (not exact) with one 260-media document at 20 ms.  The pool comes
    from the sample's work, not the cap, the fold is one of its actors,
    and a block holds a quarter of the heavy document's rows."""
    cpus(4)
    probe = DocProbe(512, None, 263 / 512, 260)
    pool = ocr_pool(probe=probe, ocr_latency_ms=20.0, plan="split")
    assert (pool.actors, pool.num_cpus, pool.batch_size) == (4, 0.25, 66)
    # light documents keep the block floor
    light = ocr_pool(probe=probe._replace(media_max=3),
                     ocr_latency_ms=20.0, plan="split")
    assert light.batch_size == px._SPLIT_MIN_ROWS


def test_cpu_bound_input_gets_a_cpu_per_actor(cpus):
    """Zero latency, CPU-bound OCR: one 1-CPU actor per CPU but one,
    never more than the input's batches."""
    cpus(4)
    for n_docs in (16, 40, 100, 256, 4000):
        pool = ocr_pool(probe=_probe(n_docs), **CPU_BOUND)
        assert pool.num_cpus == 1
        assert pool.actors == min(4 - 1, _batches(pool, n_docs))


def test_map_kwargs_fix_the_pool_and_in_flight():
    kw = px.OcrPool(3, 0.25, 64).map_kwargs()
    strategy = kw["compute"]
    assert (strategy.min_size, strategy.max_size) == (3, 3)
    assert strategy.max_tasks_in_flight_per_actor == 1
    assert (kw["num_cpus"], kw["batch_size"]) == (0.25, 64)


def test_run_extract_spreads_one_file_over_actors(ray_session, tmp_path):
    """A 256-doc latency-bound one-file job on the fused plan runs its
    batches on at least two actors (distinct pids in the partition's
    resource samples) and still matches the oracle."""
    import pyarrow.parquet as pq

    from ollama_ocr_ray import oracle, synth
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    table = synth.gen_table(256, seed=5)
    corpus = tmp_path / "c"
    corpus.mkdir()
    pq.write_table(table, str(corpus / "part-00000.parquet"))
    out = str(tmp_path / "out")
    s = run_extract(str(corpus), out, plan="fused", ocr_latency_ms=20.0,
                    wave=1)
    assert s["plan"] == "fused" and s["docs"] == 256
    (rec,) = Manifest(out).records()
    assert rec["resources"]["actors"] >= 2, rec["resources"]
    got = pq.read_table(os.path.join(out, "part-00000")).to_pylist()
    assert {r["doc_id"]: [(x["kind"], x["text"], x["media_ref"], x["order"])
                          for x in r["spans"]] for r in got} \
        == oracle.extract_corpus(table)


def test_every_pool_decision_carries_the_probe(ray_session, tmp_path,
                                               monkeypatch):
    """``auto_pipeline``, on any plan, and ``run_extract`` size every
    pool from the probe; ``run_extract`` sizes ONE pool per plan, in ONE
    call, from its partitions' merged footer-exact counts, with the
    batch of its largest partition's own pool.  Each partition decides
    its plan as ``auto_pipeline`` decides on its file alone, so a JSONL
    partition within the sample is counted exactly, the pool is sized
    from the work, and a lossy plan on it is refused."""
    import json

    import pyarrow.parquet as pq

    from ollama_ocr_ray import synth
    from ollama_ocr_ray.pipelines.extract import auto_pipeline
    from ollama_ocr_ray.sources.io import read_documents, read_documents_files
    from ollama_ocr_ray.state.manifest import Manifest
    from ollama_ocr_ray.state.runner import run_extract

    calls = []
    pool_rule = px.ocr_pool

    def spy(probe, **kw):
        calls.append((probe, kw))
        return pool_rule(probe, **kw)

    monkeypatch.setattr(px, "ocr_pool", spy)
    table = synth.gen_table(16, seed=3)
    src = tmp_path / "in"
    src.mkdir()
    for i in range(2):
        pq.write_table(table.slice(8 * i, 8), str(src / f"part-{i}.parquet"))
    for plan in (None, "fused", "split"):
        auto_pipeline(read_documents(str(src)), plan=plan, ocr_latency_ms=1.0)
    assert len(calls) == 3
    assert all(isinstance(probe, DocProbe) for probe, _ in calls)
    calls.clear()
    s = run_extract(str(src), str(tmp_path / "out"), ocr_latency_ms=1.0,
                    wave=2)
    assert s["docs"] == 16
    ((probe, kw),) = calls
    assert isinstance(probe, DocProbe) and (probe.docs, probe.total) == (16,
                                                                         16)
    assert kw["largest"].total == 8 and "pipelines" not in kw

    def decisions(run) -> list:
        calls.clear()
        run()
        return [(kw["plan"], pool_rule(probe, **kw)) for probe, kw in calls]

    files = sorted(str(f) for f in src.iterdir())
    ((plan, whole),) = decisions(lambda: auto_pipeline(
        read_documents(str(src)), ocr_latency_ms=1.0))
    ((_, one),) = decisions(lambda: auto_pipeline(
        read_documents_files(files[:1]), ocr_latency_ms=1.0))
    assert decisions(lambda: run_extract(
        str(src), str(tmp_path / "wave1"), ocr_latency_ms=1.0, wave=1)) \
        == [(plan, whole._replace(batch_size=one.batch_size))]

    jsonl = tmp_path / "jsonl"
    jsonl.mkdir()
    rows = table.to_pylist()
    for i in range(2):
        with open(jsonl / f"part-{i}.jsonl", "w") as f:
            f.writelines(json.dumps(r) + "\n" for r in rows[8 * i:8 * i + 8])
    calls.clear()
    s = run_extract(str(jsonl), str(tmp_path / "jout"), ocr_latency_ms=1.0,
                    wave=2)
    assert s["docs"] == 16
    ((probe, kw),) = calls
    assert (probe.total, probe.docs, kw["largest"].total) == (16, 16, 8)
    assert pool_rule(probe, **kw).actors \
        < pool_rule(probe._replace(total=None), **kw).actors
    fused, lost = px.PLANS["fused"], rows[0]["doc_id"]
    monkeypatch.setitem(px.PLANS, "fused", lambda ds, pool, **kw: fused(
        ds, pool, **kw).filter(lambda r: r["doc_id"] != lost))
    with pytest.raises(RuntimeError, match="extracted 7 of 8 documents"):
        run_extract(str(jsonl), str(tmp_path / "lossy"), plan="fused",
                    ocr_latency_ms=1.0, wave=2)
    committed = Manifest(str(tmp_path / "lossy")).records()
    assert [r["input_file"] for r in committed] \
        == [str(jsonl / "part-1.jsonl")]

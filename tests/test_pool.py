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
    return DocProbe(n_docs, True, media)


def _batches(pool, n_docs: int) -> int:
    return -(-n_docs // pool.batch_size)


def test_pool_never_outnumbers_its_batches(cpus):
    cpus(4)
    for n_docs in (0, 1, 5, 16, 63, 65, 100, 256, 1000, 10**5):
        for cost in (LATENCY, CPU_BOUND, {}):
            for bs in (None, 7, 512):
                pool = ocr_pool(probe=_probe(n_docs), batch_size=bs, **cost)
                assert 1 <= pool.actors <= max(1, _batches(pool, n_docs))


def test_small_input_gets_one_actor(cpus):
    cpus(4)
    for cost in (LATENCY, {}):
        pool = ocr_pool(probe=_probe(16), **cost)
        assert pool.actors == 1 and pool.batch_size == 16


def test_large_or_unknown_input_gets_the_cap(cpus):
    cpus(4)
    assert ocr_pool(probe=_probe(10**5), **LATENCY).actors == 12
    assert ocr_pool(**LATENCY).actors == 12
    assert ocr_pool(probe=_probe(10**5), cap=8, **LATENCY).actors == 8
    # a sample cut at sample_docs says nothing about the input's size
    inexact = _probe(16)._replace(exact=False)
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


def test_clamp_leaves_one_cpu_free(cpus):
    for n in (2, 3, 4, 8, 32):
        cpus(n)
        for num_cpus in (0.25, 0.5, 1, 2):
            for pipelines in (1, 2, 4):
                pool = ocr_pool(probe=_probe(10**6), cap=10**6,
                                num_cpus=num_cpus, pipelines=pipelines,
                                **LATENCY)
                if num_cpus * pipelines <= n - 1:
                    assert pool.actors * num_cpus * pipelines <= n - 1
                else:
                    assert pool.actors == 1  # the floor: one actor


def test_split_pool_and_fold_fit_the_clamp(cpus):
    """The split plan's span pool plus its fold actor never take more
    than the CPUs but one, for any share of pipelines that can fit one
    span actor and the fold."""
    for n in (2, 3, 4, 8, 32):
        cpus(n)
        for num_cpus in (0.25, 0.5, 1):
            for pipelines in (1, 2, 4):
                pool = ocr_pool(probe=_probe(10**6), cap=10**6,
                                num_cpus=num_cpus, pipelines=pipelines,
                                plan="split", **LATENCY)
                used = pipelines * (pool.actors * num_cpus + px._FOLD_CPUS)
                if pipelines * (num_cpus + px._FOLD_CPUS) <= n - 1:
                    assert used <= n - 1, (n, num_cpus, pipelines, pool)
                else:
                    assert pool.actors == 1


def test_split_pool_is_sized_from_the_samples_span_work(cpus):
    """The benchmark's skew corpus: a 512-doc sample of a longer input
    (not exact) with one 260-media document at 20 ms.  The pool comes
    from the sample's work, not the cap, the fold is one of its actors,
    and a block holds a quarter of the heavy document's rows."""
    cpus(4)
    probe = DocProbe(512, False, 263 / 512, 260)
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

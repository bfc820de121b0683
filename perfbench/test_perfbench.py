"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q -p no:cacheprovider

Most need no Ray session; the two end-to-end tests run ``run.py`` on the
single-process workload for one second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

import corpus  # noqa: E402
import job  # noqa: E402
import layers  # noqa: E402
import refkernel  # noqa: E402


def _fixture(name: str) -> str:
    with open(os.path.join(HERE, "testdata", name)) as f:
        return f.read()


def _by_layer(rows):
    return {r["layer"]: r for r in rows if r["layer"] != "other"}


# --- Dataset.stats() parser and operator -> layer map ---------------------
def test_parse_canonical_plan_stats():
    rows = layers.parse_stats(_fixture("stats_canonical.txt"))
    assert [r["name"] for r in rows][:5] == [
        "ReadParquet->SplitBlocks(4)", "MapBatches(SpanExtractor)",
        "Repartition", "Sort", "MapBatches(fold_block)"]
    by = _by_layer(rows)
    ex = by["extractor"]
    assert (ex["tasks"], ex["blocks"]) == (1, 1)
    assert ex["wall_s"] == pytest.approx(16.41)
    assert ex["remote_wall_s"] == pytest.approx(16.41)
    assert ex["max_task_s"] == pytest.approx(16.41)
    assert ex["rows_out"] == 6934
    # exchange sub-operators fold into their operator's row
    assert by["sort"]["tasks"] == 2
    assert by["sort"]["blocks"] == 16
    assert by["repartition"]["wall_s"] == pytest.approx(23.41)
    m = layers.operator_metrics(rows)
    assert m["op.extractor.parallelism"] == pytest.approx(1.0)
    assert m["op.fold.tasks"] == 16
    assert m["op.fold.wall_s"] == pytest.approx(0.08)
    assert m["op.sort.blocks"] == 16
    assert m["fold.residual_rows"] == 1458 - 480
    assert m["io.read.tasks"] == 2
    assert m["io.write.wall_s"] == 0


def test_parse_fused_plan_stats():
    rows = layers.parse_stats(_fixture("stats_fused.txt"))
    by = _by_layer(rows)
    assert set(by) == {"io.read", "extractor"}
    ex = by["extractor"]
    assert "FusedExtractor" in ex["name"]
    assert (ex["tasks"], ex["rows_out"]) == (8, 3000)
    assert ex["max_task_s"] == pytest.approx(0.42403)
    m = layers.operator_metrics(rows)
    assert m["op.extractor.parallelism"] == pytest.approx(3.14 / 2.03)
    assert m["op.sort.wall_s"] == 0
    assert m["fold.residual_rows"] == 0


def test_parse_fused_write_stats():
    """One partition of the resumable job: read, schema check, fused
    extractor, parquet write."""
    rows = layers.parse_stats(_fixture("stats_fused_write.txt"))
    layer_names = [r["layer"] for r in rows]
    assert layer_names == ["io.read", "io.read", "extractor", "io.write"]
    m = layers.operator_metrics(rows)
    assert m["io.write.wall_s"] > 0
    assert m["op.extractor.tasks"] >= 1
    assert m["io.read.tasks"] == sum(r["tasks"] for r in rows[:2])


@pytest.mark.parametrize("name, layer", [
    ("ReadParquet->SplitBlocks(8)", "io.read"),
    ("MapBatches(_check)", "io.read"),
    ("Write", "io.write"),
    ("MapBatches(SpanExtractor)", "extractor"),
    ("MapBatches(FusedExtractor)", "extractor"),
    ("Repartition", "repartition"),
    ("Sort", "sort"),
    ("MapBatches(fold_block)", "fold"),
    ("MapBatches(keep_out)", "fold.closed"),
    ("UnionOperator(MapBatches(keep_out), Input)", "other"),
    ("Project", "other"),
])
def test_operator_layer_map(name, layer):
    assert layers.layer_of(name) == layer


def test_parser_ignores_sections_after_operators():
    text = _fixture("stats_fused.txt") + (
        "\nDataset iterator time breakdown:\n"
        "* Remote wall time: 1s min, 9s max, 2s mean, 99s total\n")
    assert layers.parse_stats(text) == layers.parse_stats(
        _fixture("stats_fused.txt"))


# --- catalog ----------------------------------------------------------------
def test_metric_names_and_units():
    names = [n for n, *_ in layers.END_TO_END + layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *rest in layers.END_TO_END + layers.PER_LAYER:
        assert layers.NAME_RE.match(name), name
        assert layers.UNIT_RE.match(unit), (name, unit)
        assert better in ("higher", "lower")
    for name, unit, better, bound in layers.END_TO_END:
        assert 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") == layers.END_TO_END[4][:3]
    assert max(b for *_, b in layers.END_TO_END) == dict(
        (n, b) for n, *_, b in layers.END_TO_END)["setup_s"]
    for name, unit, better, layer, (moves, workloads) in layers.PER_LAYER:
        assert moves in {n for n, *_ in layers.END_TO_END} | {"none"}
        assert set(workloads.split(", ")) <= set(layers.WORKLOADS) | {"all"}
    assert set(layers.SELF_TIME.values()) <= {n for n, *_ in layers.PER_LAYER}


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(layers.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == layers.WORKLOADS[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    cat = layers.catalog()
    assert bench["end_to_end"] == cat["end_to_end"]
    assert bench["per_layer"] == cat["per_layer"]


# --- reference normalization --------------------------------------------
class _Host:
    """A fake host whose speed drifts: work of ``w`` units takes
    ``w * slowdown(t)`` seconds of its clock."""

    def __init__(self, slowdown):
        self.t = 0.0
        self.slowdown = slowdown

    def clock(self) -> float:
        return self.t

    def work(self, units: float) -> None:
        self.t += units * self.slowdown(self.t)


def _normalized(slowdown) -> tuple[float, float]:
    host = _Host(slowdown)

    def reference():
        t0 = host.t
        host.work(2.0)
        return host.t - t0

    il = refkernel.Interleaver(reference=reference, clock=host.clock)
    for _ in range(50):
        il.measure("k", lambda: host.work(3.0))
    return il.ref_seconds("k"), il.raw_ref_spread()


def test_uniform_slowdown_leaves_normalized_time_unchanged():
    steady, steady_spread = _normalized(lambda t: 1.0)
    slower, _ = _normalized(lambda t: 2.5)
    # speed drifting by 3x within the run, slowly against one call
    drifting, drift_spread = _normalized(lambda t: 1.0 + 2.0 * t / 400)
    expected = 50 * 1.5 * refkernel.REF_NOMINAL_S
    assert steady == pytest.approx(expected)
    assert slower == pytest.approx(expected)
    assert drifting == pytest.approx(expected, rel=0.01)
    assert steady_spread == 0
    assert drift_spread > 0.3  # the raw reference speed visibly drifts


def test_docs_per_ref_s_unchanged_by_uniform_slowdown():
    """``pass_rates`` on a fake host: the same docs per reference second
    at any host speed."""

    class Part:
        num_rows = 100

    parts = [Part()] * 4

    def rates(factor):
        host = _Host(lambda t: factor)

        def reference():
            t0 = host.t
            host.work(1.0)
            return host.t - t0

        il = refkernel.Interleaver(reference=reference, clock=host.clock)
        job.kernel_pass(il, [("fused", lambda p: host.work(p.num_rows / 50))],
                        parts)
        return job.pass_rates(il, "fused", parts)

    assert rates(1.0) == pytest.approx(rates(3.0))
    assert rates(1.0) == pytest.approx([50 / refkernel.REF_NOMINAL_S])


def test_reference_kernel_is_stdlib_only():
    import ast

    with open(os.path.join(HERE, "refkernel.py")) as f:
        tree = ast.parse(f.read())
    mods = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
            for a in n.names}
    mods |= {n.module for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom)}
    assert {m.split(".")[0] for m in mods} <= set(sys.stdlib_module_names)
    assert refkernel.Reference()() > 0


# --- spans, correctness helpers, corpus ---------------------------------
def test_span_self_times():
    s = job.Spans("r", enabled=True)
    root = s.add("runner.run_extract", 0.0, 10.0)
    s.add("io.write", 1.0, 4.0, root)
    s.add("plan.choose", 4.0, 5.0, root)
    s.add("kernel.fused", 20.0, 22.0)
    assert s.self_times() == pytest.approx(
        {"runner": 6.0, "io": 3.0, "plan": 1.0, "kernel": 2.0})
    assert all(r["run"] == "r" for r in s.records)


def test_failed_docs_counts_missing_duplicated_and_wrong():
    expected = {"a": b"1", "b": b"2", "c": b"3", "d": b"4"}
    got = {"a": [b"1"], "b": [b"2", b"2"], "c": [b"x"], "e": [b"5"]}
    assert job.failed_docs(got, expected) == 4  # b dup, c wrong, d, e
    assert job.failed_docs({k: [v] for k, v in expected.items()},
                           expected) == 0


def test_corpus_is_seeded_and_cost_fixed():
    from ollama_ocr_ray.schema import DOCUMENTS_SCHEMA

    a = corpus.make_table("canonical_ocr_skew", 1)
    assert a.schema.equals(DOCUMENTS_SCHEMA)
    assert a.equals(corpus.make_table("canonical_ocr_skew", 1))
    b = corpus.make_table("canonical_ocr_skew", 2)
    assert not a.equals(b)
    kinds = [[s["kind"] for s in r] for r in a.column("spans").to_pylist()]
    assert kinds == [[s["kind"] for s in r]
                     for r in b.column("spans").to_pylist()]
    d = corpus.describe("canonical_ocr_skew")
    assert d["heavy_docs"] == 1 and d["max_media_per_doc"] >= 200
    heavy = [i for i, k in enumerate(kinds) if k.count("media") >= 200]
    assert heavy and heavy[0] < 512  # inside the plan probe's sample
    assert corpus.describe("extract_1core")["heavy_docs"] == 0


def test_skew_corpus_makes_the_probe_pick_canonical():
    """choose_plan's worst case for the heavy document, as it computes
    it, exceeds its default 5 s threshold."""
    worst = corpus.HEAVY_MEDIA * job.OCR_LATENCY_MS["canonical_ocr_skew"]
    assert worst / 1e3 > 5.0
    uniform = corpus.describe("fused_job_write")["max_media_per_doc"]
    assert uniform * job.OCR_LATENCY_MS["fused_job_write"] / 1e3 < 5.0


def test_kernels_match_the_oracle():
    table = corpus.make_table("extract_1core", 3).slice(0, 200)
    expected = job.expected_digests(table)
    for name, fn in job.plan_kernels():
        outs = [fn(p) for p in job.slices(table)]
        assert job.failed_docs(job.output_digests(outs), expected) == 0, name


# --- the entry point ------------------------------------------------------
def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_catalog(trace, tmp_path):
    env = {"PATH": os.environ["PATH"], "HOME": str(tmp_path)}
    p = _run(["--workload", "extract_1core", "--seed", "5", "--seconds",
              "1", "--trace", str(trace)], cwd=tmp_path, env=env)
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    cat = layers.catalog()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in cat}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "raw reference pass" in p.stderr and "spread" in p.stderr
    assert not os.path.exists(os.path.join(ROOT, ".pbr"))
    assert os.listdir(tmp_path) == []


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_1core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert p.returncode not in (0, None)
    assert p.stdout == ""

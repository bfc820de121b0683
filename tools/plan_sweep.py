#!/usr/bin/env python
"""Sweep the heaviest document's media spans over both extraction plans.

The corpus is the benchmark's ``canonical_ocr_skew`` shape
(``perfbench/corpus.py``: 1024 documents in one file, one media-heavy
document; ``--docs`` keeps only the first ones) with the heavy document
holding M media spans.  For
each M and plan the script runs the job the benchmark runs (read, probe,
the plan's pipeline sized from the probe as ``auto_pipeline`` does,
drain block by block), checks
every document against ``oracle.py`` and prints one JSON line: wall
time, docs/s and time to the first output block.  Each configuration
runs one unreported job first, so no timed job follows another plan's
pool.

    python tools/plan_sweep.py --media 1 64 128 256 512 --reps 2
    python tools/plan_sweep.py --media 260 --plans split --actors 3 4 \\
        --rows 32 64

``--actors``/``--rows`` pin the split plan's pool size and span rows
per block (default: ``ocr_pool``'s rule).  It owns its Ray session
(CPUs from the affinity mask, or ``--cpus``).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "perfbench"))


def heavy_corpus(media: int, seed: int, docs: int):
    """The first ``docs`` documents of ``canonical_ocr_skew`` (the heavy
    one is among the first 512) with the heavy document holding
    ``media`` media spans: its first ones, or more refs of the same form
    past its own (other spans kept, offsets renumbered)."""
    import corpus
    import pyarrow as pa

    table = corpus.make_table("canonical_ocr_skew", seed).slice(0, docs)
    rows = table.to_pylist()
    heavy = max(range(len(rows)), key=lambda i: sum(
        s["kind"] == "media" for s in rows[i]["spans"]))
    doc = rows[heavy]
    media_spans = [s for s in doc["spans"] if s["kind"] == "media"]
    media_spans += [{"kind": "media", "text": "", "offset": 0,
                     "media_ref": f"media://{doc['doc_id']}/extra-{i}"}
                    for i in range(media - len(media_spans))]
    spans = [s for s in doc["spans"] if s["kind"] != "media"]
    spans += media_spans[:media]
    doc["spans"] = [dict(s, offset=i) for i, s in enumerate(spans)]
    return pa.Table.from_pylist(rows, schema=table.schema)


def run_job(path: str, plan: str, latency_ms: float, actors, rows) -> tuple:
    """What ``auto_pipeline`` does once the probe has picked ``plan``."""
    from ollama_ocr_ray.pipelines import extract as px
    from ollama_ocr_ray.sources.io import read_documents

    t0 = time.perf_counter()
    ds = read_documents(path)
    _, probe = px.choose_plan(ds, ocr_latency_ms=latency_ms, with_probe=True)
    out = px.PLANS[plan](ds, ocr_latency_ms=latency_ms, probe=probe,
                         concurrency=actors, batch_size=rows)
    first, tables = None, []
    for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
        first = first or time.perf_counter() - t0
        tables.append(b)
    return time.perf_counter() - t0, first, tables


def spans_of(tables) -> dict:
    return {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["order"])
                          for s in r["spans"]]
            for t in tables for r in t.select(["doc_id", "spans"]).to_pylist()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--media", type=int, nargs="+", required=True)
    ap.add_argument("--plans", nargs="+", default=["fused", "split"])
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--latency-ms", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--docs", type=int, default=1024,
                    help="512 or fewer: the probe's sample is the whole "
                         "input, and the fused pool is sized from it")
    ap.add_argument("--actors", type=int, nargs="+", default=[None])
    ap.add_argument("--rows", type=int, nargs="+", default=[None])
    ap.add_argument("--cpus", type=int,
                    default=len(os.sched_getaffinity(0)))
    args = ap.parse_args()

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from ollama_ocr_ray import oracle
    from ollama_ocr_ray.pipelines import auto_pipeline
    from ollama_ocr_ray.sources.io import read_documents

    work = tempfile.mkdtemp(prefix="plan-sweep-")
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    rd.DataContext.get_current().enable_progress_bars = False
    try:
        for media in args.media:
            table = heavy_corpus(media, args.seed, args.docs)
            path = os.path.join(work, f"m{media}")
            os.makedirs(path)
            pq.write_table(table, os.path.join(path, "part-00000.parquet"))
            expected = oracle.extract_corpus(table)
            warm = os.path.join(path, "warm")
            os.makedirs(warm)
            pq.write_table(table.slice(0, 16),
                           os.path.join(warm, "part-00000.parquet"))
            for _ in auto_pipeline(read_documents(warm))[1].iter_batches(
                    batch_size=None):
                pass
            configs = [("fused", None, None)] if "fused" in args.plans else []
            if "split" in args.plans:
                configs += [("split", a, k) for a, k in itertools.product(
                    args.actors, args.rows)]
            for (plan, actors, rows), rep in itertools.product(
                    configs, range(-1, args.reps)):
                # rep -1 is not reported: a job right after another
                # plan's pool waits for that pool's release
                gc.collect()
                wall, first, tables = run_job(
                    path, plan, args.latency_ms, actors, rows)
                if rep >= 0:
                    got = spans_of(tables)
                    bad = sum(got.get(d) != v for d, v in expected.items())
                    print(json.dumps({
                        "media": media, "plan": plan, "actors": actors,
                        "rows": rows, "rep": rep, "wall_s": round(wall, 3),
                        "docs_per_s": round(table.num_rows / wall, 1),
                        "first_output_s": round(first or wall, 3),
                        "bad_docs": bad + len(set(got) - set(expected)),
                    }), flush=True)
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())

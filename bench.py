#!/usr/bin/env python
"""Benchmark harness for the ollama_ocr_ray engine.

Default mode: run every registered query over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default: the CPUs this process may run on)
and print ONE JSON line::

    {"metric": "total_query_seconds", "value": N, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "host": {...}}

``--scaling``: run the headline extraction pipeline twice in FRESH
processes (num_cpus=1 then num_cpus=4 by default) over the same
materialized corpus, report docs/sec at both plus efficiency =
tput(4N)/(4*tput(N)).  This is the sandbox surrogate for the north
rule's N vs 4N cluster-size criterion (BASELINE.md).

Every record carries ``host``: CPUs, RAM and the Ray version, so a
number is never read against a baseline from other hardware.

bench.py OWNS its Ray sessions (unlike __ray_entry__.py, which must not).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                          str(len(os.sched_getaffinity(0)))))
SCALE_DOCS = int(os.environ.get("GRAFT_SCALE_DOCS", "240000"))
SCALE_DOCS_PER_BLOCK = 200  # ~1.6s of OCR latency per task: balanced pool
# Mock inference cost: latency-bound by default (real OCR is GPU/remote
# inference latency — ollama_local_ocr.py:202's 30-60s/image is service
# time, not local CPU); a small CPU burn keeps actors honest.  The
# burn-heavy variant (GRAFT_SCALE_BURN=4000 GRAFT_SCALE_LATENCY_MS=0) is
# hardware-frequency-limited on this host — see BASELINE.md.
SCALE_BURN = int(os.environ.get("GRAFT_SCALE_BURN", "200"))
SCALE_LATENCY_MS = float(os.environ.get("GRAFT_SCALE_LATENCY_MS", "8.0"))
SCALE_CORPUS_DIR = "/tmp/ollama_ocr_ray_bench"


def _consume(res) -> int:
    """Execute a query result fully; return row count."""
    import ray.data

    if isinstance(res, ray.data.Dataset):
        n = 0
        for b in res.iter_batches(batch_size=4096, batch_format="pyarrow"):
            n += b.num_rows
        return n
    return len(res)


def host_fingerprint() -> dict:
    """CPUs this process may use, total RAM and the Ray version."""
    import ray

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpus": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram / 2**30, 1), "ray": ray.__version__}


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )


def run_queries(sf_dir: str, num_cpus: int) -> None:
    _init_ray(num_cpus)
    import ray.data as rd

    # warm the executor AND all worker processes once (2 blocks/CPU):
    # rd.range(100).count() spawned only ~1 worker, so the first heavy
    # query paid ~1.7 s of worker spawn that looked like a regression
    # (measured, BASELINE.md r3)
    rd.range(320_000, override_num_blocks=2 * num_cpus).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    from ollama_ocr_ray.queries import queries

    timings: dict[str, float] = {}
    for name, fn in queries().items():
        t0 = time.perf_counter()
        _consume(fn(sf_dir))
        timings[name] = round(time.perf_counter() - t0, 3)
    total = round(sum(timings.values()), 3)
    print(
        json.dumps(
            {
                "metric": "total_query_seconds",
                "value": total,
                "unit": "sec",
                "queries": timings,
                "sf": sf_dir,
                "num_cpus": num_cpus,
                "host": host_fingerprint(),
            }
        )
    )
    import ray

    ray.shutdown()


# --- scaling mode -----------------------------------------------------------


def _corpus_path(n_docs: int) -> str:
    return os.path.join(SCALE_CORPUS_DIR, f"docs_n{n_docs}_s42")


def materialize_scaling_corpus(n_docs: int) -> str:
    """Generate the scaling corpus once (parallel, cached by _SUCCESS)."""
    path = _corpus_path(n_docs)
    done = os.path.join(path, "_SUCCESS")
    if os.path.exists(done):
        return path
    _init_ray(CPUS)
    from ollama_ocr_ray.synth import synthesize_dataset

    os.makedirs(path, exist_ok=True)
    synthesize_dataset(n_docs).write_parquet(path)
    with open(done, "w") as f:
        f.write("ok")
    import ray

    ray.shutdown()
    return path


def scaling_child(num_cpus: int, corpus: str, burn: int,
                  latency_ms: float) -> None:
    """One fresh-process run of the headline extraction at num_cpus."""
    _init_ray(num_cpus)
    import ray.data as rd

    # Warm the worker pool: a real 100TB job amortizes process spawn over
    # hours; a 30s bench run does not, so force workers up before timing.
    rd.range(100_000, override_num_blocks=4 * num_cpus).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    from ollama_ocr_ray.pipelines.extract import auto_pipeline
    from ollama_ocr_ray.sources.io import read_documents

    import pyarrow.parquet as pq

    from ollama_ocr_ray.sources.io import list_input_files

    n_docs = sum(pq.read_metadata(f).num_rows for f in list_input_files(corpus))
    onb = max(4 * num_cpus, n_docs // SCALE_DOCS_PER_BLOCK)

    t0 = time.perf_counter()
    docs = read_documents(corpus, validate=False, override_num_blocks=onb)
    plan_used, out = auto_pipeline(
        docs,
        ocr_burn=burn,
        ocr_latency_ms=latency_ms,
    )
    n = 0
    n_first = 0
    t_first = None
    for b in out.iter_batches(batch_size=4096, batch_format="pyarrow"):
        if t_first is None:
            t_first = time.perf_counter() - t0
            n_first = b.num_rows
        n += b.num_rows
    elapsed = time.perf_counter() - t0
    # steady-state throughput excludes the fixed pool spin-up (which a
    # long production job amortizes) AND the rows delivered with the
    # first batch, so the numerator matches the measured interval.
    if t_first is not None and elapsed > t_first and n > n_first:
        steady = (n - n_first) / (elapsed - t_first)
    else:
        steady = n / elapsed if elapsed > 0 else 0.0
    if t_first is None:
        t_first = elapsed
    print(
        json.dumps(
            {
                "num_cpus": num_cpus,
                "plan": plan_used,
                "docs": n,
                "sec": round(elapsed, 3),
                "first_output_sec": round(t_first, 3),
                "docs_per_sec": round(n / elapsed, 2),
                "steady_docs_per_sec": round(steady, 2),
            }
        )
    )
    import ray

    ray.shutdown()


def run_scaling(legs: tuple = (1, 4)) -> None:
    """Two fresh-process runs at ``legs`` CPUs (must be N and 4N).
    Default 1/4; on a larger host pick a pair that leaves headroom for
    other tenants (e.g. ``--scaling-cpus 4 16`` on 32 cores), so the
    ratio measures the CODE's scaling."""
    n, n4 = legs
    if n4 != 4 * n:
        raise SystemExit(f"--scaling-cpus must be N and 4N, got {legs}")
    corpus = materialize_scaling_corpus(SCALE_DOCS)
    results = {}
    child_env = dict(os.environ)
    # prestart the worker pool at init (cuts actor-fleet spin-up)
    child_env["RAY_enable_worker_prestart"] = "1"
    for cpus in (n, n4):
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--scaling-child",
                "--cpus",
                str(cpus),
                "--corpus",
                corpus,
                "--burn",
                str(SCALE_BURN),
                "--latency-ms",
                str(SCALE_LATENCY_MS),
            ],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            env=child_env,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"scaling child (cpus={cpus}) failed")
        line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
        results[cpus] = json.loads(line)
    t_n = results[n]["docs_per_sec"]
    t_4n = results[n4]["docs_per_sec"]
    eff = round(t_4n / (4.0 * t_n), 3)
    s_n = results[n]["steady_docs_per_sec"]
    s_4n = results[n4]["steady_docs_per_sec"]
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "value": eff,
                "unit": "ratio",
                "steady_state_efficiency": round(s_4n / (4.0 * s_n), 3),
                "docs": SCALE_DOCS,
                "plan": results[n4]["plan"],
                "ocr_burn": SCALE_BURN,
                "ocr_latency_ms": SCALE_LATENCY_MS,
                f"docs_per_sec_{n}cpu": t_n,
                f"docs_per_sec_{n4}cpu": t_4n,
                f"steady_docs_per_sec_{n}cpu": s_n,
                f"steady_docs_per_sec_{n4}cpu": s_4n,
                f"sec_{n}cpu": results[n]["sec"],
                f"sec_{n4}cpu": results[n4]["sec"],
                "host": host_fingerprint(),
            }
        )
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-child", action="store_true")
    ap.add_argument("--cpus", type=int, default=CPUS)
    ap.add_argument("--corpus", default=None)
    ap.add_argument("--burn", type=int, default=SCALE_BURN)
    ap.add_argument("--latency-ms", type=float, default=SCALE_LATENCY_MS)
    ap.add_argument("--sf-dir", default=SF_DIR)
    ap.add_argument("--scaling-cpus", type=int, nargs=2,
                    default=[1, 4], metavar=("N", "4N"))
    args = ap.parse_args()

    if args.scaling_child:
        scaling_child(args.cpus, args.corpus, args.burn, args.latency_ms)
    elif args.scaling:
        run_scaling(tuple(args.scaling_cpus))
    else:
        run_queries(args.sf_dir, args.cpus)


if __name__ == "__main__":
    main()

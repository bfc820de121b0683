"""One benchmark run, in a process of its own.

``run.py`` starts this script in a new process group with a hard
timeout, a fixed environment and a private run directory, and reads the
JSON result it writes there.  Run it through ``run.py``.

extract_1core: set up (corpus + kernel construction) SETUP_REPS times,
then pass over the corpus in SLICE_DOCS-doc slices until ``--seconds``
are up.  Each slice goes through the fused kernel and through the
canonical kernel chain, each call between two reference passes.

canonical_ocr_skew / fused_job_write: write the corpus SETUP_REPS times,
time the kernels on it in KERNEL_PASSES passes as on extract_1core,
start one Ray session, warm it up WARM_REPS times, then run closed-loop
jobs (one job runs to completion, then the next) until ``--seconds``
are up, at least MIN_JOBS of them.

Every output is checked against ``oracle.extract_corpus`` after the
timed part.  ``--trace 1`` adds one traced job (or pass) with spans,
``Dataset.stats()`` operator rows and per-kernel timings.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import corpus  # noqa: E402
import layers  # noqa: E402
import refkernel  # noqa: E402

# modeled OCR latency per media span.  canonical_ocr_skew: 260 spans x
# 20 ms = 5.2 s for the heavy document, above the probe's 5 s threshold.
OCR_LATENCY_MS = {"canonical_ocr_skew": 20.0, "fused_job_write": 10.0}
SLICE_DOCS = 150
SETUP_REPS = 3
WARM_REPS = 2
WARM_DOCS = 16
MIN_JOBS = 2
MIN_PASSES = 3
# kernel passes over a Ray workload's corpus; the median of three leaves
# out the first, slower pass
KERNEL_PASSES = 3
# a run still going after this long has stalled (say, an actor pool
# crash-looping on an import error): every thread's traceback is printed
# and the process exits non-zero, before run.py's hard timeout
DEADLINE_S = 145.0
OBJECT_STORE_BYTES = 512 << 20


class Spans:
    """In-memory spans: name, start, end, parent, run id."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        self.records.append({"id": len(self.records), "name": name,
                             "run": self.run_id, "parent": parent,
                             "start": start, "end": end})
        return len(self.records) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        i = self.add(name, time.perf_counter(), None, parent)
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[i]["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (span name up to the first dot): each span's
        duration minus the time its children cover."""
        child = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = {}
        for r, c in zip(self.records, child):
            layer = r["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + max(
                0.0, r["end"] - r["start"] - c)
        return out


def host_fingerprint() -> dict:
    import pyarrow
    import ray

    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # a checkout without git history
    src = hashlib.sha256()
    for p in sorted(glob.glob(os.path.join(ROOT, "ollama_ocr_ray", "**",
                                           "*.py"), recursive=True)):
        with open(p, "rb") as f:
            src.update(os.path.relpath(p, ROOT).encode() + b"\0" + f.read())
    return {"cpus": len(os.sched_getaffinity(0)),
            "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                            * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": platform.python_version(), "git_commit": commit,
            "source_sha256": src.hexdigest()[:16]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- correctness --------------------------------------------------------
def _digest(spans) -> bytes:
    """(kind, text, media_ref, order) sequence -> digest; equal iff equal."""
    return hashlib.blake2b(repr(list(spans)).encode(),
                           digest_size=16).digest()


def expected_digests(table) -> dict[str, bytes]:
    from ollama_ocr_ray import oracle

    return {d: _digest(s) for d, s in oracle.extract_corpus(table).items()}


def output_digests(tables) -> dict[str, list[bytes]]:
    """Extracted tables (doc_id, spans, ...) -> digests per doc_id."""
    got: dict[str, list[bytes]] = {}
    for t in tables:
        for r in t.select(["doc_id", "spans"]).to_pylist():
            got.setdefault(r["doc_id"], []).append(_digest(
                (s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]))
    return got


def failed_docs(got: dict[str, list[bytes]], expected: dict) -> int:
    """Documents missing, duplicated, unexpected or different."""
    bad = {d for d, v in got.items()
           if len(v) != 1 or expected.get(d) != v[0]}
    return len(bad | (expected.keys() - got.keys()))


# --- kernels --------------------------------------------------------------
def plan_kernels():
    """(name, batch -> extracted table) for both plans' kernels."""
    from ollama_ocr_ray.pipelines.extract import FusedExtractor, SpanExtractor
    from ollama_ocr_ray.stages.reassemble import reassemble_sorted_block

    fused, span_rows = FusedExtractor(), SpanExtractor()

    def canonical(batch):
        return reassemble_sorted_block(span_rows(batch).sort_by("doc_id"))

    return [("fused", fused), ("canonical", canonical)]


def slices(table):
    return [table.slice(j, SLICE_DOCS)
            for j in range(0, table.num_rows, SLICE_DOCS)]


def kernel_pass(il, kernels, parts, outputs=None) -> None:
    """One pass over the corpus slices; each kernel call is interleaved
    with reference passes.  ``outputs`` collects each kernel's tables."""
    for part in parts:
        for name, fn in kernels:
            out = il.measure(name, lambda: fn(part))
            if outputs is not None:
                outputs.setdefault(name, []).append(out)


def pass_rates(il, name: str, parts) -> list[float]:
    """Docs per nominal reference second of each whole pass."""
    k = len(parts)
    docs = sum(p.num_rows for p in parts)
    calls = len(il.pairs[name])
    return [docs / il.ref_seconds(name, i, i + k)
            for i in range(0, calls - k + 1, k)]


def stage_kernels(table):
    """(name, fn) for every public stage kernel, in chain order: each of
    explode, extract, ocr and sort takes the previous one's output."""
    import pyarrow.compute as pc

    from ollama_ocr_ray.pipelines.extract import FusedExtractor
    from ollama_ocr_ray.stages.explode import explode_batch
    from ollama_ocr_ray.stages.extract import extract_batch
    from ollama_ocr_ray.stages.html_extract import extract_html_stage
    from ollama_ocr_ray.stages.ocr import OcrModel
    from ollama_ocr_ray.stages.pdf_parse import parse_pdf_stage
    from ollama_ocr_ray.stages.reassemble import reassemble_sorted_block

    flat = pc.list_flatten(table.column("spans"))
    kinds = pc.struct_field(flat, "kind")
    texts = pc.struct_field(flat, "text")
    html = pc.filter(texts, pc.equal(kinds, "html")).to_pylist()
    pdf = pc.filter(texts, pc.equal(kinds, "pdf")).to_pylist()
    ocr, fused = OcrModel(), FusedExtractor()
    return [
        ("explode", explode_batch),
        ("extract", extract_batch),
        ("ocr", ocr),
        ("sort", lambda rows: rows.sort_by("doc_id")),
        ("reassemble", reassemble_sorted_block),
        ("html", lambda _: [extract_html_stage(t) for t in html]),
        ("pdf", lambda _: [parse_pdf_stage(t) for t in pdf]),
        ("fused", lambda _: fused(table)),
    ]


def kernel_layer_metrics(table, spans) -> dict:
    """``kernel.*`` metrics: every stage kernel once over the whole corpus,
    interleaved with the reference."""
    il = refkernel.Interleaver()
    value = table
    for name, fn in stage_kernels(table):
        with spans.span(f"kernel.{name}"):
            out = il.measure(name, lambda: fn(value))
        if name in ("explode", "extract", "ocr", "sort"):
            value = out
    return {f"kernel.{n}.ref_ms_per_kdoc":
            il.ref_seconds(n) / table.num_rows * 1e6 for n in il.pairs}


# --- extract_1core --------------------------------------------------------
def run_1core(args, rundir: str, spans: Spans) -> dict:
    import pyarrow.parquet as pq

    il = refkernel.Interleaver()
    state = {}

    def set_up():
        table = corpus.make_table(args.workload, args.seed)
        state["n"] = state.get("n", 0) + 1
        paths = corpus.write(table, args.workload,
                             os.path.join(rundir, f"corpus-{state['n']}"))
        state["table"] = pq.read_table(paths)
        state["kernels"] = plan_kernels()

    for _ in range(SETUP_REPS):
        with spans.span("setup.corpus"):
            il.measure("setup", set_up)
    setups = [il.ref_seconds("setup", i, i + 1) for i in range(SETUP_REPS)]
    table, kernels = state["table"], state["kernels"]
    parts = slices(table)

    outputs: dict[str, list] = {}
    t0 = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        kernel_pass(il, kernels, parts, outputs if passes == 0 else None)
        passes += 1
    rss = peak_rss_mb()
    rates = {name: statistics.median(pass_rates(il, name, parts))
             for name, _ in kernels}
    k = len(parts)
    # a single-process job has its first output after one slice: the
    # mean nominal time of a fused slice (all slices are alike)
    first = il.ref_seconds("fused", 0, passes * k) / (passes * k)
    print(f"perfbench: {passes} passes; raw reference pass "
          f"{statistics.median(il.ref_times) * 1e3:.1f} ms median, spread "
          f"{il.raw_ref_spread():.3f} (IQR/median), range "
          f"{min(il.ref_times) * 1e3:.1f}-{max(il.ref_times) * 1e3:.1f} ms",
          file=sys.stderr)

    expected = expected_digests(table)
    checks = [failed_docs(output_digests(outputs[name]), expected)
              for name, _ in kernels]
    metrics = {
        "docs_per_s": rates["fused"],
        "first_output_s": first,
        "fused_docs_per_ref_s": rates["fused"],
        "canonical_docs_per_ref_s": rates["canonical"],
        "setup_s": statistics.median(setups),
        "driver_peak_rss_mb": rss,
    }
    trace = {}
    if args.trace:
        # one more pass with every kernel call in a span
        kernel_pass(_TracedInterleaver(il, spans), kernels, parts)
        plain = il.ref_seconds("fused", 0, passes * k) / passes
        overhead = il.ref_seconds("fused", passes * k, None) / plain - 1
        trace = {**kernel_layer_metrics(table, spans),
                 "setup.corpus_s": metrics["setup_s"],
                 "host.ref_speed_spread": il.raw_ref_spread(),
                 "trace.overhead_frac": overhead}
    return {"attempted": len(checks) * table.num_rows,
            "failed": sum(checks), "metrics": metrics, "trace": trace,
            "details": {"passes": passes, "setups_ref_s": setups,
                        "ref_spread": il.raw_ref_spread(),
                        "rates": rates}}


class _TracedInterleaver:
    """An Interleaver whose measured calls each sit in a span."""

    def __init__(self, il, spans: Spans):
        self.il, self.spans = il, spans

    def measure(self, name, fn):
        with self.spans.span(f"kernel.{name}"):
            return self.il.measure(name, fn)


# --- Ray workloads --------------------------------------------------------
def ray_session(ray_tmp: str, spans: Spans) -> float:
    import ray
    import ray.data as rd

    t0 = time.perf_counter()
    with spans.span("setup.ray_init"):
        # a single-node session on the loopback address: no host-name
        # lookup is needed to find the node
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=ray_tmp, _node_ip_address="127.0.0.1")
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return time.perf_counter() - t0


def warm_up(job, table, rundir: str, spans: Spans) -> float:
    """The workload's own job on its first WARM_DOCS documents: starts
    Ray Data's executor and worker processes that import the package,
    and pays the Ray driver's first-call costs."""
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    with spans.span("setup.warm"):
        warm_dir = tempfile.mkdtemp(prefix="warm-", dir=rundir)
        pq.write_table(table.slice(0, WARM_DOCS),
                       os.path.join(warm_dir, "part-00000.parquet"))
        job.warm(warm_dir)
    return time.perf_counter() - t0


class SkewJob:
    """``auto_pipeline`` over the corpus, drained by the Ray driver one
    block at a time."""

    def __init__(self, corpus_dir: str, latency_ms: float):
        self.corpus_dir, self.latency_ms = corpus_dir, latency_ms

    def warm(self, warm_dir: str) -> None:
        from ollama_ocr_ray.pipelines import auto_pipeline
        from ollama_ocr_ray.sources.io import read_documents

        # no heavy document in the warm-up slice: the probe picks fused
        _, out = auto_pipeline(read_documents(warm_dir))
        n = sum(b.num_rows for b in out.iter_batches(
            batch_size=None, batch_format="pyarrow"))
        if n != WARM_DOCS:
            raise RuntimeError(f"warm-up extracted {n} of {WARM_DOCS} docs")

    def run(self, i: int, spans: Spans, rundir: str) -> dict:
        from ollama_ocr_ray.pipelines import auto_pipeline, choose_plan
        from ollama_ocr_ray.sources.io import read_documents

        kw, probe_s = {}, 0.0
        t0 = time.perf_counter()
        ds = read_documents(self.corpus_dir)
        if spans.enabled:
            # traced: the probe is its own span, and its answer is passed
            # on, so the job does the same work as untraced
            with spans.span("plan.choose_plan"):
                kw["plan"] = choose_plan(ds, ocr_latency_ms=self.latency_ms)
            probe_s = time.perf_counter() - t0
        t_call = time.perf_counter()
        with spans.span("plan.auto_pipeline"):
            plan, out = auto_pipeline(ds, ocr_latency_ms=self.latency_ms,
                                      **kw)
        t_built = time.perf_counter()
        blocks = iter(out.iter_batches(batch_size=None,
                                       batch_format="pyarrow"))
        with spans.span("consume.first_block"):
            first = next(blocks, None)
        t_first = time.perf_counter()
        tables = [] if first is None else [first]
        with spans.span("consume.drain"):
            tables.extend(blocks)
        t_end = time.perf_counter()
        rep = {"wall_s": t_end - t0, "first_output_s": t_first - t0,
               "build_s": t_built - t_call, "probe_s": probe_s,
               "plan": plan, "blocks": len(tables),
               "digests": output_digests(tables)}
        if spans.enabled:
            rep["stats"] = out.stats()
            rep["infer_spans"] = sum(
                s["kind"] == "ocr" for t in tables
                for r in t.column("spans").to_pylist() for s in r)
        return rep


class WriteJob:
    """``run_extract(plan="auto", wave=1)`` into a fresh output dir."""

    def __init__(self, corpus_dir: str, latency_ms: float):
        self.corpus_dir, self.latency_ms = corpus_dir, latency_ms

    def warm(self, warm_dir: str) -> None:
        from ollama_ocr_ray.state.runner import run_extract

        summary = run_extract(warm_dir, os.path.join(warm_dir, "out"),
                              plan="auto", ocr_latency_ms=self.latency_ms,
                              wave=1)
        if summary["docs"] != WARM_DOCS:
            raise RuntimeError(f"warm-up extracted {summary}")

    def run(self, i: int, spans: Spans, rundir: str) -> dict:
        from ollama_ocr_ray.state.runner import run_extract

        out_dir = os.path.join(rundir, f"out-{i}")
        captured: list = []
        with _traced_calls(spans, captured):
            t0_ns = time.time_ns()
            t0 = time.perf_counter()
            with spans.span("runner.run_extract"):
                summary = run_extract(self.corpus_dir, out_dir, plan="auto",
                                      ocr_latency_ms=self.latency_ms, wave=1)
            t_end = time.perf_counter()
        commits = sorted(
            (os.stat(p).st_mtime_ns - t0_ns) / 1e9
            for p in glob.glob(os.path.join(out_dir, "manifest",
                                            "part-*.json")))
        if not commits:
            raise RuntimeError(f"run_extract committed nothing: {summary}")
        rep = {"wall_s": t_end - t0, "first_output_s": commits[0],
               "commits_s": commits, "plan": summary["plan"],
               "out_dir": out_dir}
        if spans.enabled:
            # partition commits as seen in the manifest; the spans taken
            # inside run_extract move under the partition they fall in
            parent = next(r["id"] for r in reversed(spans.records)
                          if r["name"] == "runner.run_extract")
            inner = [r for r in spans.records if r["parent"] == parent]
            prev = 0.0
            for c in commits:
                part = spans.add("runner.partition", t0 + prev, t0 + c,
                                 parent)
                for r in inner:
                    if t0 + prev <= r["start"] < t0 + c:
                        r["parent"] = part
                prev = c
            rep["stats"] = "\n".join(captured)
            rep["write_bytes"] = sum(
                os.path.getsize(p) for p in glob.glob(
                    os.path.join(out_dir, "part-*", "*.parquet")))
        return rep


@contextlib.contextmanager
def _traced_calls(spans: Spans, captured: list):
    """While tracing, wrap the runner's calls into ``choose_plan`` and
    ``write_extracted`` in spans, and keep each written Dataset's stats
    text (the runner keeps its Datasets internal)."""
    if not spans.enabled:
        yield
        return
    import ollama_ocr_ray.pipelines.extract as px
    import ollama_ocr_ray.state.runner as runner

    orig_choose, orig_write = px.choose_plan, runner.write_extracted

    def choose_plan(*a, **kw):
        with spans.span("plan.choose_plan"):
            return orig_choose(*a, **kw)

    def write_extracted(ds, output_dir):
        with spans.span("io.write_extracted"):
            orig_write(ds, output_dir)
        captured.append(ds.stats())

    px.choose_plan, runner.write_extracted = choose_plan, write_extracted
    try:
        yield
    finally:
        px.choose_plan, runner.write_extracted = orig_choose, orig_write


def check_write_job(rep: dict, expected: dict, files: int) -> int:
    """Read a fused_job_write output back from its manifest and committed
    parts; failed documents."""
    import pyarrow.dataset as pads

    from ollama_ocr_ray.state.manifest import Manifest

    man = Manifest(rep["out_dir"])
    recs = man.records()
    tables = []
    for pid in range(files):
        rec = man.record(pid)
        if rec is None or rec.get("status") != "done":
            continue  # its documents count as missing
        t = pads.dataset(man.part_dir(pid), format="parquet").to_table(
            columns=["doc_id", "spans"])
        if rec.get("docs") != t.num_rows:
            print(f"perfbench: manifest says {rec.get('docs')} docs in "
                  f"partition {pid}, its part holds {t.num_rows}",
                  file=sys.stderr)
            return len(expected)
        tables.append(t)
    if len(recs) != files:
        print(f"perfbench: {len(recs)} manifest records for {files} files",
              file=sys.stderr)
    return failed_docs(output_digests(tables), expected)


def more_jobs(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Closed loop: start the next job while it is expected to end before
    the run's time is up by less than half a job."""
    if len(walls) < MIN_JOBS:
        return True
    return elapsed + walls[-1] / 2 < seconds


def run_ray(args, rundir: str, ray_tmp: str, spans: Spans) -> dict:
    import pyarrow.parquet as pq
    import ray

    latency = OCR_LATENCY_MS[args.workload]
    corpus_s = []
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        with spans.span("setup.corpus"):
            table = corpus.make_table(args.workload, args.seed)
            corpus_dir = os.path.join(rundir, f"corpus-{k}")
            paths = corpus.write(table, args.workload, corpus_dir)
        corpus_s.append(time.perf_counter() - t0)
    table = pq.read_table(paths)
    job = (SkewJob if args.workload == "canonical_ocr_skew"
           else WriteJob)(corpus_dir, latency)

    # the kernels on this corpus, before the session starts
    il = refkernel.Interleaver()
    kernels, parts = plan_kernels(), slices(table)
    outputs: dict[str, list] = {}
    for p in range(KERNEL_PASSES):
        kernel_pass(il, kernels, parts, outputs if p == 0 else None)
    rates = {name: statistics.median(pass_rates(il, name, parts))
             for name, _ in kernels}

    ray_init_s = ray_session(ray_tmp, spans)
    try:
        warm = [warm_up(job, table, rundir, spans) for _ in range(WARM_REPS)]
        reps: list[dict] = []
        t0 = time.perf_counter()
        while more_jobs([r["wall_s"] for r in reps],
                        time.perf_counter() - t0, args.seconds):
            reps.append(job.run(len(reps), Spans(spans.run_id, False),
                                rundir))
        rss = peak_rss_mb()
        traced = None
        if args.trace:
            with spans.span("job.traced"):
                traced = job.run(len(reps), spans, rundir)
    finally:
        ray.shutdown()
    print("perfbench: jobs " + ", ".join(
        f"{r['plan']} {r['wall_s']:.2f}s (first {r['first_output_s']:.2f}s)"
        for r in reps) + f"; ray.init {ray_init_s:.2f}s, warm-up "
        + ", ".join(f"{w:.2f}s" for w in warm), file=sys.stderr)
    expected = expected_digests(table)
    checks = [failed_docs(output_digests(outputs[name]), expected)
              for name, _ in kernels]
    for r in reps + ([traced] if traced else []):
        if isinstance(job, SkewJob):
            checks.append(failed_docs(r["digests"], expected))
        else:
            checks.append(check_write_job(r, expected, len(paths)))
    walls = [r["wall_s"] for r in reps]
    metrics = {
        "docs_per_s": table.num_rows / statistics.median(walls),
        "first_output_s": statistics.median(r["first_output_s"]
                                            for r in reps),
        "fused_docs_per_ref_s": rates["fused"],
        "canonical_docs_per_ref_s": rates["canonical"],
        "setup_s": ray_init_s + statistics.median(warm),
        "driver_peak_rss_mb": rss,
    }
    trace = {}
    if traced:
        trace = trace_ray_metrics(traced, table, latency, walls, spans)
        trace.update({"host.ref_speed_spread": il.raw_ref_spread(),
                      "setup.ray_init_s": ray_init_s,
                      "setup.warm_s": statistics.median(warm),
                      "setup.corpus_s": statistics.median(corpus_s)})
    return {"attempted": len(checks) * table.num_rows,
            "failed": sum(checks), "metrics": metrics, "trace": trace,
            "details": {"jobs": [{k: v for k, v in r.items()
                                  if k in ("wall_s", "first_output_s",
                                           "plan", "blocks", "commits_s")}
                                 for r in reps],
                        "ray_init_s": ray_init_s, "warm_s": warm,
                        "corpus_s": corpus_s,
                        "rates": rates, "ref_spread": il.raw_ref_spread()}}


def trace_ray_metrics(rep: dict, table, latency: float, walls, spans) -> dict:
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    rows = layers.parse_stats(rep["stats"])
    m = layers.operator_metrics(rows)
    flat = pc.list_flatten(table.column("spans"))
    media = int(pc.sum(pc.equal(pc.struct_field(flat, "kind"),
                                "media")).as_py())
    m["ocr.media_spans"] = media
    m["plan.canonical"] = int(rep["plan"] == "canonical")
    m["trace.overhead_frac"] = rep["wall_s"] / statistics.median(walls) - 1
    if "commits_s" in rep:
        c = rep["commits_s"]
        m["job.partitions"] = len(c)
        m["job.first_commit_s"] = c[0]
        m["job.partition_wall_s.max"] = max(
            b - a for a, b in zip([0.0] + c[:-1], c))
        m["io.write.bytes"] = rep["write_bytes"]
        probes = [r for r in spans.records if r["name"] == "plan.choose_plan"]
        m["plan.probe_s"] = sum(r["end"] - r["start"] for r in probes)
        out = pads.dataset(glob.glob(os.path.join(
            rep["out_dir"], "part-*", "*.parquet")), format="parquet"
        ).to_table(columns=["spans"])
        # each output span of kind "ocr" is one inferred media span
        m["ocr.infer_spans"] = int(pc.sum(pc.equal(pc.struct_field(
            pc.list_flatten(out.column("spans")), "kind"), "ocr")).as_py())
    else:
        m["plan.probe_s"] = rep["probe_s"]
        m["plan.build_s"] = rep["build_s"]
        m["ocr.infer_spans"] = rep["infer_spans"]
    m["ocr.modeled_sleep_s"] = m["ocr.infer_spans"] * latency / 1e3
    m.update(kernel_layer_metrics(table, spans))
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--ray-tmp", required=True)
    args = ap.parse_args()

    faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    spans = Spans(run_id, enabled=bool(args.trace))
    result = {"host": host_fingerprint(), "run_id": run_id,
              "workload": args.workload, "seed": args.seed,
              "corpus": corpus.describe(args.workload)}
    try:
        if args.workload == "extract_1core":
            out = run_1core(args, args.rundir, spans)
        else:
            out = run_ray(args, args.rundir, args.ray_tmp, spans)
    except Exception:  # noqa: BLE001 - a failed run is reported, not raised
        traceback.print_exc(file=sys.stderr)
        result["error"] = traceback.format_exc()
        out = None
    if out is not None:
        trace = out.pop("trace")
        if args.trace:
            self_s = spans.self_times()
            for prefix, name in layers.SELF_TIME.items():
                trace[name] = self_s.get(prefix, 0.0)
            out["metrics"] = {n: float(trace.get(n, 0.0))
                              for n, *_ in layers.PER_LAYER}
            result["spans"] = spans.records
        result.update(out)
    with open(os.path.join(args.rundir, "result.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)
    return 0 if out is not None else 1


if __name__ == "__main__":
    sys.exit(main())

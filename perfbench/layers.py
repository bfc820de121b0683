"""Metric catalog, ``Dataset.stats()`` parser and operator -> layer map.

The catalog is the benchmark's one list of metric names.  Each per-layer
entry names the program module it measures and the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` lists the same names (a test
checks it) and README.md renders the same table.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = {
    "extract_1core": "One process, no Ray: the fused kernel, the canonical "
                     "kernel chain and a stdlib reference kernel in ~100 ms "
                     "interleaved slices; kernel changes show, scheduling "
                     "changes cannot.",
    "canonical_ocr_skew": "Ray: one 260-media-span doc and latency-bound "
                          "mock OCR make the probe pick the canonical plan; "
                          "time goes to OCR task granularity and the "
                          "sort-fold exchange.",
    "fused_job_write": "Ray: the resumable run_extract job (plan=auto, "
                       "wave=1) picks the fused plan and writes and commits "
                       "one parquet partition per input file; no exchange.",
}

# (name, unit, better, bound)
END_TO_END = [
    ("docs_per_s", "docs/s", "higher", 0.25),
    ("first_output_s", "s", "lower", 0.25),
    ("fused_docs_per_ref_s", "docs/s", "higher", 0.2),
    ("canonical_docs_per_ref_s", "docs/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("driver_peak_rss_mb", "MiB", "lower", 0.1),
]

_ALL = "all"
_CORE = "extract_1core"
_SKEW = "canonical_ocr_skew"
_JOB = "fused_job_write"
_RAY = f"{_SKEW}, {_JOB}"

# (name, unit, better, layer, (end-to-end metric it should move, workloads))
PER_LAYER = [
    ("setup.ray_init_s", "s", "lower", "setup", ("setup_s", _RAY)),
    ("setup.warm_s", "s", "lower", "setup", ("setup_s", _RAY)),
    ("setup.corpus_s", "s", "lower", "setup", ("setup_s", _ALL)),
    ("io.read.wall_s", "s", "lower", "sources.io", ("docs_per_s", _RAY)),
    ("io.read.tasks", "count", "lower", "sources.io", ("docs_per_s", _RAY)),
    ("io.write.wall_s", "s", "lower", "sources.io", ("docs_per_s", _JOB)),
    ("io.write.bytes", "bytes", "lower", "sources.io", ("docs_per_s", _JOB)),
    ("plan.probe_s", "s", "lower", "pipelines.extract",
     ("first_output_s", _RAY)),
    ("plan.canonical", "bool", "lower", "pipelines.extract",
     ("first_output_s", _SKEW)),
    ("plan.build_s", "s", "lower", "pipelines.extract",
     ("first_output_s", _SKEW)),
    ("op.extractor.tasks", "count", "higher", "pipelines.extract",
     ("docs_per_s", _RAY)),
    ("op.extractor.wall_s", "s", "lower", "pipelines.extract",
     ("docs_per_s", _RAY)),
    ("op.extractor.remote_wall_s", "s", "lower", "pipelines.extract",
     ("docs_per_s", _RAY)),
    ("op.extractor.max_task_s", "s", "lower", "pipelines.extract",
     ("docs_per_s", _RAY)),
    ("op.extractor.parallelism", "ratio", "higher", "pipelines.extract",
     ("docs_per_s", _RAY)),
    ("ocr.media_spans", "count", "lower", "stages.ocr", ("docs_per_s", _SKEW)),
    ("ocr.infer_spans", "count", "lower", "stages.ocr", ("docs_per_s", _SKEW)),
    ("ocr.modeled_sleep_s", "s", "lower", "stages.ocr",
     ("docs_per_s", _SKEW)),
    ("op.repartition.wall_s", "s", "lower", "exchange",
     ("first_output_s", _SKEW)),
    ("op.sort.wall_s", "s", "lower", "exchange", ("first_output_s", _SKEW)),
    ("op.sort.blocks", "count", "lower", "exchange", ("docs_per_s", _SKEW)),
    ("op.fold.tasks", "count", "lower", "functions.folds",
     ("docs_per_s", _SKEW)),
    ("op.fold.wall_s", "s", "lower", "functions.folds",
     ("first_output_s", _SKEW)),
    ("fold.residual_rows", "count", "lower", "functions.folds",
     ("first_output_s", _SKEW)),
    ("kernel.explode.ref_ms_per_kdoc", "ms", "lower", "stages.explode",
     ("canonical_docs_per_ref_s", _CORE)),
    ("kernel.extract.ref_ms_per_kdoc", "ms", "lower", "stages.extract",
     ("canonical_docs_per_ref_s", _CORE)),
    ("kernel.html.ref_ms_per_kdoc", "ms", "lower", "stages.html_extract",
     ("fused_docs_per_ref_s", _CORE)),
    ("kernel.pdf.ref_ms_per_kdoc", "ms", "lower", "stages.pdf_parse",
     ("fused_docs_per_ref_s", _CORE)),
    ("kernel.ocr.ref_ms_per_kdoc", "ms", "lower", "stages.ocr",
     ("canonical_docs_per_ref_s", _CORE)),
    ("kernel.sort.ref_ms_per_kdoc", "ms", "lower", "exchange",
     ("canonical_docs_per_ref_s", _CORE)),
    ("kernel.reassemble.ref_ms_per_kdoc", "ms", "lower", "stages.reassemble",
     ("canonical_docs_per_ref_s", _CORE)),
    ("kernel.fused.ref_ms_per_kdoc", "ms", "lower", "pipelines.extract",
     ("fused_docs_per_ref_s", _CORE)),
    ("job.partitions", "count", "higher", "state.runner",
     ("first_output_s", _JOB)),
    ("job.partition_wall_s.max", "s", "lower", "state.runner",
     ("docs_per_s", _JOB)),
    ("job.first_commit_s", "s", "lower", "state.manifest",
     ("first_output_s", _JOB)),
    ("self.setup_s", "s", "lower", "setup", ("setup_s", _ALL)),
    ("self.plan_s", "s", "lower", "pipelines.extract",
     ("first_output_s", _RAY)),
    ("self.drain_s", "s", "lower", "pipelines.extract",
     ("docs_per_s", _SKEW)),
    ("self.runner_s", "s", "lower", "state.runner", ("docs_per_s", _JOB)),
    ("self.write_s", "s", "lower", "sources.io", ("docs_per_s", _JOB)),
    ("self.kernel_s", "s", "lower", "stages", ("fused_docs_per_ref_s", _ALL)),
    ("host.ref_speed_spread", "ratio", "lower", "host", ("none", _ALL)),
    ("trace.overhead_frac", "ratio", "lower", "trace", ("none", _ALL)),
]

# span name prefix -> self-time metric (the benchmark's spans, see job.py)
SELF_TIME = {"setup": "self.setup_s", "plan": "self.plan_s",
             "consume": "self.drain_s", "runner": "self.runner_s",
             "io": "self.write_s", "kernel": "self.kernel_s"}


def catalog() -> dict:
    """The metric part of ``BENCHMARK.json``."""
    return {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


# --- operator -> layer ------------------------------------------------
# First match wins.  Ray Data names operators after the datasource, the
# all-to-all kind, or the map_batches callable.
LAYER_RULES = [
    (re.compile(r"^Union"), "other"),
    (re.compile(r"^Read|MapBatches\(_check\)"), "io.read"),
    (re.compile(r"^Write"), "io.write"),
    (re.compile(r"Extractor\)"), "extractor"),
    (re.compile(r"^Repartition"), "repartition"),
    (re.compile(r"^Sort"), "sort"),
    (re.compile(r"MapBatches\(fold_block\)"), "fold"),
    (re.compile(r"MapBatches\(keep_out\)"), "fold.closed"),
]


def layer_of(op_name: str) -> str:
    for rx, layer in LAYER_RULES:
        if rx.search(op_name):
            return layer
    return "other"


# --- Dataset.stats() parser -------------------------------------------
_OP_RE = re.compile(r"^Operator (\d+) (.+?): ?(.*)$")
_SUB_RE = re.compile(r"^\s+Suboperator (\d+) (.+?): (.*)$")
_TASKS_RE = re.compile(
    r"(\d+) tasks executed, (\d+) blocks produced(?: in ([\d.]+)s)?")
_EXEC_RE = re.compile(r"executed in ([\d.]+)s")
_STAT_RE = re.compile(r"^\s*\* ([^:]+): (.*)$")
_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_ZERO = {"tasks": 0, "blocks": 0, "wall_s": 0.0, "remote_wall_s": 0.0,
         "max_task_s": 0.0, "rows_out": 0, "bytes_out": 0}


def _seconds(tok: str) -> float:
    m = re.match(r"([\d.eE+-]+)\s*(ns|us|ms|s)$", tok.strip())
    if not m:
        raise ValueError(f"not a duration: {tok!r}")
    return float(m.group(1)) * _TIME_UNITS[m.group(2)]


def _field(body: str, which: str) -> str:
    """``'1ms min, 2ms max, 1.5ms mean, 3ms total'`` -> the named part."""
    for part in body.split(","):
        part = part.strip()
        if part.endswith(" " + which):
            return part[: -len(which) - 1]
    raise ValueError(f"no {which!r} in {body!r}")


def _apply_stat(row: dict, key: str, body: str) -> None:
    if key == "Remote wall time":
        row["remote_wall_s"] += _seconds(_field(body, "total"))
        row["max_task_s"] = max(row["max_task_s"],
                                _seconds(_field(body, "max")))
    elif key == "Output num rows per block":
        # each sub-operator of an exchange passes every row: keep the last
        row["rows_out"] = int(float(_field(body, "total")))
    elif key == "Output size bytes per block":
        row["bytes_out"] = int(float(_field(body, "total")))


def parse_stats(text: str) -> list[dict]:
    """``Dataset.stats()`` text -> one row per operator.

    Sub-operators of an all-to-all exchange (``RepartitionSplit``,
    ``SortMap``/``SortReduce``) fold into their operator's row: tasks and
    remote times add up, rows, bytes and blocks come from the last
    sub-operator (the exchange's output).
    """
    rows: list[dict] = []
    cur: dict | None = None
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            cur = {"index": int(m.group(1)), "name": m.group(2),
                   "layer": layer_of(m.group(2)), **_ZERO}
            rows.append(cur)
            t = _TASKS_RE.search(m.group(3))
            if t:
                cur["tasks"] = int(t.group(1))
                cur["blocks"] = int(t.group(2))
                cur["wall_s"] = float(t.group(3) or 0.0)
            else:
                e = _EXEC_RE.search(m.group(3))
                if e:
                    cur["wall_s"] = float(e.group(1))
            continue
        if cur is None:
            continue
        if line and not line[0].isspace() and not line.startswith("*"):
            # a section after the operators (dataset throughput): stop
            # attributing bullets to the last operator
            cur = None
            continue
        s = _SUB_RE.match(line)
        if s:
            t = _TASKS_RE.search(s.group(3))
            if t:
                cur["tasks"] += int(t.group(1))
                cur["blocks"] = int(t.group(2))
            continue
        st = _STAT_RE.match(line)
        if st:
            try:
                _apply_stat(cur, st.group(1), st.group(2))
            except ValueError:
                continue
    return rows


def layer_totals(rows: list[dict]) -> dict[str, dict]:
    """Sum operator rows per layer (largest task: the maximum)."""
    out: dict[str, dict] = {}
    for r in rows:
        agg = out.setdefault(r["layer"], dict(_ZERO))
        for k in _ZERO:
            if k == "max_task_s":
                agg[k] = max(agg[k], r[k])
            else:
                agg[k] += r[k]
    return out


def operator_metrics(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics from parsed operator rows; a layer the plan
    does not run reads 0."""
    lt = layer_totals(rows)
    rd, wr, ex = (lt.get(k, _ZERO) for k in ("io.read", "io.write",
                                             "extractor"))
    rp, so, fo = (lt.get(k, _ZERO) for k in ("repartition", "sort", "fold"))
    closed = lt.get("fold.closed")
    return {
        "io.read.wall_s": rd["wall_s"],
        "io.read.tasks": rd["tasks"],
        "io.write.wall_s": wr["wall_s"],
        "op.extractor.tasks": ex["tasks"],
        "op.extractor.wall_s": ex["wall_s"],
        "op.extractor.remote_wall_s": ex["remote_wall_s"],
        "op.extractor.max_task_s": ex["max_task_s"],
        "op.extractor.parallelism": (ex["remote_wall_s"] / ex["wall_s"]
                                     if ex["wall_s"] > 0 else 0.0),
        "op.repartition.wall_s": rp["wall_s"],
        "op.sort.wall_s": so["wall_s"],
        "op.sort.blocks": so["blocks"],
        "op.fold.tasks": fo["tasks"],
        "op.fold.wall_s": fo["wall_s"],
        # the fold emits closed documents plus the raw boundary rows it
        # could not close; the residual is the difference
        "fold.residual_rows": (max(0, fo["rows_out"] - closed["rows_out"])
                               if closed else 0),
    }

"""Storage adapter: the input_hint schema is the contract, the container
is pluggable.

``read_documents`` prefers Lance (``ray.data.read_lance``) when the
pylance package is importable, else partitioned Parquet with the same
schema — the sandbox has no Lance, production would.  Deterministic
document order comes from table order + doc_id keys, not directory
listing order (replacing the reference's ``sorted(p.iterdir())``,
``/root/reference/ocr_router.py:93-97``).
"""

from __future__ import annotations

import os
import sys
import types
import weakref

from ..schema import validate_documents


def _settle_fsspec_http() -> None:
    """Sandbox workaround: fsspec's http module needs aiohttp (absent
    here) and fails on *every* import attempt; Ray Data's path resolver
    retries that import per read/write, and two concurrent resolutions
    (two threads reading at once) race into a spurious ImportError
    escaping Ray's ModuleNotFoundError guard.  Caching a stub module
    once makes all later imports race-free cache hits; the stub class is
    only ever used in isinstance checks against local filesystems."""
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # never instantiated: no http paths locally
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except ImportError:
        pass


_settle_fsspec_http()


def _has_lance() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


# parquet or JSONL Dataset returned by ``read_documents_files`` → the
# files it reads, in order; keyed weakly (a ``Dataset`` hashes by
# identity), so any transformed Dataset — a new object — is not found
_SOURCE_FILES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def source_files(ds) -> list[str] | None:
    """The parquet or JSONL files ``read_documents``/
    ``read_documents_files`` read into exactly this Dataset object, in
    input order; ``None`` for any other Dataset (a transformed one,
    ``from_arrow``, CSV/Lance).  Ray's own ``Dataset.input_files()`` is
    empty after the validation map."""
    return _SOURCE_FILES.get(ds)


def list_input_files(input_path: str) -> list[str]:
    """Sorted data files of a documents table directory (the partition
    units for the resumable runner).  ``.parquet``/``.lance``/
    ``.jsonl``/``.csv`` are always data (mixing them is refused at the
    read); a plain ``.json`` is a metadata SIDECAR (job summaries, HF
    dataset_info) whenever any real data file is present, and data
    only in a directory holding nothing else."""
    if os.path.isfile(input_path):
        return [input_path]
    entries = sorted(os.listdir(input_path))
    data = [os.path.join(input_path, f) for f in entries
            if f.endswith((".parquet", ".lance", ".jsonl", ".csv"))]
    if data:
        return data
    return [os.path.join(input_path, f) for f in entries
            if f.endswith(".json")]


def read_documents(input_path: str, *, validate: bool = True,
                   override_num_blocks: int | None = None):
    """documents table → ray.data.Dataset (schema-validated at ingest,
    replacing the reference's per-file ``_validate_file`` checks,
    ``ollama_cloud_ocr.py:96-103``).

    ``override_num_blocks`` controls task granularity downstream: the
    map-stage task unit is the input block, so ~200-doc blocks keep an
    actor pool load-balanced (a barrier-free alternative to
    ``repartition``, which would block the stream)."""
    return read_documents_files(list_input_files(input_path), validate=validate,
                                override_num_blocks=override_num_blocks)


def read_documents_files(files: list[str], *, validate: bool = True,
                         override_num_blocks: int | None = None,
                         pids: list[int] | None = None):
    """Container dispatch by suffix: Lance when importable, Parquet
    (columnar fast path), JSONL (`ray.data.read_json` — the common
    crawl-dump interchange format), CSV.  Mixed-suffix directories are
    refused loudly rather than silently half-read; every path funnels
    through the same schema validation, so a JSONL corpus with a
    missing/mistyped column fails at ingest, not mid-pipeline.

    ``pids`` (one per file) adds the ``schema.PID`` column: each row
    carries the partition id of the file it came from, so one Dataset
    can run several resumable partitions (``state.runner``).  The read
    records each row's path and the validation map turns it into the
    id; the files are read one at a time, in order."""
    import ray.data as rd

    kinds = {
        "jsonl" if s == "json" else s
        for s in (f.rsplit(".", 1)[-1] for f in files)
    }
    if len(kinds) > 1:
        raise ValueError(
            f"read_documents: mixed container formats in one table: "
            f"{sorted(kinds)} — split the directory per format"
        )
    # a partitioned read records each row's path, and reads one file at
    # a time, in order: a partition's rows then reach the pool before
    # the next one's, so the first partitions complete (and commit)
    # early instead of all at the job's end
    paths = ({"include_paths": True, "concurrency": 1}
             if pids is not None else {})
    by_path = None
    if _has_lance() and files and files[0].endswith(".lance"):
        if pids is None:
            ds = rd.read_lance(files[0],
                               override_num_blocks=override_num_blocks)
        else:
            # a Lance read records no path: read each dataset with its id
            import pyarrow as pa

            from ..schema import PID

            parts = [rd.read_lance(f).add_column(
                PID, lambda b, pid=pid: pa.repeat(pa.scalar(pid, pa.int32()),
                                                  b.num_rows),
                batch_format="pyarrow") for f, pid in zip(files, pids)]
            ds = parts[0].union(*parts[1:])
            paths = {}
    elif files and files[0].endswith((".jsonl", ".json")):
        ds = rd.read_json(files, override_num_blocks=override_num_blocks,
                          **paths)
    elif files and files[0].endswith(".csv"):
        ds = rd.read_csv(files, override_num_blocks=override_num_blocks,
                         **paths)
    else:
        ds = rd.read_parquet(files, override_num_blocks=override_num_blocks,
                             **paths)
    if paths:
        by_path = {os.path.abspath(f): pid for f, pid in zip(files, pids)}
    if validate or by_path is not None:
        import pyarrow as pa

        def _check(batch: pa.Table) -> pa.Table:
            if by_path is not None:
                batch = _path_to_pid(batch, by_path)
            if validate:
                validate_documents(batch)
            return batch

        ds = ds.map_batches(_check, batch_format="pyarrow", zero_copy_batch=True)
    if files and files[0].endswith((".parquet", ".jsonl", ".json")):
        _SOURCE_FILES[ds] = list(files)
    return ds


def _path_to_pid(batch, by_path: dict):
    """The read's ``path`` column → the ``schema.PID`` of each row's
    file (``by_path``: absolute path → pid)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..schema import PID

    path = batch.column("path")
    uniq = pc.unique(path)
    pid_of = pa.array([by_path[os.path.abspath(p)]
                       for p in uniq.to_pylist()], type=pa.int32())
    return batch.drop_columns(["path"]).append_column(
        PID, pid_of.take(pc.index_in(path, value_set=uniq)))


def write_extracted(ds, output_dir: str) -> None:
    """extracted table → Parquet files in ``output_dir``, one per
    block, the write side of the adapter (never one giant file).  The
    resumable runner writes through ``write_partitions``: always
    Parquet, Lance or not, since ``state.runner`` reads every committed
    partition back as Parquet."""
    ds.write_parquet(output_dir)


def write_partitions(ds, staging: dict):
    """A partitioned extraction (rows carrying ``schema.PID``) → the
    write: each block's rows of partition K go, without the id, into
    ONE new parquet file in ``staging[K]`` (its ``_tmp-part-K`` dir),
    from a task that returns one ``(pid, rows)`` row per partition it
    wrote.  Those rows reach the driver only after their files are
    written, so ``state.runner`` commits partition K once its rows add
    up to K's input count."""
    import uuid

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..schema import PID, map_partitions

    def write(rows: pa.Table, pid) -> pa.Table:
        if rows.num_rows:
            # written under a hidden name first, so a cancelled task
            # never leaves a partial file a reader would take as data
            name = f"{uuid.uuid4().hex}.parquet"
            os.makedirs(staging[pid], exist_ok=True)
            tmp = os.path.join(staging[pid], "." + name)
            pq.write_table(rows.drop_columns([PID]), tmp)
            os.replace(tmp, os.path.join(staging[pid], name))
        return pa.table({"rows": pa.array([rows.num_rows] if rows.num_rows
                                          else [], type=pa.int64())})

    def write_partition_block(block: pa.Table) -> pa.Table:
        return map_partitions(write, block)

    return ds.map_batches(write_partition_block, batch_format="pyarrow",
                          batch_size=None, zero_copy_batch=True)

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
    (the runner's partition waves) race into a spurious ImportError
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


# parquet Dataset returned by ``read_documents_files`` → the files it
# reads, in order; keyed weakly (a ``Dataset`` hashes by identity), so
# any transformed Dataset — a new object — is not found
_PARQUET_FILES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def parquet_files(ds) -> list[str] | None:
    """The parquet files ``read_documents``/``read_documents_files`` read
    into exactly this Dataset object, in input order; ``None`` for any
    other Dataset (a transformed one, ``from_arrow``, JSONL/CSV/Lance).
    Ray's own ``Dataset.input_files()`` is empty after the validation
    map."""
    return _PARQUET_FILES.get(ds)


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
                         override_num_blocks: int | None = None):
    """Container dispatch by suffix: Lance when importable, Parquet
    (columnar fast path), JSONL (`ray.data.read_json` — the common
    crawl-dump interchange format), CSV.  Mixed-suffix directories are
    refused loudly rather than silently half-read; every path funnels
    through the same schema validation, so a JSONL corpus with a
    missing/mistyped column fails at ingest, not mid-pipeline."""
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
    if _has_lance() and files and files[0].endswith(".lance"):
        ds = rd.read_lance(files[0], override_num_blocks=override_num_blocks)
    elif files and files[0].endswith((".jsonl", ".json")):
        ds = rd.read_json(files, override_num_blocks=override_num_blocks)
    elif files and files[0].endswith(".csv"):
        ds = rd.read_csv(files, override_num_blocks=override_num_blocks)
    else:
        ds = rd.read_parquet(files, override_num_blocks=override_num_blocks)
    if validate:
        import pyarrow as pa

        def _check(batch: pa.Table) -> pa.Table:
            validate_documents(batch)
            return batch

        ds = ds.map_batches(_check, batch_format="pyarrow", zero_copy_batch=True)
    if files and files[0].endswith(".parquet"):
        _PARQUET_FILES[ds] = list(files)
    return ds


def write_extracted(ds, output_dir: str) -> None:
    """extracted table → partitioned Parquet, the write side of the
    adapter.  Always Parquet, Lance or not: the checkpointed path
    (``state.runner``, one commit per input partition) reads every
    committed partition back as Parquet.  One file per block keeps
    output partition-aligned and resumable (never one giant file)."""
    ds.write_parquet(output_dir)

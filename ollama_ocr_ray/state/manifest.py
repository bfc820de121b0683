"""The commit protocol every resumable job uses, and its per-partition
manifest.

The reference has no checkpointing — a rerun redoes everything and
overwrites outputs (``/root/reference/ocr_router.py:403``,
``ollama_cloud_ocr.py:889``).  Here every unit of work (an extract,
annotate or pack partition; a finalize, select or ingest pass; an index
snapshot) commits through the helpers below, in this order:

1. **Clean** (``stage``): remove what a killed run left behind — the
   ``_tmp-<name>`` dir beside the output and an output dir whose record
   is missing or stale.
2. **Write** into ``_tmp-<name>`` only.
3. **Publish** (``publish_dir``): rename ``_tmp-<name>`` to ``<name>``.
   A write that produced no files still publishes an empty dir, so an
   empty result is a committed result.
4. **Record** (``write_record``): write the completion record with tmp
   + rename, only after the data rename.

A kill at any point leaves either nothing or a complete unit.  A unit
is done when its record's key matches the fingerprint of what the run
would write now AND its output dir exists (``done_record``); a record
is never trusted for merely existing.  Keys are ``partition_fingerprint``
(one input file) or ``fingerprint`` (a list of parts: fingerprints and
config).

The per-partition form is ``Manifest``: output ``part-N``, staging dir
``_tmp-part-N``, record ``manifest/part-N.json`` carrying
`{partition_id, input_file, input_fingerprint, docs, spans_out, chars,
errors, ocr latency stats, status}` (FIXTURES.md §4), keyed on
``input_fingerprint``.

SHARED-FS REQUIREMENT: the raw-task jobs (annotate, pack) write the
staging dir on a worker while the driver renames it and writes the
record, so both must see one filesystem.  That holds on one node and on
any cluster whose output dir is shared storage (NFS, FSx, a blob
mount), which a 100-TB output dir is in practice.  On node-local disks
the task's write must go through the storage abstraction in
``sources.io`` (an fsspec-style URI) so the staging write and the
rename reach the same store; the protocol itself is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager


def partition_fingerprint(input_file: str) -> str:
    st = os.stat(input_file)
    key = f"{os.path.abspath(input_file)}:{st.st_size}:{st.st_mtime_ns}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def fingerprint(parts: list) -> str:
    """A completion key over JSON-serializable parts."""
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _staging_path(final_dir: str) -> str:
    final_dir = os.path.normpath(final_dir)
    return os.path.join(os.path.dirname(final_dir),
                        "_tmp-" + os.path.basename(final_dir))


def stage(final_dir: str) -> str:
    """Step 1: remove a killed run's leftovers of ``final_dir`` and
    return the staging dir to write into (not created here)."""
    tmp = _staging_path(final_dir)
    for stale in (tmp, final_dir):
        if os.path.isdir(stale):
            shutil.rmtree(stale)
    return tmp


def publish_dir(final_dir: str) -> None:
    """Step 3: rename the staging dir into place (empty if nothing was
    written)."""
    tmp = _staging_path(final_dir)
    os.makedirs(tmp, exist_ok=True)
    os.replace(tmp, final_dir)


@contextmanager
def atomic_file(path: str, **open_kwargs):
    """A text file written to ``path.tmp`` and renamed into place only
    when the block completes."""
    tmp = path + ".tmp"
    with open(tmp, "w", **open_kwargs) as f:
        yield f
    os.replace(tmp, path)


def write_record(path: str, record: dict) -> None:
    """Step 4: the completion record, atomically."""
    with atomic_file(path) as f:
        json.dump(record, f, indent=1)


def read_record(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def done_record(path: str, field: str, key: str,
                output_dir: str) -> dict | None:
    """The record at ``path`` when its ``field`` equals ``key`` and
    ``output_dir`` exists: the unit is done.  Otherwise ``None``."""
    rec = read_record(path)
    if rec is not None and rec.get(field) == key \
            and os.path.isdir(output_dir):
        return rec
    return None


class Manifest:
    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.dir = os.path.join(output_dir, "manifest")
        os.makedirs(self.dir, exist_ok=True)

    def _rec_path(self, pid: int) -> str:
        return os.path.join(self.dir, f"part-{pid:05d}.json")

    def part_dir(self, pid: int) -> str:
        return os.path.join(self.output_dir, f"part-{pid:05d}")

    def record(self, pid: int) -> dict | None:
        return read_record(self._rec_path(pid))

    def is_done(self, pid: int, fingerprint: str) -> bool:
        return done_record(self._rec_path(pid), "input_fingerprint",
                           fingerprint, self.part_dir(pid)) is not None

    def pending(self, keys: dict[int, str],
                limit: int | None = None) -> list[int]:
        """The partitions of ``keys`` (``{pid: input_fingerprint}``) not
        done, in ``keys`` order, at most ``limit`` of them."""
        return [pid for pid, key in keys.items()
                if not self.is_done(pid, key)][:limit]

    def stage(self, pid: int) -> str:
        return stage(self.part_dir(pid))

    def commit(self, pid: int, record: dict) -> None:
        """Steps 3 and 4 for partition ``pid``: publish its staging dir,
        then write its record."""
        publish_dir(self.part_dir(pid))
        write_record(self._rec_path(pid),
                     dict(record, partition_id=pid, status="done"))

    def records(self) -> list[dict]:
        out = []
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.dir, name)) as f:
                    out.append(json.load(f))
        return out

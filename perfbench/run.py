"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload extract_1core --seed 1 \\
        --seconds 15 --trace 0

Works from any working directory: the program measured is the
``ollama_ocr_ray`` package next to this directory.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Everything
else goes to standard error.

Isolation: each run gets a fresh private directory (corpus, outputs,
Ray's session files) under ``.pbr/`` next to this directory,
runs ``job.py`` there in a new process group with a fixed environment
and its own Ray session, and removes the directory when done.  On
timeout only that process group is killed, and the run waits until
every process of the group has ended.  Nothing else is stopped or
deleted, so runs may overlap.

Exit code: 0 when every document matched its oracle; 1 when a document
failed or the run crashed, hung or timed out (the result line is still
printed, with every document failed); 2 when there is nothing to
measure (no program next to the benchmark, or bad arguments), in which
case no result line is printed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # noqa: E402 - keep the checkout clean

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import layers  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".pbr")
# the whole run must end within 180 s
CHILD_TIMEOUT_S = 160.0
EXIT_WAIT_S = 10.0
# Ray's unix socket paths ("<tmp>/session_<date>_<time>_<us>_<pid>/
# sockets/plasma_store") are 64 bytes longer than its temp dir and must
# stay below the 107-byte AF_UNIX limit
MAX_RAY_TMP_LEN = 43
# The run's environment is fixed here rather than taken from the
# caller's shell: no usage-stats reporting, no memory monitor killing
# workers, one OpenMP thread per process, and Ray workers that import
# the program from this checkout whatever the working directory.
FIXED_ENV = {
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_DEDUP_LOGS": "0",
    "RAY_DISABLE_IMPORT_WARNING": "1",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    "RAY_SCHEDULER_EVENTS": "0",
    "OMP_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONUNBUFFERED": "1",
    "PYTHONPATH": ROOT,
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RAY_") and k != "PYTHONPATH"}
    env.update(FIXED_ENV)
    return env


def group_members(pgid: int) -> list[int]:
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def stop_group(pgid: int) -> None:
    """Wait (bounded) for the run's process group to end by itself, then
    kill what is left of it and wait again."""
    deadline = time.monotonic() + EXIT_WAIT_S
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.1)
    if group_members(pgid):
        print("perfbench: killing leftover processes of the run",
              file=sys.stderr)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while group_members(pgid):
            time.sleep(0.05)


def failed_result(workload: str, trace: int) -> dict:
    """A run that crashed, hung or timed out: all its documents failed."""
    docs = corpus.SHAPES[workload]["docs"]
    names = layers.PER_LAYER if trace else layers.END_TO_END
    return {"correct": False, "attempted": docs, "failed": docs,
            "metrics": {n: {"value": 0.0, "unit": u} for n, u, *_ in names}}


def run(args) -> dict:
    while True:
        os.makedirs(RUNS_DIR, exist_ok=True)
        try:
            rundir = tempfile.mkdtemp(dir=RUNS_DIR)
            break
        except FileNotFoundError:
            pass  # another run removed the empty RUNS_DIR meanwhile
    ray_tmp = rundir
    own_ray_tmp = len(ray_tmp) > MAX_RAY_TMP_LEN
    if own_ray_tmp:
        # a checkout path too long for Ray's sockets: its session files
        # go to a private directory in the system temp dir instead
        ray_tmp = tempfile.mkdtemp(prefix="pb")
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", rundir, "--ray-tmp", ray_tmp]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=child_env(),
                            cwd=rundir, start_new_session=True)

    def clean_up():
        shutil.rmtree(rundir, ignore_errors=True)
        if own_ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass  # another run's directory is still in it

    def on_signal(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        stop_group(proc.pid)
        clean_up()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    t0 = time.monotonic()
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S:.0f}s; killing it",
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        rc = proc.wait()
    stop_group(proc.pid)
    try:
        with open(os.path.join(rundir, "result.json")) as f:
            state = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        state = {}
    finally:
        clean_up()
    elapsed = time.monotonic() - t0
    print("perfbench: " + json.dumps(
        {k: state.get(k) for k in ("run_id", "host", "corpus", "details",
                                   "attempted", "failed")},
        default=str), file=sys.stderr)
    if rc != 0 or "metrics" not in state:
        print(f"perfbench: run failed (exit code {rc}) after "
              f"{elapsed:.1f}s", file=sys.stderr)
        return failed_result(args.workload, args.trace)
    units = {n: u for n, u, *_ in layers.END_TO_END + layers.PER_LAYER}
    return {"correct": state["failed"] == 0,
            "attempted": int(state["attempted"]),
            "failed": int(state["failed"]),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in state["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "ollama_ocr_ray",
                                       "__init__.py")):
        print(f"perfbench: no ollama_ocr_ray package in {ROOT}; nothing "
              "to measure", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Driver-style correctness self-check: run every queries() entry and
compare against its oracle_sql() via DuckDB (row count, column names,
sorted-value equality), mirroring what the graft driver does.

Usage: python tools/selfcheck.py [sf_dir] [query_name ...]

Extra positional names restrict the run to those queries (spot-checks
while iterating); with none given every registry entry runs.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    # ray Dataset
    tables = list(result.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tables:
        return pd.DataFrame()
    return pa.concat_tables(tables).to_pandas()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def main() -> int:
    sf_dir = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01")
    # import the checkout this script lives in, whatever the current
    # directory: the driver through sys.path, Ray's workers through the
    # driver's working directory, which ray.init puts on their path
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    os.chdir(root)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    only = set(sys.argv[2:])
    if only:
        unknown = only - set(qs)
        if unknown:
            print(f"unknown queries: {sorted(unknown)}")
            return 2
        qs = {k: v for k, v in qs.items() if k in only}
    failures = 0
    for name, fn in qs.items():
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: ray query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} cols={list(got.columns)} "
                  f"[rows-only] ({dt:.1f}s)")
            continue
        exp = canon(con.sql(oracles[name]).df())
        status = "ok  "
        if list(got.columns) != list(exp.columns):
            status = "FAIL"
            print(f"{status} {name}: columns {list(got.columns)} != {list(exp.columns)}")
            failures += 1
            continue
        if len(got) != len(exp):
            status = "FAIL"
            print(f"{status} {name}: rows {len(got)} != {len(exp)}")
            failures += 1
            continue
        # The driver hashes raw values, so int64 vs float64 on the same
        # numbers IS a failure there (caught us once: DuckDB HUGEINT ->
        # pandas float64).  Compare dtype *kind classes* (int/uint vs
        # float) per column before the value check.
        kind_class = {"i": "int", "u": "int", "f": "float"}
        for col in got.columns:
            gk = kind_class.get(got[col].dtype.kind)
            ek = kind_class.get(exp[col].dtype.kind)
            if gk != ek:
                status = "FAIL"
                print(f"{status} {name}: column {col!r} dtype-class "
                      f"{got[col].dtype} != {exp[col].dtype} "
                      f"(driver hash would mismatch)")
                failures += 1
                break
        if status == "FAIL":
            continue
        try:
            pd.testing.assert_frame_equal(
                got.reset_index(drop=True),
                exp.reset_index(drop=True),
                check_dtype=False,
                check_exact=True,
            )
        except AssertionError as e:
            status = "FAIL"
            failures += 1
            print(f"{status} {name}: value mismatch: {str(e)[:300]}")
            continue
        print(f"{status} {name}: rows={len(got)} exact-match ({dt:.1f}s)")
    print(f"\n{'ALL OK' if failures == 0 else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

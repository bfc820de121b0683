"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: synthesize the interleaved text+media corpus at
    smoke scale, run the extraction (``auto_pipeline``: bounded probe,
    then the one fused plan), return the per-document summary table
    (doc_id, engine, chars, spans, errors)."""
    from ollama_ocr_ray.queries import q_extract_canonical

    return q_extract_canonical("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 and
    the training-data-pipeline suite (see ollama_ocr_ray.queries)."""
    from ollama_ocr_ray.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query, with
    column names matching the Ray results exactly."""
    from ollama_ocr_ray.queries import oracle_sql as _o

    return _o()

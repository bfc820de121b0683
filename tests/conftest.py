import numpy as np
import pyarrow as pa
import pytest
import ray


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tie_corpus():
    """(matrix, table) of 120 vectors whose ids 0-29 repeat one vector.

    Every vector is +-1 at four of its 16 places, so every cosine is a
    multiple of 1/4 and exact in any summation order: the ties are real
    on the engine's side and numpy's alike, at the k-th place too."""
    rng = np.random.default_rng(5)
    n, d = 120, 16
    mat = np.zeros((n, d))
    for row in mat:
        row[rng.choice(d, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    mat[:30] = mat[0]
    table = pa.table(
        {"vec_id": pa.array(np.arange(n), type=pa.int64()),
         "embedding": pa.array([row.tolist() for row in mat])}
    )
    return mat, table

"""Ray Data stage implementations (map_batches bodies + actor classes).

Each stage is a batch transform: ``pyarrow.Table`` in → ``pyarrow.Table``
out, wired by ``ollama_ocr_ray.pipelines``.  The extraction logic here is
written independently of the sequential oracle (``ollama_ocr_ray.oracle``)
per SURVEY.md §5.2.
"""

from .explode import explode_batch
from .extract import extract_batch
from .ocr import OcrModel

__all__ = ["explode_batch", "extract_batch", "OcrModel"]

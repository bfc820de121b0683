from .extract import (auto_pipeline, choose_plan, fused_pipeline,
                      split_pipeline, summary_table)

__all__ = ["auto_pipeline", "choose_plan", "fused_pipeline",
           "split_pipeline", "summary_table"]

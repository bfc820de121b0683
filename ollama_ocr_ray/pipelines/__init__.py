from .extract import auto_pipeline, choose_plan, fused_pipeline, summary_table

__all__ = ["auto_pipeline", "choose_plan", "fused_pipeline", "summary_table"]

from .extract import auto_pipeline, choose_plan, summary_table

__all__ = ["auto_pipeline", "choose_plan", "summary_table"]

"""Experiment flows: one call per paper artefact data point.

Every flow is a thin driver over the stage graph of
:mod:`repro.pipeline`; pass ``checkpoint_dir`` to any of them to make
runs resumable (see ``docs/pipeline.md``).
"""

from .experiment import (
    POLICIES,
    FlowResult,
    apply_policy,
    flow_result,
    relative_metrics,
    run_flow,
)
from .export import export_all
from .report import format_table
from .sweep import (
    Table2Row,
    Table3Row,
    family_tradeoff,
    fraction_sweep,
    run_points,
    table2_rows,
    table3_rows,
)

__all__ = [
    "POLICIES",
    "FlowResult",
    "apply_policy",
    "flow_result",
    "relative_metrics",
    "run_flow",
    "export_all",
    "format_table",
    "Table2Row",
    "Table3Row",
    "family_tradeoff",
    "fraction_sweep",
    "run_points",
    "table2_rows",
    "table3_rows",
]

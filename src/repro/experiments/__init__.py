"""Paper-reproduction experiments (tables, figures, ablations).

``ExperimentContext`` owns a workdir of cached traces, checkpoints, and
full-training results shared across experiments; each ``run_*`` function
consumes a context (``run_table1`` only needs its config) and returns a
frozen result object that the matching ``format_*`` renders as a text
table. The CLI lives in ``repro.experiments.runner``.
"""

from .ablations import (
    format_ablation_distance,
    format_ablation_partial,
    format_ablation_policies,
    run_ablation_distance,
    run_ablation_partial,
    run_ablation_policies,
)
from .config import CONFIGS, ExperimentConfig, get_config
from .context import ExperimentContext
from .faults import FaultResult, format_ablation_faults, run_ablation_faults
from .fig2 import Fig2Result, format_fig2, run_fig2
from .fig4 import Fig4Result, format_fig4, run_fig4
from .fig5 import Fig5Result, format_fig5, run_fig5
from .fig7 import Fig7Result, format_fig7, run_fig7
from .fig8 import Fig8Result, format_fig8, full_train_top, run_fig8
from .fig9 import Fig9Result, format_fig9, run_fig9
from .fig10 import Fig10Result, format_fig10, run_fig10
from .fig11 import Fig11Result, format_fig11, run_fig11
from .report import human_bytes, human_count, pct, text_table
from .scorecard import ScorecardResult, format_scorecard, run_scorecard
from .table1 import Table1Result, format_table1, run_table1
from .table3 import Table3Result, format_table3, run_table3
from .table4 import Table4Result, format_table4, run_table4

__all__ = [
    "CONFIGS",
    "ExperimentConfig",
    "ExperimentContext",
    "FaultResult",
    "Fig2Result",
    "Fig4Result",
    "Fig5Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "ScorecardResult",
    "Table1Result",
    "Table3Result",
    "Table4Result",
    "format_ablation_distance",
    "format_ablation_faults",
    "format_ablation_partial",
    "format_ablation_policies",
    "format_fig2",
    "format_fig4",
    "format_fig5",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "format_fig10",
    "format_fig11",
    "format_scorecard",
    "format_table1",
    "format_table3",
    "format_table4",
    "full_train_top",
    "get_config",
    "human_bytes",
    "human_count",
    "pct",
    "run_ablation_distance",
    "run_ablation_faults",
    "run_ablation_partial",
    "run_ablation_policies",
    "run_fig2",
    "run_fig4",
    "run_fig5",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_scorecard",
    "run_table1",
    "run_table3",
    "run_table4",
    "text_table",
]

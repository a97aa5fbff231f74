"""repro.runner — crash-safe supervised execution of experiment sweeps.

The runner turns every evaluation sweep into a declarative **plan** of
:class:`Cell` records, executes it serially or on a supervised worker
pool, journals each cell's digest as it completes, and resumes
interrupted runs — with parallel, resumed, and interrupted-then-resumed
runs all bit-identical to the serial reference (``docs/RUNNER.md``).
"""

from repro.runner.execute import (
    CELL_KINDS,
    CellOutcome,
    execute_cell,
    execute_cells,
    get_trace,
    result_digest,
    scaled_policy_kwargs,
    validate_names,
)
from repro.runner.journal import (
    Journal,
    list_runs,
    write_json_atomic,
)
from repro.runner.plan import (
    Cell,
    baseline_cells,
    plan_hash,
    sweep_cells,
    tuned_reverse_cell,
)
from repro.runner.pool import PoolStatus, SupervisedPool
from repro.runner.report import (
    format_failure,
    format_run_detail,
    format_runs_table,
    resume_argv,
    run_summary,
)
from repro.runner.runner import (
    EXIT_DEADLINE,
    EXIT_FAILED_CELLS,
    EXIT_INTERRUPTED,
    EXIT_OK,
    RunReport,
    default_journal_dir,
    run_plan,
)

__all__ = [
    "CELL_KINDS",
    "Cell",
    "CellOutcome",
    "EXIT_DEADLINE",
    "EXIT_FAILED_CELLS",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "Journal",
    "PoolStatus",
    "RunReport",
    "SupervisedPool",
    "baseline_cells",
    "default_journal_dir",
    "execute_cell",
    "execute_cells",
    "format_failure",
    "format_run_detail",
    "format_runs_table",
    "get_trace",
    "list_runs",
    "plan_hash",
    "result_digest",
    "resume_argv",
    "run_plan",
    "run_summary",
    "scaled_policy_kwargs",
    "sweep_cells",
    "tuned_reverse_cell",
    "validate_names",
    "write_json_atomic",
]

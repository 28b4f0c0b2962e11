"""repro-lint: the repo's determinism-contract static-analysis pass.

Five rules encode the invariants every artifact in this reproduction
rides on (see ``docs/LINT.md``):

- **R1 determinism** — no wall-clock/entropy calls or unordered-set
  iteration in the packages that produce rows, keys, or artifacts;
- **R2 plan-key hygiene** — ``hashlib`` stays inside the plan store;
- **R3 docs flag tables** — every ``sweep`` and ``design`` flag has a
  row in its doc's flag table, and no row names a retired flag;
- **R4 gated columns** — unfrozen row keys sit behind axis guards;
- **R5 units naming** — numeric fields carry unit suffixes.

Run it as ``chiplet-npu lint`` or ``python -m repro.devtools``;
silence a deliberate violation with ``# repro-lint: disable=RULE``.
"""

from .axes import check_flag_table
from .diagnostics import Diagnostic, Suppressions, scan_pragmas
from .runner import (
    RULES,
    find_repo_root,
    lint_file,
    load_frozen_columns,
    main,
    run_lint,
)

__all__ = [
    "Diagnostic",
    "RULES",
    "Suppressions",
    "check_flag_table",
    "find_repo_root",
    "lint_file",
    "load_frozen_columns",
    "main",
    "run_lint",
    "scan_pragmas",
]

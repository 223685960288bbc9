"""Engine-invariant static analysis over the repro source tree.

Sibling of the ACQ query analyzer: where :mod:`repro.analysis.passes`
checks a *user query* before execution, this package checks the
*engine's own source* for the invariants its concurrency and caching
design depends on — tensor purity (EL1xx), lock discipline (EL2xx),
exception/import policy (EL3xx, absorbed from the retired
``tools/lint_invariants.py``) and stats counter drift (EL4xx).

Entry points: ``repro lint --engine`` on the command line,
:func:`lint_paths` from code. The committed baseline
(``tools/engine_lint_baseline.txt``) records reviewed findings with a
mandatory reason; the gate fails on anything unsuppressed.
"""

from repro.analysis.engine_lint.driver import (
    DEFAULT_BASELINE,
    collect_files,
    default_project_root,
    default_source_root,
    engine_lint_main,
    lint_paths,
    load_baseline,
    load_modules,
)
from repro.analysis.engine_lint.model import (
    EngineFinding,
    EngineLintReport,
    Suppression,
    apply_baseline,
    parse_suppressions,
)
from repro.analysis.engine_lint.passes import (
    ENGINE_PASSES,
    LintModule,
    ProjectContext,
    exception_policy_pass,
    lock_discipline_pass,
    run_passes,
    stats_drift_pass,
    tensor_purity_pass,
)

__all__ = [
    "DEFAULT_BASELINE",
    "ENGINE_PASSES",
    "EngineFinding",
    "EngineLintReport",
    "LintModule",
    "ProjectContext",
    "Suppression",
    "apply_baseline",
    "collect_files",
    "default_project_root",
    "default_source_root",
    "engine_lint_main",
    "exception_policy_pass",
    "lint_paths",
    "load_baseline",
    "load_modules",
    "lock_discipline_pass",
    "parse_suppressions",
    "run_passes",
    "stats_drift_pass",
    "tensor_purity_pass",
]

"""repro.analysis: simulation-safety static analyzer.

AST-based, stdlib-only lints for the invariants this reproduction's
correctness rests on — determinism of the cycle-level simulation,
stability of the cached-result schema, and the phase/config contracts —
enforced *before* any cycle executes instead of after a violation has
poisoned a sweep.  Run it as::

    python -m repro.analysis src/                 # whole tree
    python -m repro.analysis --format json src/   # machine-readable
    python -m repro.analysis --select DET001 file.py

Rules (see DESIGN.md §S22 and §S27 for the full semantics):

========== ==========================================================
CACHE001   SimulationConfig reads reachable from JobSpec.canonical()
CFG001     config dataclass / CLI flags / JobSpec canonical keys sync
DET001     no wall-clock/entropy sources in simulation hot paths
DET002     no dict/set iteration without ``sorted(...)`` in hot paths
DET003     RNG streams must come from :func:`repro.rng.child_rng`
DET004     numpy sort/argsort in hot paths must pass ``kind="stable"``
PHASE001   pipeline phases only write declared simulator attributes
REG001     CLI choices / registry tables / recipe validators coherent
RNG001     child_rng labels are unique literals across SIM_PACKAGES
RNG002     no RNG draw executes under a backend-conditional branch
SCHEMA001  serialized-result field set pinned to a version-keyed hash
========== ==========================================================

Suppress a deliberate violation inline with ``# repro: noqa[RULE]``;
opt a file outside ``repro/{network,sim,cpu,control,traffic}`` into the
hot-path rules with a ``# repro: analysis-scope=sim`` header comment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.cachekey import Cache001KeyCompleteness
from repro.analysis.configdrift import Cfg001ConfigDrift
from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    SIM_PACKAGES,
    run_analysis,
)
from repro.analysis.determinism import (
    Det001WallClock,
    Det002UnsortedIteration,
    Det003RngProvenance,
    Det004UnstableSort,
)
from repro.analysis.phasecontract import Phase001PhaseWrites
from repro.analysis.registry import Reg001RegistryCoherence
from repro.analysis.rnglineage import (
    Rng001LabelLineage,
    Rng002BackendConditionalDraw,
)
from repro.analysis.sarif import sarif_document, to_sarif
from repro.analysis.schema import Schema001ResultFieldHash, field_hash

__all__ = [
    "ALL_RULES",
    "AnalysisCache",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "SIM_PACKAGES",
    "analyze",
    "field_hash",
    "run_analysis",
    "sarif_document",
    "to_sarif",
]


def all_rules() -> Tuple[Rule, ...]:
    """Fresh instances of every registered rule, ordered by id."""
    rules: Tuple[Rule, ...] = (
        Cache001KeyCompleteness(),
        Cfg001ConfigDrift(),
        Det001WallClock(),
        Det002UnsortedIteration(),
        Det003RngProvenance(),
        Det004UnstableSort(),
        Phase001PhaseWrites(),
        Reg001RegistryCoherence(),
        Rng001LabelLineage(),
        Rng002BackendConditionalDraw(),
        Schema001ResultFieldHash(),
    )
    return rules


#: Default rule set (id-ordered); the CLI and tests run these.
ALL_RULES: Tuple[Rule, ...] = all_rules()

#: Every selectable rule id.
RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)


def analyze(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    exclude: Optional[Sequence[str]] = None,
    cache: Optional[AnalysisCache] = None,
) -> List[Finding]:
    """Run the full registered rule set over *paths*."""
    return run_analysis(
        paths, ALL_RULES, select=select, ignore=ignore,
        exclude=exclude, cache=cache,
    )

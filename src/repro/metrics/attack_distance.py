"""Attack-distance metrics (Definition 2.4, §6.2).

Attack distance is the number of static IR instructions between where a
technique's protection starts and the branch predicate.  Three
distances are compared:

- **input channel**: how far the attacker's entry point is from the
  branch (the minimum the defense must cover);
- **DFI**: the length of DFI's backward slice, which terminates at
  pointer arithmetic and field-insensitive accesses;
- **Pythia**: the length of the full backward slice (PA protection of
  every variable encountered lets it keep slicing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.report import build_security_report
from ..core.framework import PreparedModule
from ..ir.module import Module


@dataclass
class AttackDistanceRow:
    """Average distances over the IC-affected branches of one module."""

    name: str
    ic_distance: float
    dfi_distance: float
    pythia_distance: float
    affected_branches: int

    @property
    def pythia_exceeds_ic(self) -> bool:
        """Protection must start at least as far out as the attacker."""
        return self.pythia_distance >= self.ic_distance

    @property
    def pythia_exceeds_dfi(self) -> bool:
        return self.pythia_distance >= self.dfi_distance


def attack_distance_row(module: Module, name: str) -> AttackDistanceRow:
    """Compute the attack-distance row for one module."""
    report = PreparedModule(module).report
    security = build_security_report(report)
    affected = [v for v in security.verdicts if v.ic_affected]
    return AttackDistanceRow(
        name=name,
        ic_distance=security.mean_ic_distance,
        dfi_distance=security.mean_dfi_distance,
        pythia_distance=security.mean_pythia_distance,
        affected_branches=len(affected),
    )

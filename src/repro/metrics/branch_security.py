"""Branch-security metrics: Fig. 7(b) and the §6.2 security comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.report import SecurityReport, build_security_report
from ..core.framework import PreparedModule
from ..ir.module import Module


@dataclass
class BranchSecurityRow:
    """One benchmark's row in the Fig. 7(b) comparison."""

    name: str
    total_branches: int
    pythia_secured: float
    dfi_secured: float
    pythia_extra_branches: int
    ic_affected_fraction: float

    @property
    def pythia_fully_secures(self) -> bool:
        return self.pythia_secured >= 1.0

    @property
    def dfi_fully_secures(self) -> bool:
        return self.dfi_secured >= 1.0

    @property
    def advantage(self) -> float:
        """Pythia's protection advantage over DFI in percentage points."""
        return self.pythia_secured - self.dfi_secured


def branch_security_row(module: Module, name: str) -> BranchSecurityRow:
    """Compute the branch-security row for one module."""
    report = PreparedModule(module).report
    security = build_security_report(report)
    affected = sum(1 for v in security.verdicts if v.ic_affected)
    total = max(1, security.total_branches)
    return BranchSecurityRow(
        name=name,
        total_branches=security.total_branches,
        pythia_secured=security.pythia_secured_fraction,
        dfi_secured=security.dfi_secured_fraction,
        pythia_extra_branches=security.pythia_extra_branches,
        ic_affected_fraction=affected / total,
    )

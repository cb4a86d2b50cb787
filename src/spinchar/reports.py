"""Verification reports: one JSON object per (claim, params) job.

verdict is "pass" exactly when the mismatch list is empty.  runtime_ms is
null unless timing was requested, so that re-running a command yields
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class Report:
    claim: str
    params: dict
    lhs: str = ""
    rhs: str = ""
    mismatches: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    runtime_ms: float = None

    @property
    def verdict(self) -> str:
        return "pass" if not self.mismatches else "fail"

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "verdict": self.verdict}, sort_keys=True)

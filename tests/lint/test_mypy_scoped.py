"""Scoped ``mypy --strict`` over the accounting-critical modules.

Skipped when mypy is not installed (it is not a runtime dependency);
the CI lint job installs it and runs this check both here and directly.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

MYPY_SCOPE = [
    "src/repro/privacy",
    "src/repro/pricing",
    "src/repro/core/policy.py",
    "src/repro/core/settle.py",
    "src/repro/cluster/planning.py",
    "src/repro/streaming",
    "src/repro/workers",
    "src/repro/serving",
    "src/repro/durability",
    "src/repro/resilience",
]

pytest.importorskip("mypy", reason="mypy is not installed; CI's lint job runs this")


def test_strict_mypy_on_privacy_pricing_policy():
    result = subprocess.run(
        [
            sys.executable, "-m", "mypy",
            "--strict", "--follow-imports=silent", "--pretty",
            *MYPY_SCOPE,
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"MYPYPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, f"mypy --strict failed:\n{result.stdout}{result.stderr}"

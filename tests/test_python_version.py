"""The package and its tests parse as the oldest Python that pyproject.toml
admits.

The installed interpreter may be newer than the declared minimum, so
running the suite does not check the claim by itself. ast.parse with
feature_version rejects grammar newer than the given version, such as
`except*` (3.11) or `type X = ...` (3.12), on any later interpreter.
tomllib is itself 3.11+, so the minimum is read with a regex.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_minimum_python() -> None:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python minimum"
    minimum = int(match[1]), int(match[2])
    sources = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
    assert ROOT / "src" / "proofsketch" / "cli.py" in sources
    for path in sources:  # a SyntaxError names the file and line
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=minimum)

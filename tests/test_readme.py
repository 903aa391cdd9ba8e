"""The README's "Library use" block runs, and states the values it computes."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_and_states_its_values():
    """Every expression line with a trailing comment states its value: a literal, or a float
    prefix ending in "..." that the value rounds to."""
    source = _library_use_block()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    checked = []
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if not comment or not isinstance(ast.parse(code.strip() or "pass").body[0], ast.Expr):
            continue
        value = eval(code, namespace)
        if comment.endswith("..."):
            digits = comment[:-3]
            assert round(value, len(digits.split(".")[1])) == float(digits), line
        else:
            assert value == ast.literal_eval(comment), line
        checked.append(code.strip())
    assert checked == [
        "result.label.value",
        "result.design.points",
        "d_efficiency(model, beta, result.design, design)",
    ]

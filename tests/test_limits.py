import ast
import re
from pathlib import Path

import pytest

from bosonbudget import ResourceLimitError, limits

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "bosonbudget"


def _cap_breaches(path: Path) -> list[str]:
    """What in one module keeps a cap outside ``limits``: environment reads, MAX constants, own refusals."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"line {node.lineno}: reads os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.append(f"line {node.lineno}: imports from os")
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(
            node.exc.func, "id", None
        ) == "ResourceLimitError":
            found.append(f"line {node.lineno}: raises ResourceLimitError")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.search(r"(^|_)MAX(_|$)", target.id):
                found.append(f"line {node.lineno}: defines {target.id}")
    return found


def test_caps_live_only_in_limits():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "limits.py")
    assert len(modules) > 10
    breaches = {p.name: _cap_breaches(p) for p in modules}
    assert {name: found for name, found in breaches.items() if found} == {}
    # the checker itself sees what it looks for
    assert len(_cap_breaches(_PACKAGE / "limits.py")) == 2  # os.environ and the one raise


def _readme_limits() -> dict[str, tuple[int, str]]:
    """The table of README's "Limits" section: limit -> (value, unit)."""
    readme = (_ROOT / "README.md").read_text()
    section = readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {name.strip("| `"): (int(re.match(r"[\d,]+", value).group().replace(",", "")), unit)
            for name, unit, value, _ in rows}


def test_readme_limit_table_matches_limits():
    assert _readme_limits() == {name: (limit.value, limit.unit) for name, limit in limits.LIMITS.items()}


def test_check_names_the_limit_and_the_env_override(monkeypatch):
    limits.check("outcomes", 2_000_000, "table")  # at the cap: accepted
    with pytest.raises(ResourceLimitError,
                       match="^table: 2000001 outcomes, over the 'outcomes' limit; capped at 2000000 outcomes$"):
        limits.check("outcomes", 2_000_001, "table")
    monkeypatch.setenv("BOSONBUDGET_MAX_N", "12")
    assert limits.cap("permanent_order") == 12
    assert limits.cap("naive_order") == 9  # the variable overrides one cap only
    limits.check_slot_permanents(12, 1 << 19)  # 2^30 Gray steps: at the cap
    with pytest.raises(ResourceLimitError, match="'gray_steps' limit"):
        limits.check_slot_permanents(12, (1 << 19) + 1)
    with pytest.raises(ResourceLimitError, match="slot matrix: 13 rows, over the 'permanent_order' limit"):
        limits.check_slot_permanents(13, 1)

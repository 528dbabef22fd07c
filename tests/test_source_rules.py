"""Source rules for the scenemerge package, checked on its syntax trees.

No correctness check may rely on `assert`, which `python -O` strips, and no
handler may catch every exception (a bare `except:`, `except Exception` or
`except BaseException`), which would count a real bug as the failure it
meant to absorb.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenemerge"
BROAD = {"Exception", "BaseException"}


def _violations(source: str, name: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            out.append(f"{name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in BROAD) for t in caught):
                out.append(f"{name}:{node.lineno}: broad except handler")
    return out


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("assert x > 0", True),
        ("try:\n    f()\nexcept:\n    pass", True),
        ("try:\n    f()\nexcept Exception:\n    pass", True),
        ("try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass", True),
        ("try:\n    f()\nexcept (ValueError, KeyError):\n    pass", False),
        ("if x <= 0:\n    raise ValueError(x)", False),
    ],
)
def test_rule_detects_violations(source, flagged):
    assert bool(_violations(source, "snippet.py")) == flagged


def test_package_follows_rules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [v for path in modules for v in _violations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []

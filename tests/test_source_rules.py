"""Source rules for the scenemerge package, checked on its syntax trees.

No correctness check may rely on `assert`, which `python -O` strips, and no
handler may catch every exception (a bare `except:`, `except Exception` or
`except BaseException`), which would count a real bug as the failure it
meant to absorb. Every top-level function, class and assigned name other
than a dunder must be read (as a name or an attribute) somewhere in the
package, and every method or property other than a dunder must be named by
an attribute somewhere in the package, unless KEPT_UNREFERENCED gives the
reason it stays (members are listed as Class.member); assigning a name
does not read it. An attribute read off a name imported from
outside the package (np.degrees, sparse.diags) belongs to that import, so
it keeps no package member alive. Only io_formats.py, which reads and
writes every JSON file, and cli.py may import json, and cli.py may use it
only as print(json.dumps(...)) to stdout. Only io_formats.py may call what
reads or writes a file: open(), a path's read_bytes/read_text/write_bytes/
write_text, numpy's load*/save*, fromfile and tofile. No other module
imports an underscore-prefixed name from io_formats.py, so the JSON field
readers stay behind its record path. Only the functions
in ROUNDING_FUNCTIONS (module:function, or module:Class.method) may name
rint, each for the reason given, so the rule that turns a subpixel match
coordinate into a map pixel has one home.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenemerge"
BROAD = {"Exception", "BaseException"}
JSON_MODULES = ("io_formats.py", "cli.py")
FILE_IO_MODULE = "io_formats.py"
FILE_IO_ATTRS = {"open", "read_bytes", "read_text", "write_bytes", "write_text", "fromfile", "tofile"}
ROUNDING_FUNCTIONS = {
    "alignment.py:MergedGeometry.pixel_keys": "the one rule from a subpixel match coordinate to a map pixel",
    "synthetic.py:_splat": "rendering: the pixel a projected landmark lands on",
}
KEPT_UNREFERENCED = {
    "ba_loss": "test reference for the analytic gradient",
    "ba_gradients": "test reference for the analytic gradient",
    "reprojection_errors": "read by bench/spans.py",
    "random_rotation": "test fixture",
    "render_depth": "test fixture",
    "Sim3Transform.inverse": "test fixture",
    "SyntheticScene.diameter": "test fixture",
}


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


def _external_imports(tree) -> set[str]:
    """Names an absolute import binds: modules and objects from outside the package."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }


def _attribute_root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and non-dunder assigned names that no
    Name node reads and no Attribute node names, and non-dunder methods and
    properties (Class.member) no Attribute node names; attributes of
    externally imported names do not count."""
    defined, members, names, attrs = {}, {}, set(), set()
    for name, source in sources.items():
        tree = ast.parse(source, filename=name)
        external = _external_imports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{name}:{node.lineno}"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and not _dunder(leaf.id):
                            defined[leaf.id] = f"{name}:{node.lineno}"
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(member.name):
                    members[f"{node.name}.{member.name}"] = (member.name, f"{name}:{member.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and _attribute_root(node) not in external:
                attrs.add(node.attr)
    found = [f"{where}: {n}" for n, where in defined.items() if n not in names | attrs]
    found += [f"{where}: {n}" for n, (attr, where) in members.items() if attr not in attrs]
    return sorted(found)


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


@pytest.mark.parametrize(
    "sources, flagged",
    [
        ({"a.py": "def f():\n    pass\n\ndef g():\n    return f()"}, ["a.py:4: g"]),
        ({"a.py": "class A:\n    pass", "b.py": "from .a import A\nx = A()"}, ["b.py:2: x"]),
        ({"a.py": "def f():\n    pass", "b.py": "from . import a\ny = a.f"}, ["b.py:2: y"]),
        ({"a.py": "def f():\n    pass", "b.py": "from .a import f"}, ["a.py:1: f"]),
        ({"a.py": "class A:\n    def unused_method(self):\n        pass\n\nA()"}, ["a.py:2: A.unused_method"]),
        ({"a.py": "class A:\n    @property\n    def p(self):\n        pass\n\ny = A().p"}, ["a.py:6: y"]),
        ({"a.py": "class A:\n    def __len__(self):\n        return 0\n\nA()"}, []),
        ({"a.py": "class A:\n    def m(self):\n        pass\n\nm = A()"}, ["a.py:2: A.m", "a.py:5: m"]),
        (
            {"a.py": "import numpy as np\n\nclass A:\n    def degrees(self):\n        pass\n\nA()\nnp.degrees(1)"},
            ["a.py:4: A.degrees"],
        ),
        (
            {"a.py": "class A:\n    def eye(self):\n        pass\n\nA()", "b.py": "from scipy import sparse\nsparse.eye"},
            ["a.py:2: A.eye"],
        ),
        ({"a.py": "_CHUNK = 65_536\n\ndef f():\n    return 1\n\nf()"}, ["a.py:1: _CHUNK"]),
        ({"a.py": "__all__ = ['f']\nLIMIT = 3\n\ndef f():\n    return LIMIT\n\nf()"}, []),
        ({"a.py": "A, (B, C) = 1, (2, 3)\nx: int = A\nprint(B)"}, ["a.py:1: C", "a.py:2: x"]),
        ({"a.py": "LIMIT = 3", "b.py": "from . import a\nprint(a.LIMIT)"}, []),
        ({"a.py": "N = 1\n\ndef f():\n    global N\n    N = 2\n\nf()"}, ["a.py:1: N"]),
    ],
)
def test_dead_code_rule(sources, flagged):
    assert _unreferenced(sources) == flagged


def test_package_has_no_dead_code():
    found = _unreferenced({path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))})
    names = [entry.rsplit(": ", 1)[1] for entry in found]
    assert [entry for entry, name in zip(found, names) if name not in KEPT_UNREFERENCED] == []
    assert sorted(names) == sorted(KEPT_UNREFERENCED), "a KEPT_UNREFERENCED name is now referenced or gone"


def _json_violations(source: str, name: str) -> list[str]:
    """Imports of json outside JSON_MODULES, and in cli.py any import other
    than `import json` or any use other than print(json.dumps(...)) to stdout."""
    tree = ast.parse(source, filename=name)
    out = []
    for node in ast.walk(tree):
        imported = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        from_json = isinstance(node, ast.ImportFrom) and node.module == "json"
        if from_json or "json" in imported and name not in JSON_MODULES:
            out.append(f"{name}:{node.lineno}: imports json")
    if name != "cli.py":
        return out
    printed = {
        id(arg.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
        and not node.keywords
        for arg in node.args
        if isinstance(arg, ast.Call)
    }
    out += [
        f"{name}:{node.lineno}: json.{node.attr} outside print(json.dumps(...))"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json"
        and not (node.attr == "dumps" and id(node) in printed)
    ]
    return out


@pytest.mark.parametrize(
    "source, name, flagged",
    [
        ("import json\njson.loads(s)", "pipeline.py", ["pipeline.py:1: imports json"]),
        ("import json\njson.loads(s)", "io_formats.py", []),
        ("from json import dumps", "io_formats.py", ["io_formats.py:1: imports json"]),
        ("import json\nprint(json.dumps(d, indent=2))", "cli.py", []),
        ("import json\nx = json.loads(s)", "cli.py", ["cli.py:2: json.loads outside print(json.dumps(...))"]),
        ("import json\nf.write(json.dumps(d))", "cli.py", ["cli.py:2: json.dumps outside print(json.dumps(...))"]),
        (
            "import json\nprint(json.dumps(d), file=sys.stderr)",
            "cli.py",
            ["cli.py:2: json.dumps outside print(json.dumps(...))"],
        ),
    ],
)
def test_json_rule(source, name, flagged):
    assert _json_violations(source, name) == flagged


def test_package_reads_and_writes_json_in_io_formats():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _json_violations(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def _file_io_violations(source: str, name: str) -> list[str]:
    """Calls outside FILE_IO_MODULE that read or write a file: open(), a
    FILE_IO_ATTRS method, or np.load*/np.save*."""
    if name == FILE_IO_MODULE:
        return []
    out = []
    for node in ast.walk(ast.parse(source, filename=name)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name):
            flagged = func.id == "open"
        elif isinstance(func, ast.Attribute):
            numpy_io = _attribute_root(func) == "np" and func.attr.startswith(("load", "save"))
            flagged = func.attr in FILE_IO_ATTRS or numpy_io
        else:
            flagged = False
        if flagged:
            out.append(f"{name}:{node.lineno}: {ast.unparse(func)}")
    return out


@pytest.mark.parametrize(
    "source, name, flagged",
    [
        ("with open(p, 'wb') as f:\n    f.write(b)", "pipeline.py", ["pipeline.py:1: open"]),
        ("Path(p).write_text(s)", "pipeline.py", ["pipeline.py:1: Path(p).write_text"]),
        ("raw = p.read_bytes()", "cli.py", ["cli.py:1: p.read_bytes"]),
        ("np.save(p, a)\nx = np.loadtxt(p)", "ba.py", ["ba.py:1: np.save", "ba.py:2: np.loadtxt"]),
        ("a.tofile(f)\nb = np.fromfile(f)", "ba.py", ["ba.py:1: a.tofile", "ba.py:2: np.fromfile"]),
        ("with open(p, 'wb') as f:\n    f.write(Path(q).read_bytes())", "io_formats.py", []),
        ("n = np.linalg.norm(a)\nf.write(b)\nroot.mkdir()", "pipeline.py", []),
    ],
)
def test_file_io_rule(source, name, flagged):
    assert _file_io_violations(source, name) == flagged


def test_package_reads_and_writes_files_in_io_formats():
    found = [
        v
        for path in sorted(PACKAGE.glob("*.py"))
        for v in _file_io_violations(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def _private_io_imports(source: str, name: str) -> list[str]:
    """Underscore-prefixed names a module other than FILE_IO_MODULE imports from it."""
    if name == FILE_IO_MODULE:
        return []
    return [
        f"{name}:{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.ImportFrom) and node.module in ("io_formats", "scenemerge.io_formats")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "source, name, flagged",
    [
        ("from .io_formats import _read_json, read_plan", "cli.py", ["cli.py:1: _read_json"]),
        (
            "from .io_formats import (\n    _int,\n    _value as v,\n)",
            "pipeline.py",
            ["pipeline.py:1: _int", "pipeline.py:1: _value"],
        ),
        ("from scenemerge.io_formats import _check_version", "pipeline.py", ["pipeline.py:1: _check_version"]),
        ("from .io_formats import read_document, write_json", "pipeline.py", []),
        ("from .geometry import _helper", "pipeline.py", []),
        ("from .io_formats import _value", "io_formats.py", []),
    ],
)
def test_private_io_import_rule(source, name, flagged):
    assert _private_io_imports(source, name) == flagged


def test_package_imports_only_public_io_formats_names():
    found = [
        v
        for path in sorted(PACKAGE.glob("*.py"))
        for v in _private_io_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def _rint_sites(source: str, name: str) -> list[tuple[str, int, str]]:
    """Every use of rint (an attribute such as np.rint, or an imported
    name) as (where, line, code): where is the function it sits in, as
    module:qualified name, or the module alone at top level."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if ":" in where else f"{where}:{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "rint" or isinstance(node, ast.ImportFrom) and any(
            alias.name == "rint" for alias in node.names
        ):
            out.append((where, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source, filename=name), name)
    return out


def _rint_uses(source: str, name: str) -> list[str]:
    """Uses of rint outside ROUNDING_FUNCTIONS."""
    sites = _rint_sites(source, name)
    return [f"{where}:{line}: {code}" for where, line, code in sites if where not in ROUNDING_FUNCTIONS]


@pytest.mark.parametrize(
    "source, name, flagged",
    [
        ("uv = np.rint(px)", "tracking.py", ["tracking.py:1: np.rint"]),
        ("uv = numpy.rint(px).astype(int)", "ba.py", ["ba.py:1: numpy.rint"]),
        ("from numpy import rint", "tracking.py", ["tracking.py:1: from numpy import rint"]),
        ("uv = np.rint(px)", "alignment.py", ["alignment.py:1: np.rint"]),
        ("uv = np.rint(px)", "synthetic.py", ["synthetic.py:1: np.rint"]),
        ("uv = np.round(px)\nn = round(x)", "tracking.py", []),
        (
            "class MergedGeometry:\n    def pixel_keys(self, px):\n        return np.rint(px)",
            "alignment.py",
            [],
        ),
        (
            "class MergedGeometry:\n    def _pixel_index(self, px):\n        return np.rint(px)",
            "alignment.py",
            ["alignment.py:MergedGeometry._pixel_index:3: np.rint"],
        ),
        ("def pixel_keys(px):\n    return np.rint(px)", "alignment.py", ["alignment.py:pixel_keys:2: np.rint"]),
        ("def _splat(uv):\n    return np.rint(uv)", "synthetic.py", []),
        ("def _splat(uv):\n    return np.rint(uv)", "tracking.py", ["tracking.py:_splat:2: np.rint"]),
        (
            "def _splat(uv):\n    def inner(x):\n        return np.rint(x)\n    return inner(uv)",
            "synthetic.py",
            ["synthetic.py:_splat.inner:3: np.rint"],
        ),
    ],
)
def test_rounding_rule(source, name, flagged):
    assert _rint_uses(source, name) == flagged


def test_package_rounds_pixels_in_one_place():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert [v for name, source in sources.items() for v in _rint_uses(source, name)] == []
    rounding = {where for name, source in sources.items() for where, _, _ in _rint_sites(source, name)}
    assert rounding == set(ROUNDING_FUNCTIONS), "a ROUNDING_FUNCTIONS entry no longer rounds"

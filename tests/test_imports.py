"""Every import in the package and the tests is used, every private
module-level name in the package is read, and every f-string has a
placeholder.

An import counts as used when the module reads its name anywhere (a
name, or the base of an attribute chain) or lists it in ``__all__``. A
private name (``_x``, not a dunder) defined at module level by ``def``,
``class`` or assignment counts as read when some module of the package
loads it as a name or as an attribute, so a helper whose last caller is
gone is found. An f-string counts as having a placeholder when some
``{...}`` field of it, not only its format specs, holds an expression.
No file of the package and not the README cites a ROADMAP item by its
number, which changes when the ROADMAP is renumbered.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict) -> list:
    """``(module, line, name)`` of the private module-level names no source reads."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stores = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                names = [n.id for n in stores if isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_unread_private_names_are_found():
    sources = {
        "a": "_X = 1\n_y, _z = 2, 3\ndef _f():\n    return _y\nclass _C:\n    _hidden = 0\n",
        "b": "import a\na._f()\n__all__ = []\n",
    }
    assert unread_private_names(sources) == [("a", 1, "_X"), ("a", 2, "_z"), ("a", 5, "_C")]


def test_no_unread_private_names():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    found = [f"{module}:{line}: {name}" for module, line, name in unread_private_names(sources)]
    assert not found, "private names nothing reads:\n" + "\n".join(found)


def placeholderless_fstrings(source: str) -> list:
    """Lines of the f-strings with no ``{...}`` field (a format spec is not one)."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(part, ast.FormattedValue) for part in node.values)
    )


def test_placeholderless_fstrings_are_found():
    source = 'a = f"plain"\nb = f"{a:.6g} {a!r:>{9}}"\nc = "x" f"y"\nd = f"x" "{y}"\n'
    assert placeholderless_fstrings(source) == [1, 3, 4]


def test_no_placeholderless_fstrings():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}" for path in files for line in placeholderless_fstrings(path.read_text())
    ]
    assert not found, "f-strings with no placeholder:\n" + "\n".join(found)


ROADMAP_NUMBER = re.compile(r"ROADMAP\s+items?\s+\d", re.IGNORECASE)


def test_roadmap_number_citations_are_found():
    text = "see ROADMAP\n    item 2; ROADMAP items 3 and 4; the ROADMAP item on Green's identity"
    assert len(ROADMAP_NUMBER.findall(text)) == 2


def test_no_roadmap_item_cited_by_number():
    files = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "README.md"]
    found = [str(path.relative_to(ROOT)) for path in files if ROADMAP_NUMBER.search(path.read_text(encoding="utf-8"))]
    assert not found, "ROADMAP items cited by number in:\n" + "\n".join(found)

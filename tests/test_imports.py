"""Static checks over the source: no unused imports, no dangling ``__all__`` entries,
no third-party import that ``pyproject.toml`` does not declare, and no syntax
newer than the Python that its ``requires-python`` names as the minimum.

They work on the syntax tree and the installed packages' metadata, so they
need nothing beyond the standard library and run no module code.
"""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flocksim"
CHECKED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
# The (major, minor) minimum of requires-python; read by pattern, since tomllib is newer than 3.10.
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(),
                                 re.M).groups()))


def _parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``; syntax newer than Python ``FLOOR`` raises ``SyntaxError``."""
    return ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def _ids(paths):
    return [str(p.relative_to(ROOT)) for p in paths]


def _literal_all(tree: ast.Module) -> list[str]:
    """The strings of a module-level ``__all__`` list or tuple literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return []


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; star and ``__future__`` imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _bound_at_top_level(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
    return names


def test_floor_parse_rejects_newer_syntax():
    assert FLOOR == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups: Python 3.11
    if sys.version_info >= (3, 11):
        ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)


@pytest.mark.parametrize("path", CHECKED, ids=_ids(CHECKED))
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_literal_all(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


SUBMODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SUBMODULES, ids=_ids(SUBMODULES))
def test_all_entries_are_bound_at_top_level(path):
    tree = _parse(path)
    unbound = sorted(set(_literal_all(tree)) - _bound_at_top_level(tree))
    assert not unbound, f"{path.name} lists names in __all__ that it never binds: {unbound}"


def _requirement_names() -> set[str]:
    """The normalized distribution names in ``pyproject.toml``'s ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {_normalized(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in project["dependencies"]}


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=_ids(PACKAGE_FILES))
def test_third_party_imports_are_declared_dependencies(path):
    tree = _parse(path)
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    third_party = {m.partition(".")[0] for m in modules} - set(sys.stdlib_module_names) - {"flocksim"}
    # An import name maps to the distributions that install it (yaml -> PyYAML).
    distributions = packages_distributions()
    declared = _requirement_names()
    undeclared = sorted(
        top for top in third_party
        if not declared & {_normalized(d) for d in distributions.get(top, [top])}
    )
    assert not undeclared, f"{path.name} imports {undeclared}, which pyproject.toml's dependencies do not name"

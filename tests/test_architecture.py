"""The package graph follows one declared layer order (DESIGN §6).

Every module under ``src/repro`` is parsed (never imported); each
runtime ``repro.*`` import — module level or inside a function, but not
under ``if TYPE_CHECKING:`` — is an edge between two top-level
packages.  An edge must point strictly down :data:`LAYERS` unless
:data:`ALLOWED` names it, and every :data:`ALLOWED` entry must still
occur, so the allowlist can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Bottom to top.  A package may import only from strictly lower
#: layers.  The root package (``repro/__init__.py``, which holds only
#: ``__version__``) sits below them all and imports nothing.
LAYERS = (
    ("isa", "branch", "obs"),
    ("program", "caches"),
    ("engine",),
    ("trace",),
    ("static",),
    ("workloads", "preprocess", "core"),
    ("frontends",),
    ("vector",),
    ("sim",),
    ("processor",),
    ("telemetry",),
    ("runner",),
    ("check", "analysis"),
    ("triage",),
    ("api",),
    ("cli",),
    ("__main__",),
)
ROOT = "repro"
RANK = {ROOT: 0, **{name: rank for rank, layer in enumerate(LAYERS, 1)
                    for name in layer}}

#: The upward edges that stay, with the reason each one does.
ALLOWED = {
    ("runner", "check"): "execute_spec runs kind='check' specs, and "
                         "check.fuzz drives ExperimentRunner",
    ("vector", "sim"): "run_frontend_batch; goes when repro.vector folds "
                       "into repro.sim, which needs a perfbench change",
}


def _package(name: str) -> str:
    """The top-level package a ``repro.*`` dotted name belongs to."""
    parts = name.split(".")
    if len(parts) > 1 and ((SRC / parts[1]).is_dir()
                           or (SRC / f"{parts[1]}.py").is_file()):
        return parts[1]
    return ROOT


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


class _Imports(ast.NodeVisitor):
    """Every runtime ``repro`` import of one module, as (name, line)."""

    def __init__(self, module: str, is_package: bool) -> None:
        parts = module.split(".")
        self.package = parts if is_package else parts[:-1]
        self.found: list[tuple[str, int]] = []

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking(node.test):
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            anchor = self.package[:len(self.package) - node.level + 1]
            base = ".".join(anchor + ([base] if base else []))
        for alias in node.names:
            self._add(f"{base}.{alias.name}", node.lineno)

    def _add(self, name: str, line: int) -> None:
        if name == ROOT or name.startswith(ROOT + "."):
            self.found.append((name, line))


def _edges() -> Iterator[tuple[str, str, str]]:
    """(source package, target package, ``path:line``) per import."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join((ROOT, *rel.with_suffix("").parts))
        is_package = rel.name == "__init__.py"
        if is_package:
            module = module[:-len(".__init__")]
        visitor = _Imports(module, is_package)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        source = _package(module)
        for name, line in visitor.found:
            target = _package(name)
            if target != source:
                yield source, target, f"src/repro/{rel.as_posix()}:{line}"


def test_every_package_has_a_layer():
    packages = {path.stem for path in SRC.iterdir()
                if (path.is_dir() and (path / "__init__.py").is_file())
                or (path.suffix == ".py" and path.stem != "__init__")}
    assert sorted(packages - set(RANK)) == []
    assert sorted(set(RANK) - packages - {ROOT}) == []


def test_imports_point_down_the_layers():
    upward = list(dict.fromkeys(
        f"{site}: {source} (layer {RANK[source]}) imports "
        f"{target} (layer {RANK[target]})"
        for source, target, site in _edges()
        if RANK[target] >= RANK[source] and (source, target) not in ALLOWED))
    assert not upward, "imports against the layer order:\n" \
        + "\n".join(upward)


def test_allowlist_entries_still_occur():
    present = {(source, target) for source, target, _ in _edges()}
    stale = [f"{source} -> {target}" for source, target in ALLOWED
             if (source, target) not in present]
    assert not stale, "allowlisted edges no longer occur; delete them " \
        "from ALLOWED:\n" + "\n".join(stale)

"""DPL005 ``explicit-exports`` — ``__all__`` is the audited API surface.

The privacy review boundary of each package is its ``__all__``: auditors
check exactly the names exported there. A missing ``__all__`` makes
``from repro.mechanisms import *`` drag in submodules and helpers; a stale
one either advertises names that do not exist (import-time breakage for
consumers) or hides public objects from the audit surface.

A package that imports its exports lazily (PEP 562) binds them through a
literal ``_LAZY_EXPORTS = {"Name": "repro.subpackage", ...}`` table read by
a module-level ``__getattr__``. The table's keys count as bound names, and
each key must itself be listed in ``__all__``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, public_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


def _literal_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    """The ``__all__`` assignment node and its entries, if present."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    entries = [
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
                    return node, entries
                return node, []
    return None


#: The module-level dict literal mapping lazily exported names to modules.
LAZY_TABLE = "_LAZY_EXPORTS"


def _lazy_keys(tree: ast.Module) -> list[str]:
    """String keys of the literal lazy-export table.

    Empty unless the module also defines ``__getattr__``, since without it
    no key resolves.
    """
    if not any(
        isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        for node in tree.body
    ):
        return []
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == LAZY_TABLE
                for target in node.targets
            )
            and isinstance(node.value, ast.Dict)
        ):
            return [
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
    return []


def _bound_names(tree: ast.Module) -> set[str]:
    """All names bound at module top level (defs, classes, imports,
    simple assignments)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


@register
class ExplicitExportsRule(Rule):
    """``__init__.py`` must declare ``__all__`` matching its public names."""

    id = "DPL005"
    name = "explicit-exports"
    description = (
        "Every package __init__.py declares __all__, every entry is bound "
        "(or a key of its lazy-export table), and every public "
        "imported/defined/lazy name is listed."
    )
    rationale = (
        "__all__ is the audited privacy-review surface: stale entries break "
        "star-imports, and unlisted public names escape review."
    )
    default_severity = Severity.ERROR
    default_options = {
        # Names a package may bind publicly without exporting (submodule
        # imports made for side effects).
        "ignored_names": (),
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for missing, stale, or drifted __all__."""
        if not ctx.is_package_init:
            return
        found = _literal_all(ctx.tree)
        if found is None:
            yield self.finding(
                ctx,
                None,
                "package __init__.py must declare a literal __all__ listing "
                "its public API",
            )
            return
        node, entries = found
        lazy = set(_lazy_keys(ctx.tree))
        bound = _bound_names(ctx.tree)
        public = {name for name in bound if public_name(name)} | lazy
        ignored = set(self.option(ctx, "ignored_names"))
        for phantom in sorted(set(entries) - bound - lazy):
            yield self.finding(
                ctx,
                node,
                f"__all__ lists {phantom!r} which is not bound in this "
                "module (stale export)",
            )
        for hidden in sorted(public - set(entries) - ignored - {"annotations"}):
            yield self.finding(
                ctx,
                node,
                f"public name {hidden!r} is bound here but missing from "
                "__all__ (unaudited export)",
            )
        duplicates = {e for e in entries if entries.count(e) > 1}
        for duplicate in sorted(duplicates):
            yield self.finding(
                ctx, node, f"__all__ lists {duplicate!r} more than once"
            )

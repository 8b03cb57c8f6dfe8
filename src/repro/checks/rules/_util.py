"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast

__all__ = ["is_self_attr", "self_attr_base", "names_from_import"]


def is_self_attr(node: ast.AST) -> bool:
    """True for a plain ``self.<attr>`` access."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def self_attr_base(node: ast.AST) -> str | None:
    """Attribute name of the ``self.<attr>`` at the base of a target.

    Handles ``self.x``, ``self.x[i]`` and ``self.x.y`` write targets,
    returning ``"x"``; None when the target is not rooted at ``self``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if is_self_attr(node):
            return node.attr
        node = node.value
    return None


def names_from_import(nodes: list[ast.AST], module: str) -> set[str]:
    """Local names bound by ``from <module> import ...`` statements."""
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names

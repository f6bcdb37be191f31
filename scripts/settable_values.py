#!/usr/bin/env python3
"""Count the settable values of the public API under ``src/repro``.

A settable value is something a caller can set by name:

* every parameter of a public function or method that can be passed by
  keyword (positional-or-keyword and keyword-only), without ``self``,
  ``cls``, ``*args`` and ``**kwargs``;
* every field of a public dataclass.

Public means: in a module whose path under ``src/repro`` has no part
starting with ``_`` (package ``__init__`` modules count); a module-level
function or class whose name does not start with ``_``; a method of a
public class whose name does not start with ``_``, plus its ``__init__``
and ``__call__``; a dataclass field whose name does not start with ``_``.
Not counted: property accessors, dataclass fields declared ``ClassVar`` or
``field(init=False)``, and functions nested in functions.

Stdlib (``ast``) only; nothing is imported.  Not a CI step.  Usage, from
the repository root::

    python3 scripts/settable_values.py               # the total
    python3 scripts/settable_values.py --list        # one line per value
    python3 scripts/settable_values.py --root ../other-checkout
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Iterator, List

ROOT = Path(__file__).resolve().parents[1]
#: Dunder methods whose parameters callers pass by name.
CALLED_DUNDERS = ("__init__", "__call__")


def _is_public_module(relative: Path) -> bool:
    parts = relative.with_suffix("").parts
    return not any(
        part.startswith("_") and part != "__init__" for part in parts
    )


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            names.append(target.attr)
        elif isinstance(target, ast.Name):
            names.append(target.id)
    return names


def _keyword_parameters(function: ast.AST) -> Iterator[str]:
    arguments = function.args
    for argument in arguments.args + arguments.kwonlyargs:
        if argument.arg not in ("self", "cls"):
            yield argument.arg


def _is_accessor(function: ast.AST) -> bool:
    return any(
        name in ("property", "setter", "deleter", "cached_property")
        for name in _decorator_names(function)
    )


def _dataclass_fields(cls: ast.ClassDef) -> Iterator[str]:
    for statement in cls.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        name = statement.target.id
        if name.startswith("_") or "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
            and any(
                keyword.arg == "init"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in value.keywords
            )
        ):
            continue
        yield name


def _class_values(cls: ast.ClassDef, prefix: str) -> Iterator[str]:
    qualname = f"{prefix}{cls.name}"
    if "dataclass" in _decorator_names(cls):
        for name in _dataclass_fields(cls):
            yield f"{qualname}.{name}"
    for statement in cls.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = statement.name
            if name.startswith("_") and name not in CALLED_DUNDERS:
                continue
            if _is_accessor(statement):
                continue
            for parameter in _keyword_parameters(statement):
                yield f"{qualname}.{name}({parameter}=)"
        elif isinstance(statement, ast.ClassDef) and not statement.name.startswith("_"):
            yield from _class_values(statement, f"{qualname}.")


def settable_values(root: Path) -> List[str]:
    """Every settable value under ``root/src/repro``, as ``module:name``."""
    package = root / "src" / "repro"
    values: List[str] = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if not _is_public_module(relative):
            continue
        module = ".".join(("repro",) + relative.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                for parameter in _keyword_parameters(node):
                    values.append(f"{module}:{node.name}({parameter}=)")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                values.extend(
                    f"{module}:{value}" for value in _class_values(node, "")
                )
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to count (default: this one)")
    parser.add_argument("--list", action="store_true",
                        help="print every settable value, one per line")
    args = parser.parse_args()
    values = settable_values(args.root)
    if args.list:
        for value in values:
            print(value)
    print(f"{len(values)} settable values under {args.root / 'src' / 'repro'}")


if __name__ == "__main__":
    main()

"""CKPT001/CKPT002: checkpoint-coverage and snapshot/restore symmetry.

CKPT001 guards the resume-at-any-snapshot guarantee (PR 9): for every class
participating in checkpointing, each ``self.<attr>`` the class ever assigns
must either be captured by the snapshot (its name -- leading underscores
stripped -- appears among the snapshot's string keys) or be listed in an
explicit ``_CHECKPOINT_EXCLUDE`` mapping on the class with a written reason
(derived value, rebuilt on restore, transient handle, ...).  A new attribute
that is neither is precisely the "silent resume divergence" failure mode.

A class participates when it

* defines a method whose name, leading underscores stripped, is one of
  ``snapshot_state`` / ``checkpoint_state`` / ``capture_state`` /
  ``restore_state`` / ``from_state`` (``_capture_state`` and
  ``_restore_state`` of the simulator's batch state count), or
* declares ``_CHECKPOINT_KEYS`` -- the opt-in marker for classes whose state
  is captured *externally* (e.g. :class:`repro.cloud.Controller`, whose jobs
  and cloud are serialized by ``MultiTenantSimulator``'s snapshot); the
  marker lists the external snapshot keys covering the class, or
* declares ``_CHECKPOINT_EXCLUDE``.

Snapshot keys are collected from every string key of every dict literal in
the snapshot-side methods (nested dicts count: the simulator's ``counters``
sub-dict covers ``self._stream_index`` via its ``"stream_index"`` key), plus
the ``_CHECKPOINT_KEYS`` entries.  For ``@dataclass`` classes the annotated
class-level fields count as attributes.

CKPT002 checks the public protocol pairs only -- a class defining both an
exact-named ``snapshot_state``/``checkpoint_state`` and an exact-named
``restore_state``/``from_state``: every key the snapshot writes must be read
back (``state["key"]`` / ``state.get("key")``) by the restore side and vice
versa.  Split-capture paths (the simulator's private ``_capture_state``,
whose keys are consumed partly by ``resume_stream``) are covered by CKPT001
only.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .findings import Finding

_SNAPSHOT_METHODS = frozenset({"snapshot_state", "checkpoint_state", "capture_state"})
_RESTORE_METHODS = frozenset({"restore_state", "from_state"})
_EXCLUDE_MARKER = "_CHECKPOINT_EXCLUDE"
_KEYS_MARKER = "_CHECKPOINT_KEYS"


def _snippet(source_lines: List[str], lineno: int) -> str:
    if 1 <= lineno <= len(source_lines):
        return source_lines[lineno - 1].strip()
    return ""


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _literal_strings(node: ast.expr) -> Optional[List[str]]:
    """Elements of a literal tuple/list/set of strings, else None."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            values.append(element.value)
        return values
    return None


def _self_attr_assignments(method: ast.FunctionDef) -> Dict[str, int]:
    """``self.<attr>`` assignment targets in a method -> first line."""
    if not method.args.args or method.args.args[0].arg != "self":
        return {}
    attrs: Dict[str, int] = {}

    def record(target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element)
            return
        if isinstance(target, ast.Starred):
            record(target.value)
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attrs.setdefault(target.attr, target.lineno)

    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            record(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    record(item.optional_vars)
    return attrs


def _dict_literal_keys(node: ast.AST) -> Set[str]:
    """Every string key of every dict literal (and dict(key=...)) below node."""
    keys: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "dict"
        ):
            for kw in child.keywords:
                if kw.arg is not None:
                    keys.add(kw.arg)
    return keys


def _string_subscript_keys(node: ast.AST) -> Set[str]:
    """Keys read as ``x["key"]`` or ``x.get("key", ...)`` below node."""
    keys: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Subscript):
            index = child.slice
            if isinstance(index, ast.Constant) and isinstance(index.value, str):
                keys.add(index.value)
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "get"
            and child.args
        ):
            first = child.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                keys.add(first.value)
    return keys


class _ClassInfo:
    """Everything CKPT001/002 need about one class definition."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.node = cls
        self.name = cls.name
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.attrs: Dict[str, int] = {}
        self.exclude: Optional[Dict[str, str]] = None
        self.exclude_line = cls.lineno
        self.external_keys: Optional[List[str]] = None
        self.marker_line = cls.lineno

        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
                for attr, line in _self_attr_assignments(stmt).items():
                    self.attrs.setdefault(attr, line)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if target.id == _EXCLUDE_MARKER:
                        self.exclude = self._parse_exclude(stmt.value)
                        self.exclude_line = stmt.lineno
                    elif target.id == _KEYS_MARKER:
                        self.external_keys = _literal_strings(stmt.value)
                        self.marker_line = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _is_dataclass(cls) and not self._is_classvar(stmt):
                    self.attrs.setdefault(stmt.target.id, stmt.lineno)

    @staticmethod
    def _is_classvar(stmt: ast.AnnAssign) -> bool:
        annotation = ast.dump(stmt.annotation)
        return "ClassVar" in annotation

    @staticmethod
    def _parse_exclude(node: ast.expr) -> Optional[Dict[str, str]]:
        """``_CHECKPOINT_EXCLUDE``: dict attr->reason (or bare collection)."""
        if isinstance(node, ast.Dict):
            parsed: Dict[str, str] = {}
            for key, value in zip(node.keys, node.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    return None
                reason = ""
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    reason = value.value
                parsed[key.value] = reason
            return parsed
        bare = _literal_strings(node)
        if bare is not None:
            return {name: "" for name in bare}
        return None

    def named(self, names: frozenset, exact: bool) -> List[ast.FunctionDef]:
        matched = []
        for name, method in self.methods.items():
            candidate = name if exact else name.lstrip("_")
            if candidate in names:
                matched.append(method)
        return matched

    @property
    def participates(self) -> bool:
        if self.exclude is not None or self.external_keys is not None:
            return True
        return bool(
            self.named(_SNAPSHOT_METHODS | _RESTORE_METHODS, exact=False)
        )


def check_ckpt(
    tree: ast.Module, source_lines: List[str], path: str
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            info = _ClassInfo(node)
            if info.participates:
                findings.extend(_check_coverage(info, source_lines, path))
            findings.extend(_check_symmetry(info, source_lines, path))
    return findings


def _check_coverage(
    info: _ClassInfo, source_lines: List[str], path: str
) -> List[Finding]:
    """CKPT001 for one participating class."""
    findings: List[Finding] = []

    def add(line: int, message: str) -> None:
        findings.append(
            Finding(
                rule="CKPT001",
                path=path,
                line=line,
                col=1,
                message=message,
                snippet=_snippet(source_lines, line),
            )
        )

    keys: Set[str] = set()
    for method in info.named(_SNAPSHOT_METHODS, exact=False):
        keys |= _dict_literal_keys(method)
    if info.external_keys is not None:
        keys |= set(info.external_keys)
    exclude = info.exclude or {}

    for attr, reason in exclude.items():
        if not reason.strip():
            add(
                info.exclude_line,
                f"{info.name}._CHECKPOINT_EXCLUDE entry {attr!r} needs a "
                "written reason (why is this attribute safe to not snapshot?)",
            )
        if attr not in info.attrs:
            add(
                info.exclude_line,
                f"{info.name}._CHECKPOINT_EXCLUDE lists {attr!r} but the "
                "class never assigns self.{attr}; remove the stale entry"
                .replace("{attr}", attr),
            )

    for attr in sorted(info.attrs):
        if attr in exclude:
            continue
        if attr in keys or attr.lstrip("_") in keys:
            continue
        add(
            info.attrs[attr],
            f"self.{attr} of {info.name} is mutable run state with no "
            f"snapshot key {attr.lstrip('_')!r}; capture it in the snapshot "
            "or add it to _CHECKPOINT_EXCLUDE with a reason",
        )
    return findings


def _check_symmetry(
    info: _ClassInfo, source_lines: List[str], path: str
) -> List[Finding]:
    """CKPT002 for one class with an exact-named snapshot/restore pair."""
    snapshot_side = info.named(_SNAPSHOT_METHODS, exact=True)
    restore_side = info.named(_RESTORE_METHODS, exact=True)
    if not snapshot_side or not restore_side:
        return []
    written: Set[str] = set()
    for method in snapshot_side:
        written |= _dict_literal_keys(method)
    read: Set[str] = set()
    for method in restore_side:
        read |= _string_subscript_keys(method)
    findings: List[Finding] = []
    restore_names = ", ".join(sorted(m.name for m in restore_side))
    snapshot_names = ", ".join(sorted(m.name for m in snapshot_side))
    for key in sorted(written - read):
        method = snapshot_side[0]
        findings.append(
            Finding(
                rule="CKPT002",
                path=path,
                line=method.lineno,
                col=method.col_offset + 1,
                message=(
                    f"{info.name}.{snapshot_names} writes key {key!r} that "
                    f"{restore_names} never reads; restore it or drop it from "
                    "the snapshot"
                ),
                snippet=_snippet(source_lines, method.lineno),
            )
        )
    for key in sorted(read - written):
        method = restore_side[0]
        findings.append(
            Finding(
                rule="CKPT002",
                path=path,
                line=method.lineno,
                col=method.col_offset + 1,
                message=(
                    f"{info.name}.{restore_names} reads key {key!r} that "
                    f"{snapshot_names} never writes; a resume would KeyError "
                    "or silently default"
                ),
                snippet=_snippet(source_lines, method.lineno),
            )
        )
    return findings

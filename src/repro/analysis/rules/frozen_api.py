"""API001: frozen/slotted dataclasses are written only by their module.

Frozen dataclasses (``RunSpec``, ``Scenario``, ``CaptureConfig``, the
config dataclasses…) are the repo's value objects: cache keys hash
them, payload equality relies on them.  (``TraceRecord`` is a
``NamedTuple``: a tuple, so immutable without this rule.)  The
runtime ``FrozenInstanceError`` only fires on plain attribute syntax —
``object.__setattr__`` slips straight past it — so this rule flags
*both* forms whenever they target a frozen or slotted dataclass from
outside its defining module (the defining module legitimately uses
``object.__setattr__`` in ``__post_init__`` normalisers).

Inference is local and conservative: a variable's class is known when
it was constructed in the same scope (``x = RunSpec(...)``) or
annotated (``x: RunSpec``); anything else is not flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import Finding, ImportMap, ModuleInfo, Project, Rule, register_rule

__all__ = ["FrozenDataclassRule"]


def _truthy_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


def _is_guarded_dataclass(node: ast.ClassDef) -> bool:
    """True for ``@dataclass(frozen=True)`` / ``@dataclass(slots=True)``
    or a dataclass whose body defines ``__slots__``."""
    decorated = False
    frozen_or_slots = False
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name != "dataclass":
            continue
        decorated = True
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg in ("frozen", "slots") and _truthy_const(kw.value):
                    frozen_or_slots = True
    if not decorated:
        return False
    if frozen_or_slots:
        return True
    return any(
        isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in stmt.targets)
        for stmt in node.body
    )


def _guarded_classes(project: Project) -> Dict[str, str]:
    """Map class name -> defining module dotted name."""
    out: Dict[str, str] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_guarded_dataclass(node):
                out.setdefault(node.name, module.name)
    return out


class _ScopeTypes(ast.NodeVisitor):
    """Infer local-variable class names within one function scope."""

    def __init__(self, imports: ImportMap, guarded: Dict[str, str]):
        self.imports = imports
        self.guarded = guarded
        self.types: Dict[str, str] = {}

    def _class_of(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Call):
            return self._class_of(node.func)
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return None
        if name in self.guarded:
            resolved = self.imports.resolve(node)
            if resolved is None or resolved.split(".")[-1] == name:
                return name
        return None

    def bind_args(self, fn: ast.AST) -> None:
        args = getattr(fn, "args", None)
        if args is None:
            return
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = self._class_of(arg.annotation)
            if cls is not None:
                self.types[arg.arg] = cls

    def visit_Assign(self, node: ast.Assign) -> None:
        cls = self._class_of(node.value) if isinstance(node.value, ast.Call) else None
        for target in node.targets:
            if isinstance(target, ast.Name):
                if cls is not None:
                    self.types[target.id] = cls
                else:
                    self.types.pop(target.id, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            cls = self._class_of(node.annotation)
            if cls is not None:
                self.types[node.target.id] = cls


@register_rule
class FrozenDataclassRule(Rule):
    """Attribute writes to frozen/slotted dataclasses, cross-module."""

    id = "API001"
    summary = ("no attribute assignment (or object.__setattr__) on "
               "frozen/slotted dataclass instances outside their "
               "defining module")

    def check_project(self, project: Project) -> Iterator[Finding]:
        # One pass over every module finds the guarded classes; checking
        # each module from there keeps the lint linear in the tree.
        guarded = _guarded_classes(project)
        if not guarded:
            return
        for module in project.modules:
            yield from self._check_module(module, guarded)

    def _check_module(self, module: ModuleInfo,
                      guarded: Dict[str, str]) -> Iterator[Finding]:
        imports = ImportMap(module)
        scopes: List[Tuple[ast.AST, Optional[str]]] = [(module.tree, None)]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, None))
        for scope, _ in scopes:
            yield from self._check_scope(scope, module, imports, guarded)

    @staticmethod
    def _iter_scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Nodes of one scope in source order, skipping nested scopes
        (nested defs get their own `_check_scope` pass)."""
        stack: List[ast.AST] = list(reversed(getattr(scope, "body", [])))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(reversed(list(ast.iter_child_nodes(node))))

    def _check_scope(self, scope: ast.AST, module: ModuleInfo,
                     imports: ImportMap, guarded: Dict[str, str]) -> Iterator[Finding]:
        tracker = _ScopeTypes(imports, guarded)
        tracker.bind_args(scope)
        for node in self._iter_scope_nodes(scope):
            if isinstance(node, ast.Assign):
                tracker.visit_Assign(node)
                yield from self._check_targets(node.targets, tracker,
                                              module, guarded)
            elif isinstance(node, ast.AnnAssign):
                tracker.visit_AnnAssign(node)
                yield from self._check_targets([node.target], tracker,
                                               module, guarded)
            elif isinstance(node, ast.AugAssign):
                yield from self._check_targets([node.target], tracker,
                                               module, guarded)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                # Loop variables shadow earlier bindings of unknown type.
                for name_node in ast.walk(node.target):
                    if isinstance(name_node, ast.Name):
                        tracker.types.pop(name_node.id, None)
            elif isinstance(node, ast.Call):
                yield from self._check_setattr(node, tracker, module,
                                               guarded)

    def _flag(self, cls: str, module: ModuleInfo, guarded: Dict[str, str],
              node: ast.AST, via: str) -> Iterator[Finding]:
        defining = guarded[cls]
        if defining == module.name:
            return
        yield Finding(
            rule=self.id, path=module.rel,
            line=node.lineno, col=node.col_offset,
            message=(f"{via} on frozen/slotted dataclass {cls} "
                     f"(defined in {defining}) outside its module; "
                     "use dataclasses.replace() / a with_() helper"),
        )

    def _check_targets(self, targets, tracker: _ScopeTypes,
                       module: ModuleInfo, guarded: Dict[str, str]) -> Iterator[Finding]:
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name):
                cls = tracker.types.get(target.value.id)
                if cls is not None:
                    yield from self._flag(cls, module, guarded, target,
                                          f"attribute assignment .{target.attr}")

    def _check_setattr(self, node: ast.Call, tracker: _ScopeTypes,
                       module: ModuleInfo, guarded: Dict[str, str]) -> Iterator[Finding]:
        func = node.func
        is_setattr = (
            isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name) and func.value.id == "object"
        ) or (isinstance(func, ast.Name) and func.id == "setattr")
        if not is_setattr or not node.args:
            return
        target = node.args[0]
        if isinstance(target, ast.Name):
            cls = tracker.types.get(target.id)
            if cls is not None:
                yield from self._flag(cls, module, guarded, node,
                                      "object.__setattr__")

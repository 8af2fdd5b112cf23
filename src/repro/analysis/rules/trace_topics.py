"""TRACE001: trace-topic literals vs the registry, both directions.

Every string-literal topic handed to ``TraceBus.publish`` /
``record_topic`` must name a topic registered in ``repro.obs.topics``
(globs must match at least one), and every registered topic must have
at least one publish site — otherwise the registry entry is dead and
the metrics bridge folds silence.

The registry is read from the *scanned tree's* AST (the ``TopicSpec``
calls in the module whose dotted name ends ``obs.topics``), never
imported, so the rule works on fixture trees and broken checkouts
alike.  When the scanned tree has no registry module the rule is inert.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import Finding, ModuleInfo, Project, Rule, register_rule

__all__ = ["TraceTopicRule"]


def _registry(project: Project) -> Optional[Tuple[ModuleInfo, Dict[str, int]]]:
    """The topics module and its ``name -> lineno`` map, if present."""
    module = project.find("obs", "topics")
    if module is None:
        return None
    topics: Dict[str, int] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "TopicSpec":
            name_node: Optional[ast.expr] = None
            if node.args:
                name_node = node.args[0]
            for kw in node.keywords:
                if kw.arg == "name":
                    name_node = kw.value
            if isinstance(name_node, ast.Constant) and \
                    isinstance(name_node.value, str):
                topics.setdefault(name_node.value, name_node.lineno)
    return module, topics


def _matches(pattern: str, topics: Dict[str, int]) -> bool:
    if pattern == "*":
        return bool(topics)
    if pattern.endswith(".*"):
        prefix = pattern[:-1]
        return any(name.startswith(prefix) for name in topics)
    return pattern in topics


def _literal_topic(call: ast.Call, arg_index: int) -> Optional[Tuple[str, ast.expr]]:
    if len(call.args) <= arg_index:
        return None
    node = call.args[arg_index]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node
    return None


@register_rule
class TraceTopicRule(Rule):
    """Publish/record sites and the topic registry must agree."""

    id = "TRACE001"
    summary = ("string-literal trace topics must be registered in "
               "repro.obs.topics; registered topics must have a "
               "publish site")

    def _sites(self, module: ModuleInfo) -> Iterator[Tuple[str, str, ast.expr]]:
        """Yields ``(kind, topic, node)`` for literal-topic call sites."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "publish":
                found = _literal_topic(node, 1)  # publish(time, topic, **p)
                if found:
                    yield "publish", found[0], found[1]
            elif attr == "record_topic":  # record_topic(topic)
                found = _literal_topic(node, 0)
                if found:
                    yield attr, found[0], found[1]

    def check_project(self, project: Project) -> Iterator[Finding]:
        loaded = _registry(project)
        if loaded is None:
            return
        registry_module, topics = loaded
        published: set = set()
        for module in project.modules:
            if module is registry_module:
                continue
            for kind, topic, node in self._sites(module):
                if kind == "publish":
                    published.add(topic)
                    if topic not in topics:
                        yield Finding(
                            rule=self.id, path=module.rel,
                            line=node.lineno, col=node.col_offset,
                            message=(f"published topic {topic!r} is not in "
                                     f"the registry ({registry_module.rel}); "
                                     "add a TopicSpec for it"),
                        )
                elif not _matches(topic, topics):
                    yield Finding(
                        rule=self.id, path=module.rel,
                        line=node.lineno, col=node.col_offset,
                        message=(f"{kind}() topic {topic!r} matches no "
                                 f"registered topic ({registry_module.rel})"),
                    )
        for name, lineno in topics.items():
            if name not in published:
                yield Finding(
                    rule=self.id, path=registry_module.rel,
                    line=lineno, col=0,
                    message=(f"registered topic {name!r} has no publish "
                             "site in the scanned tree; delete the dead "
                             "TopicSpec or publish it"),
                )

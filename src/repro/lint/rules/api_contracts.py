"""API-contract rule: frozen view immutability.

The rule pins a contract of the feedback-control policy API:
policies read *immutable* live-state snapshots.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.registry import (
    Finding,
    ParsedFile,
    Rule,
    iter_scopes,
    register_rule,
    scope_walk,
)

#: the frozen snapshot types of repro.control.context
FROZEN_TYPES = {"ClusterView", "ControlContext", "TelemetryWindow", "WorkerView"}
#: parameter names conventionally bound to a ControlContext
_CTX_PARAM_NAMES = {"ctx", "context"}
#: classmethod constructors on the frozen types
_FROZEN_FACTORIES = {"empty"}
#: methods (on any receiver) documented to return frozen snapshots
_SNAPSHOT_METHODS = {"cluster_view", "build_context"}


def _frozen_names_in_scope(scope: ast.AST, body: List[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if any(frozen in annotation for frozen in FROZEN_TYPES):
                names.add(arg.arg)
            elif arg.arg in _CTX_PARAM_NAMES:
                names.add(arg.arg)
    for node in scope_walk(body):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            produced = False
            if isinstance(call.func, ast.Name) and call.func.id in FROZEN_TYPES:
                produced = True
            elif isinstance(call.func, ast.Attribute):
                if (
                    call.func.attr in _FROZEN_FACTORIES
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in FROZEN_TYPES
                ):
                    produced = True
                elif call.func.attr in _SNAPSHOT_METHODS:
                    produced = True
            if produced:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _attribute_root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


@register_rule
class FrozenViewMutationRule(Rule):
    """R005 frozen-view-mutation: control contexts are values, not handles.

    History: PR 5's whole design rests on ``ClusterView`` /
    ``TelemetryWindow`` / ``ControlContext`` being immutable snapshots — two
    policies consulting the same context must see identical numbers, and a
    policy must not be able to steer the simulator by editing its view
    (that's what the hypothesis immutability invariants in
    ``tests/control/test_context_invariants.py`` pin at runtime).  The
    dataclasses are ``frozen=True``, so a plain assignment raises — but only
    on the code path that executes, and ``object.__setattr__`` bypasses the
    guard entirely.  This rule flags attribute assignment, ``setattr`` and
    ``object.__setattr__`` on anything inferred to be one of the frozen
    snapshot types, everywhere outside their defining module (whose
    ``__post_init__``-style internals legitimately use the backdoor).
    """

    id = "R005"
    name = "frozen-view-mutation"
    scope = ("src/repro/*", "src/repro/**/*")

    def applies_to(self, path: str) -> bool:
        if path == "src/repro/control/context.py":
            return False
        return super().applies_to(path)

    def check(self, file: ParsedFile) -> Iterator[Finding]:
        for scope, body in iter_scopes(file.tree):
            frozen = _frozen_names_in_scope(scope, body)
            if not frozen:
                continue
            for node in scope_walk(body):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute):
                            root = _attribute_root(target)
                            if isinstance(root, ast.Name) and root.id in frozen:
                                yield self.finding(
                                    file, node,
                                    f"assignment to attribute of frozen snapshot "
                                    f"'{root.id}'; contexts/views are immutable values "
                                    "— build a new snapshot instead",
                                )
                elif isinstance(node, ast.Call):
                    func = node.func
                    is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
                    is_object_setattr = (
                        isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__"
                    )
                    if (is_setattr or is_object_setattr) and node.args:
                        root = _attribute_root(node.args[0])
                        if isinstance(root, ast.Name) and root.id in frozen:
                            yield self.finding(
                                file, node,
                                f"setattr on frozen snapshot '{root.id}' bypasses the "
                                "frozen-dataclass guard the policy API relies on",
                            )

"""backend-dispatch: backend name resolution stays in the registry.

AST port of the original ``check_dispatch`` regex scanner.  Flags any
``==`` / ``!=`` comparison whose operand is a name or attribute called
``backend`` (``backend``, ``config.backend``, ``args.backend``,
``self.backend``, ...) — the if/elif dispatch idiom the
:mod:`repro.backends` registry replaced.  Text occurrences in strings
and docstrings (release notes, historical commentary) no longer
false-positive.
"""

from __future__ import annotations

import ast

from ..engine import Finding, Rule, iter_nodes


def _is_backend_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "backend"
    if isinstance(node, ast.Attribute):
        return node.attr == "backend"
    return False


class BackendDispatchRule(Rule):
    rule_id = "backend-dispatch"
    description = ("`backend == ...` string dispatch outside the "
                   "repro.backends registry")
    applies_to = ("src/repro",)
    allowed_paths = ("src/repro/backends",)

    def visit(self, tree: ast.Module, source: str,
              path: str) -> list[Finding]:
        findings = []
        for compare in iter_nodes(tree, ast.Compare):
            operands = [compare.left, *compare.comparators]
            for index, op in enumerate(compare.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if (_is_backend_operand(operands[index])
                        or _is_backend_operand(operands[index + 1])):
                    findings.append(self.finding(
                        path, compare,
                        "backend string comparison outside repro/backends/ "
                        "— resolve through repro.backends.get_backend() "
                        "and put capabilities on the backend object"))
                    break
        return findings

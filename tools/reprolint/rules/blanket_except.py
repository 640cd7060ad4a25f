"""blanket-except: arbitrary-failure absorption stays in the resilience layer.

AST port of the original ``check_excepts`` regex scanner.  Matching
``ast.ExceptHandler`` nodes instead of text means a literal
``"except Exception:"`` inside a string, comment or docstring can no
longer false-positive, and a blanket name buried in a tuple clause
(``except (ValueError, BaseException):``) can no longer hide.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Rule, iter_nodes

_BLANKET = ("Exception", "BaseException")


def _caught_names(node: ast.expr) -> Iterator[str]:
    """Terminal identifiers of an except clause's type expression."""
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _caught_names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


class BlanketExceptRule(Rule):
    rule_id = "blanket-except"
    description = ("bare `except:` or blanket `except Exception` / "
                   "`except BaseException` outside repro.resilience")
    applies_to = ("src/repro",)
    allowed_paths = ("src/repro/resilience",)

    def visit(self, tree: ast.Module, source: str,
              path: str) -> list[Finding]:
        findings = []
        for handler in iter_nodes(tree, ast.ExceptHandler):
            if handler.type is None:
                findings.append(self.finding(
                    path, handler,
                    "bare `except:` swallows arbitrary failures — catch "
                    "specific exceptions or route through "
                    "repro.resilience (run_isolated, run_with_retry)"))
                continue
            blanket = [name for name in _caught_names(handler.type)
                       if name in _BLANKET]
            if blanket:
                findings.append(self.finding(
                    path, handler,
                    f"blanket `except {blanket[0]}` outside "
                    "repro/resilience/ — catch the specific exceptions "
                    "you can handle, or route the failure through "
                    "repro.resilience"))
        return findings

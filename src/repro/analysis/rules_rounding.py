"""Exact-rounding rule: the fast engine's float sums stay blessed.

The fast replay engine's contract (DESIGN.md §7) is *bit-identical*
results against the event-ordered oracle, which only holds because both
sides accumulate ``lease_seconds`` with exactly-rounded, order-
independent summation: ``math.fsum`` over a shared term list, or the
Shewchuk-partials :class:`repro.sim.fastreplay.ExactSum`.  A bare
``sum()`` over floats — or a running ``total += term`` loop — reorders
rounding error and silently breaks the oracle-equivalence property
tests on the right (wrong) inputs.

The columnar engine and the sharded merge layer (``sim/columnar.py``,
``sim/shard.py``) inherit the same contract — their sums feed the same
bit-identity property tests — so the rule covers every module listed
in :data:`~repro.analysis.linter.EXACT_ROUNDING_FILES`.

``DCUP006`` flags, inside those modules:

* calls to builtin ``sum(...)`` unless the summand is provably integral
  (a ``len(...)`` call or an integer literal — counting is exact);
* ``+=``/``-=`` on a variable initialised from a float literal in the
  same scope (the classic running-float-total shape).

The blessed spellings — ``math.fsum(terms)``, ``ExactSum().add(...)`` —
are attribute calls and integer arithmetic, which the rule never flags.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .findings import Finding
from .linter import (
    EXACT_ROUNDING_FILES,
    ModuleInfo,
    ProjectContext,
    Rule,
    scoped_walk,
)


def _integral_summand(call: ast.Call) -> bool:
    """True when the sum's elements are provably integers."""
    if not call.args:
        return False
    arg = call.args[0]
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        element: ast.expr = arg.elt
    elif isinstance(arg, (ast.List, ast.Tuple)) and arg.elts:
        return all(isinstance(e, ast.Constant)
                   and isinstance(e.value, int)
                   and not isinstance(e.value, bool) for e in arg.elts)
    else:
        return False
    if (isinstance(element, ast.Call)
            and isinstance(element.func, ast.Name)
            and element.func.id == "len"):
        return True
    return (isinstance(element, ast.Constant)
            and isinstance(element.value, int)
            and not isinstance(element.value, bool))


class ExactRoundingRule(Rule):
    """DCUP006: no bare float accumulation on oracle-equivalence paths."""

    code = "DCUP006"
    name = "exact-rounding-bare-float-sum"
    summary = ("oracle-equivalence modules (sim/fastreplay.py, "
               "sim/columnar.py, sim/shard.py) must accumulate floats "
               "only through math.fsum/ExactSum, never bare sum() or "
               "running +=")
    scope = ("repro/sim/fastreplay.py, repro/sim/columnar.py, "
             "repro/sim/shard.py")

    def check(self, module: ModuleInfo,
              ctx: ProjectContext) -> Iterator[Finding]:
        if not module.is_file(EXACT_ROUNDING_FILES):
            return
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(node for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for scope in scopes:
            float_names: Set[str] = set()
            for node in scoped_walk(scope):
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, float)):
                    float_names.update(
                        target.id for target in node.targets
                        if isinstance(target, ast.Name))
            for node in scoped_walk(scope):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "sum"
                        and not _integral_summand(node)):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "bare sum() over a possibly-float sequence on an "
                        "oracle-equivalence path: use math.fsum or "
                        "ExactSum to keep results exactly rounded")
                elif (isinstance(node, ast.AugAssign)
                        and isinstance(node.op, (ast.Add, ast.Sub))
                        and isinstance(node.target, ast.Name)
                        and node.target.id in float_names):
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"running float accumulation "
                        f"'{node.target.id} {'+=' if isinstance(node.op, ast.Add) else '-='} ...' "
                        f"is order-dependent: collect terms and fold them "
                        f"through math.fsum or ExactSum")

"""The rule framework: file walker, AST plumbing, and the default pack.

A :class:`Rule` sees one parsed :class:`ModuleInfo` at a time plus a
shared :class:`ProjectContext` for cross-file state (the trace-contract
rule needs the whole scan to decide that a registry name is never
emitted).  Rules yield :class:`~repro.analysis.findings.Finding`
records; the driver applies suppressions, the optional ``--select``
filter, and the canonical sort.

Selection filters *output*, never execution: every rule runs over every
file so cross-file rules always see the full picture.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from .findings import CODE_PATTERN, Finding, sort_findings
from .suppress import Suppressions, parse_suppressions

#: Directory names never descended into by the walker.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis"})

#: Subsystems (single path component under ``repro/``) with scoped rules.
DETERMINISM_SCOPE = ("core", "net", "sim", "obs")
ZERO_COST_SCOPE = ("core", "net")
#: Files outside ZERO_COST_SCOPE's subsystems that still carry the
#: zero-cost contract: the auditor's optional window histogram (the
#: guard lives in ``obs/audit.py`` with ``IncrementalAuditor``), the
#: load ledger's optional trace hooks, and the live
#: telemetry plane's instrument touches must be guarded exactly like
#: the protocol engine's (the ``net`` entry is already covered by the
#: subsystem scope; it is listed for the record).
ZERO_COST_FILES = (
    ("obs", "audit.py"),
    ("obs", "load.py"),
    ("net", "telemetry.py"),
)
EXACT_ROUNDING_FILES = (
    ("sim", "fastreplay.py"),
    ("sim", "columnar.py"),
    ("sim", "shard.py"),
)
#: DCUP009 scope: the asyncio transport plus the live testbed shim —
#: the only places where code runs *inside* coroutines on the loop.
ASYNC_BLOCKING_SCOPE = ("net",)
ASYNC_BLOCKING_FILES = (("sim", "livetestbed.py"),)
#: DCUP010/DCUP012 scope: everywhere coroutines and task handles are
#: created (the transport, the live testbed, and the CLI drivers).
ASYNC_TASK_SCOPE = ("net", "sim", "tools")
#: DCUP011 scope: the subsystems holding loop-owned registries.
ASYNC_AFFINITY_SCOPE = ("net", "sim")


class LintError(RuntimeError):
    """Raised on unusable input: missing paths, unparseable files."""


class ModuleInfo:
    """One parsed source file plus the derived lookup structures."""

    def __init__(self, path: pathlib.Path, display: str, source: str):
        self.path = path
        self.display = display
        self.source = source
        try:
            self.tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            raise LintError(f"{display}: cannot parse: {exc}") from None
        self.suppressions: Suppressions = parse_suppressions(source)
        #: Child -> parent links for guard/ancestry queries.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: Path components after the last ``repro`` directory — the
        #: package-relative location used for rule scoping.  Fixture
        #: trees reuse the scoping by mirroring the layout under any
        #: directory named ``repro``.
        parts = path.parts
        if "repro" in parts:
            anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
            self.package: Tuple[str, ...] = parts[anchor + 1:]
        else:
            self.package = ()

    @property
    def subsystem(self) -> Optional[str]:
        """First directory under the package root (``core``, ``net``...)."""
        return self.package[0] if len(self.package) > 1 else None

    def in_subsystems(self, names: Sequence[str]) -> bool:
        """True when this module lives under one of ``names``."""
        return self.subsystem in names

    def is_file(self, candidates: Sequence[Tuple[str, ...]]) -> bool:
        """True when the package-relative path matches one candidate."""
        return self.package in candidates


class ProjectContext:
    """Cross-file state shared by one lint run."""

    def __init__(self) -> None:
        #: Event name -> every (display path, line) that emits it.
        self.emitted: Dict[str, List[Tuple[str, int]]] = {}
        #: Files that define ``EVENT_NAMES`` (display path, line).  The
        #: registry-coverage check only runs when the registry itself
        #: was part of the scan — linting one file never claims the
        #: whole contract is unemitted.
        self.registry_sites: List[Tuple[str, int]] = []
        #: Lease-FSM declarations found in the scan (rules_fsm): per
        #: declaring file, the (transition, event, row line) triples.
        self.fsm_tables: List[Tuple[str, List[Tuple[str, str, int]]]] = []
        #: lease.*/renego.* event -> (display, line) emit sites seen in
        #: ``repro/core`` modules (the FSM dispatch surface).
        self.fsm_dispatch: Dict[str, List[Tuple[str, int]]] = {}

    def record_emit(self, name: str, display: str, line: int) -> None:
        """Note that ``name`` is emitted at ``display:line``."""
        self.emitted.setdefault(name, []).append((display, line))


class Rule:
    """Base class: one stable code, checked per-module then finalized."""

    code: str = ""
    name: str = ""
    summary: str = ""
    scope: str = "all scanned files"

    def check(self, module: ModuleInfo,
              ctx: ProjectContext) -> Iterator[Finding]:
        """Per-file pass; yield findings for ``module``."""
        return iter(())

    def finalize(self, ctx: ProjectContext) -> Iterator[Finding]:
        """Cross-file pass after every module has been checked."""
        return iter(())

    def finding(self, module_or_path: object, line: int, col: int,
                message: str) -> Finding:
        """Convenience constructor stamping this rule's identity."""
        display = (module_or_path.display
                   if isinstance(module_or_path, ModuleInfo)
                   else str(module_or_path))
        return Finding(code=self.code, rule=self.name, path=display,
                       line=line, col=col, message=message)


class SuppressionHygieneRule(Rule):
    """DCUP008: a suppression directive must parse and carry a reason."""

    code = "DCUP008"
    name = "suppression-needs-reason"
    summary = ("repro-lint suppression comments must be well-formed and "
               "include a '-- reason' clause")

    def check(self, module: ModuleInfo,
              ctx: ProjectContext) -> Iterator[Finding]:
        for line, col, message in module.suppressions.malformed:
            yield self.finding(module, line, col, message)


# -- shared AST helpers used by the rule modules ------------------------------


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> absolute dotted origin for module-level imports.

    Relative imports map to ``""`` (internal, never a banned target).
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            origin = node.module or ""
            if node.level:
                origin = ""  # relative: inside this package
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = (f"{origin}.{alias.name}"
                                  if origin else "")
    return mapping


def resolve_dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The absolute dotted name a call target resolves to, if knowable.

    ``datetime.now()`` after ``from datetime import datetime`` resolves
    to ``datetime.datetime.now``; names bound to local variables (an
    ``rng`` parameter, say) resolve to None and are never flagged.
    """
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = imports.get(node.id)
    if origin is None or origin == "":
        return None
    chain.append(origin)
    return ".".join(reversed(chain))


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a name/attribute chain (``self.trace`` ->
    ``trace``); None for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def guarding_tests(module: ModuleInfo, node: ast.AST) -> List[str]:
    """Unparsed operands ``X`` of every enclosing ``X is not None`` test.

    Only tests whose *body* branch contains ``node`` count — an emit in
    the else branch of its own guard is not guarded.
    """
    guards: List[str] = []
    current: ast.AST = node
    parents = module.parents
    while current in parents:
        parent = parents[current]
        branch: Optional[List[ast.AST]] = None
        if isinstance(parent, ast.If):
            branch = list(parent.body)
        elif isinstance(parent, ast.IfExp):
            branch = [parent.body]
        if branch is not None and any(current is entry for entry in branch):
            for sub in ast.walk(parent.test):
                if (isinstance(sub, ast.Compare)
                        and len(sub.ops) == 1
                        and isinstance(sub.ops[0], ast.IsNot)
                        and isinstance(sub.comparators[0], ast.Constant)
                        and sub.comparators[0].value is None):
                    guards.append(ast.unparse(sub.left))
        current = parent
    return guards


def scoped_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function scopes."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


# -- the walker ---------------------------------------------------------------


def iter_python_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """Every ``.py`` file under ``paths``, sorted and deduplicated."""
    seen: Dict[pathlib.Path, None] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if not path.exists():
            raise LintError(f"no such path: {path}")
        if path.is_file():
            if path.suffix == ".py":
                seen[path.resolve()] = None
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            seen[candidate.resolve()] = None
    return sorted(seen)


def _display(path: pathlib.Path) -> str:
    """Stable display form: cwd-relative when possible, posix slashes."""
    try:
        rel = path.relative_to(pathlib.Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def load_module(path: pathlib.Path) -> ModuleInfo:
    """Read and parse one file into a :class:`ModuleInfo`."""
    try:
        source = path.read_text()
    except OSError as exc:
        raise LintError(f"{path}: cannot read: {exc}") from None
    return ModuleInfo(path, _display(path), source)


def lint_paths(paths: Sequence[pathlib.Path],
               select: Optional[Iterable[str]] = None,
               rules: Optional[Sequence[Type[Rule]]] = None) -> List[Finding]:
    """Lint every Python file under ``paths`` with the rule pack.

    ``select`` filters the *reported* codes; every rule still executes
    so cross-file checks see the complete scan.  Suppressed findings
    are dropped before selection.  The result is canonically sorted.
    """
    module_infos = [load_module(path) for path in iter_python_files(paths)]
    ctx = ProjectContext()
    active = [cls() for cls in (rules if rules is not None else DEFAULT_RULES)]
    raw: List[Finding] = []
    for module in module_infos:
        for rule in active:
            raw.extend(rule.check(module, ctx))
    for rule in active:
        raw.extend(rule.finalize(ctx))
    by_display = {module.display: module.suppressions
                  for module in module_infos}
    visible = [finding for finding in raw
               if not by_display.get(
                   finding.path, Suppressions()).hides(finding.code,
                                                       finding.line)]
    if select is not None:
        wanted = frozenset(select)
        visible = [finding for finding in visible if finding.code in wanted]
    return sort_findings(visible)


#: ``--select`` range syntax: two codes joined by a dash, inclusive.
_SELECT_RANGE = re.compile(r"^(DCUP\d{3})-(DCUP\d{3})$")


def parse_select(text: str) -> List[str]:
    """Expand a ``--select`` expression into concrete DCUP codes.

    Accepts comma-separated single codes (``DCUP005``) and inclusive
    ranges (``DCUP009-DCUP013``).  Malformed tokens, inverted ranges,
    and empty expressions raise :class:`LintError` — the CLI maps that
    to exit code 2 (usage error), distinct from exit 1 (findings).
    """
    codes: List[str] = []
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        match = _SELECT_RANGE.match(token)
        if match is not None:
            low = int(match.group(1)[4:])
            high = int(match.group(2)[4:])
            if low > high:
                raise LintError(f"inverted --select range: {token}")
            codes.extend(f"DCUP{number:03d}"
                         for number in range(low, high + 1))
        elif CODE_PATTERN.match(token):
            codes.append(token)
        else:
            raise LintError(
                f"bad --select token {token!r}: expected DCUP### or "
                f"DCUP###-DCUP###")
    if not codes:
        raise LintError("empty --select expression")
    return codes


def rule_catalogue(rules: Optional[Sequence[Type[Rule]]] = None
                   ) -> List[Dict[str, str]]:
    """The rule pack as (code, name, scope, summary) records."""
    entries = [{"code": cls.code, "name": cls.name, "scope": cls.scope,
                "summary": cls.summary}
               for cls in (rules if rules is not None else DEFAULT_RULES)]
    return sorted(entries, key=lambda entry: entry["code"])


# The default pack is assembled at the bottom so the rule modules can
# import the framework above without a cycle.
from .rules_async import (  # noqa: E402
    AsyncBlockingCallRule,
    LoopAffinityRule,
    TaskResourceLeakRule,
    UnawaitedCoroutineRule,
)
from .rules_determinism import UnseededRandomRule, WallClockRule  # noqa: E402
from .rules_enums import EnumDispatchRule  # noqa: E402
from .rules_fsm import LeaseFsmRule  # noqa: E402
from .rules_rounding import ExactRoundingRule  # noqa: E402
from .rules_trace import RegistryCoverageRule, TraceEmitNameRule  # noqa: E402
from .rules_zerocost import ZeroCostRule  # noqa: E402

#: Every shipped rule, in code order.
DEFAULT_RULES: Tuple[Type[Rule], ...] = (
    WallClockRule,
    UnseededRandomRule,
    TraceEmitNameRule,
    RegistryCoverageRule,
    ZeroCostRule,
    ExactRoundingRule,
    EnumDispatchRule,
    SuppressionHygieneRule,
    AsyncBlockingCallRule,
    UnawaitedCoroutineRule,
    LoopAffinityRule,
    TaskResourceLeakRule,
    LeaseFsmRule,
)

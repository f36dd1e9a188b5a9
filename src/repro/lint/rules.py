"""The domain rules of ``repro.lint``.

Each rule encodes one invariant of the trading system that generic
linters cannot see:

* **RL001 dp-boundary** -- nothing derived from an exact or estimated
  count may leave the broker answer paths without passing through a
  ``repro.privacy`` mechanism (Laplace perturbation); the ε′ = 0
  ``replay`` path is post-processing and therefore exempt by
  construction (it re-releases already-noised values).
* **RL002 rng-discipline** -- the determinism contract (bit-identical
  scalar/batch/cluster answers) dies the moment any global or
  constant-seeded RNG sneaks in.  Inside ``repro.workers`` the rule is
  strict: *no* RNG construction at all, seeded or not -- worker
  processes only re-run pure estimation, and the Laplace stream must
  stay in the coordinator for threads/processes bit-identity.
* **RL003 lock-discipline** -- ``# guarded-by: _lock`` attributes may
  only be touched under ``with self._lock`` or in ``# holds: _lock``
  methods.
* **RL004 accounting-floats** -- money and ε arithmetic must never be
  compared with ``==``/``!=``; use ``math.isclose`` or integer
  micro-units.
* **RL005 broad-except** -- broad handlers must re-raise, count a
  metric through :class:`~repro.serving.telemetry.MetricsRegistry`, or
  carry a ``# repro-lint: shed`` justification.
* **RL006 journal-before-release** -- broker answer/replay paths must
  append the trade to the write-ahead journal *before* any return that
  releases an answer (crash-safety: a crash after the journal append can
  only make recovery over-count ε, never under-count it).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.lint.engine import FileContext, Rule, default_registry
from repro.lint.findings import Finding

__all__ = [
    "DpBoundaryRule",
    "RngDisciplineRule",
    "LockDisciplineRule",
    "AccountingFloatsRule",
    "BroadExceptRule",
    "JournalBeforeReleaseRule",
]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> str:
    """Last segment of the callee (``estimate`` for ``self.estimator.estimate``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


# ======================================================================
# RL001 dp-boundary
# ======================================================================

# Taint lattice: CLEAN < NOISED < TAINTED for branch merging.  In
# expression combination, NOISED dominates TAINTED (``estimate + noise``
# is a perturbed value), while at merge points TAINTED dominates (a
# value that is raw on *any* path is a leak).
_CLEAN, _NOISED, _TAINTED = 0, 1, 2

_TAINT_SOURCES = {"estimate", "estimate_many", "true_count", "exact_count"}
_TAINT_ATTRS = {"sample_estimate"}
_SANITIZERS = {"sample_laplace", "sample_laplace_many", "sample_noise", "sample_geometric"}
_PROPAGATORS = {
    "float", "int", "abs", "min", "max", "sum", "round",
    "asarray", "array", "clip", "where", "maximum", "minimum",
    "copy", "astype", "reshape",
}
_ANSWER_SINK_FIELDS = ("value", "raw_value")


class _TaintState:
    __slots__ = ("env",)

    def __init__(self, env: Optional[Dict[str, int]] = None) -> None:
        self.env: Dict[str, int] = dict(env or {})


def _combine_expr(states: Iterable[int]) -> int:
    """Dataflow join inside one expression: noise cleanses taint."""
    result = _CLEAN
    for state in states:
        if state == _NOISED:
            return _NOISED
        if state == _TAINTED:
            result = _TAINTED
    return result


def _merge_branch(a: int, b: int) -> int:
    """Join across control-flow branches: taint on any path survives."""
    return max(a, b)


class DpBoundaryRule(Rule):
    """RL001: count-derived values must be noised before release."""

    rule_id = "RL001"
    name = "dp-boundary"
    rationale = (
        "An exact or sampled count escaping the broker without Laplace "
        "perturbation voids the paper's (eps, eps') guarantee (Def 2.2 / "
        "Theorem 3.5)."
    )

    _MODULES = (
        "repro.core.broker",
        "repro.cluster.broker",
        "repro.streaming.broker",
        "repro.resilience.brownout",
        "repro.resilience.hedging",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module in self._MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                ("answer", "replay")
            ):
                yield from self._check_function(ctx, node)

    # -- per-function taint walk --------------------------------------
    def _check_function(self, ctx: FileContext, func: ast.FunctionDef) -> Iterator[Finding]:
        state = _TaintState()
        yield from self._walk_block(ctx, func.body, state, func.name)

    def _walk_block(
        self,
        ctx: FileContext,
        stmts: List[ast.stmt],
        state: _TaintState,
        func_name: str,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            yield from self._check_sinks(ctx, stmt, state, func_name)
            if isinstance(stmt, ast.Assign):
                value_state = self._classify(stmt.value, state)
                for target in stmt.targets:
                    self._bind(target, value_state, state)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self._classify(stmt.value, state), state)
            elif isinstance(stmt, ast.AugAssign):
                merged = _combine_expr(
                    (self._classify(stmt.target, state), self._classify(stmt.value, state))
                )
                self._bind(stmt.target, merged, state)
            elif isinstance(stmt, ast.If):
                body_state = _TaintState(state.env)
                yield from self._walk_block(ctx, stmt.body, body_state, func_name)
                else_state = _TaintState(state.env)
                yield from self._walk_block(ctx, stmt.orelse, else_state, func_name)
                for var in set(body_state.env) | set(else_state.env):
                    state.env[var] = _merge_branch(
                        body_state.env.get(var, _CLEAN), else_state.env.get(var, _CLEAN)
                    )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind(stmt.target, self._classify(stmt.iter, state), state)
                yield from self._walk_block(ctx, stmt.body, state, func_name)
                yield from self._walk_block(ctx, stmt.orelse, state, func_name)
            elif isinstance(stmt, ast.While):
                yield from self._walk_block(ctx, stmt.body, state, func_name)
                yield from self._walk_block(ctx, stmt.orelse, state, func_name)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._walk_block(ctx, stmt.body, state, func_name)
            elif isinstance(stmt, ast.Try):
                yield from self._walk_block(ctx, stmt.body, state, func_name)
                for handler in stmt.handlers:
                    yield from self._walk_block(ctx, handler.body, state, func_name)
                yield from self._walk_block(ctx, stmt.orelse, state, func_name)
                yield from self._walk_block(ctx, stmt.finalbody, state, func_name)
            # Nested function/class definitions are deliberately skipped:
            # the answer paths under check do not release through closures.

    def _check_sinks(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        state: _TaintState,
        func_name: str,
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if self._classify(stmt.value, state) == _TAINTED:
                yield ctx.finding(
                    self.rule_id,
                    stmt.lineno,
                    stmt.col_offset,
                    f"{func_name} returns a count-derived value that never "
                    "passed through a repro.privacy mechanism "
                    "(sample_laplace/sample_laplace_many)",
                )
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return)):
            value = getattr(stmt, "value", None)
            if value is not None:
                yield from self._check_answer_calls(ctx, value, state, func_name)

    def _check_answer_calls(
        self,
        ctx: FileContext,
        expr: ast.expr,
        state: _TaintState,
        func_name: str,
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            callee = _call_name(node)
            if not callee.endswith("Answer"):
                continue
            for pos, arg in enumerate(node.args[: len(_ANSWER_SINK_FIELDS)]):
                if self._classify(arg, state) == _TAINTED:
                    yield self._sink_finding(ctx, arg, callee, _ANSWER_SINK_FIELDS[pos], func_name)
            for kw in node.keywords:
                if kw.arg in _ANSWER_SINK_FIELDS and self._classify(kw.value, state) == _TAINTED:
                    yield self._sink_finding(ctx, kw.value, callee, kw.arg, func_name)

    def _sink_finding(
        self, ctx: FileContext, node: ast.expr, callee: str, field_name: str, func_name: str
    ) -> Finding:
        return ctx.finding(
            self.rule_id,
            node.lineno,
            node.col_offset,
            f"{func_name} builds {callee}({field_name}=...) from an unperturbed "
            "count estimate; route it through sample_laplace/sample_laplace_many "
            "or the eps'=0 replay path",
        )

    # -- expression classification ------------------------------------
    def _bind(self, target: ast.expr, value_state: int, state: _TaintState) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value_state
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value_state, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value_state, state)
        # Attribute/Subscript targets are not tracked.

    def _classify(self, node: ast.expr, state: _TaintState) -> int:
        if isinstance(node, ast.Name):
            return state.env.get(node.id, _CLEAN)
        if isinstance(node, ast.Constant):
            return _CLEAN
        if isinstance(node, ast.Attribute):
            if node.attr in _TAINT_ATTRS:
                return _TAINTED
            return self._classify(node.value, state)
        if isinstance(node, ast.Call):
            callee = _call_name(node)
            arg_states = [self._classify(arg, state) for arg in node.args]
            arg_states.extend(
                self._classify(kw.value, state) for kw in node.keywords if kw.value is not None
            )
            if callee in _SANITIZERS:
                return _NOISED
            if callee in _TAINT_SOURCES:
                return _TAINTED
            if callee in _PROPAGATORS:
                return _combine_expr(arg_states)
            return _CLEAN
        if isinstance(node, ast.BinOp):
            return _combine_expr(
                (self._classify(node.left, state), self._classify(node.right, state))
            )
        if isinstance(node, ast.UnaryOp):
            return self._classify(node.operand, state)
        if isinstance(node, ast.BoolOp):
            return _combine_expr(self._classify(value, state) for value in node.values)
        if isinstance(node, ast.IfExp):
            return _merge_branch(
                self._classify(node.body, state), self._classify(node.orelse, state)
            )
        if isinstance(node, ast.Subscript):
            return self._classify(node.value, state)
        if isinstance(node, ast.Starred):
            return self._classify(node.value, state)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return max(
                (self._classify(element, state) for element in node.elts), default=_CLEAN
            )
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            inner = _TaintState(state.env)
            for comp in node.generators:
                self._bind(comp.target, self._classify(comp.iter, state), inner)
            return self._classify(node.elt, inner)
        if isinstance(node, ast.NamedExpr):
            value_state = self._classify(node.value, state)
            self._bind(node.target, value_state, state)
            return value_state
        return _CLEAN


# ======================================================================
# RL002 rng-discipline
# ======================================================================

_RNG_ALLOWED_ATTRS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox",
}


class RngDisciplineRule(Rule):
    """RL002: no global or constant-seeded randomness outside tests."""

    rule_id = "RL002"
    name = "rng-discipline"
    rationale = (
        "Bit-identical scalar/batch/cluster answers (the determinism "
        "contract of PRs 1-3) require every random draw to come from an "
        "explicitly seed-threaded np.random.Generator."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        top = ctx.module.split(".", 1)[0]
        if top in ("tests", "conftest"):
            return False
        return not ctx.module.startswith("repro.testing")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        rng_free = ctx.module.startswith("repro.workers")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.rule_id, node.lineno, node.col_offset,
                            "stdlib `random` is a process-global RNG; use a "
                            "seed-threaded np.random.Generator instead",
                        )
                    elif rng_free and alias.name.startswith("numpy.random"):
                        yield ctx.finding(
                            self.rule_id, node.lineno, node.col_offset,
                            "repro.workers must stay RNG-free: Laplace "
                            "draws happen only in the coordinator so the "
                            "noise stream is backend-independent",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        "stdlib `random` is a process-global RNG; use a "
                        "seed-threaded np.random.Generator instead",
                    )
                elif rng_free and node.module and node.module.startswith(
                    "numpy.random"
                ):
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        "repro.workers must stay RNG-free: Laplace draws "
                        "happen only in the coordinator so the noise "
                        "stream is backend-independent",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
                if rng_free:
                    yield from self._check_worker_purity(ctx, node)

    def _check_worker_purity(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        """Inside ``repro.workers`` *any* RNG construction is a finding.

        The worker runtime only re-runs deterministic rank/estimate
        arithmetic; if it ever consumed randomness the threads and
        processes backends could not stay bit-identical under one seed.
        Even a correctly seed-threaded Generator is banned here.
        """
        dotted = _dotted_name(node.func)
        constructs_rng = _call_name(node) == "default_rng" or (
            dotted is not None
            and len(dotted.split(".")) >= 2
            and dotted.split(".")[-2] == "random"
            and dotted.split(".")[0] in ("np", "numpy")
        )
        if constructs_rng:
            yield ctx.finding(
                self.rule_id, node.lineno, node.col_offset,
                "repro.workers must stay RNG-free: estimation offloaded "
                "to workers is pure; Laplace draws happen only in the "
                "coordinator so accounting is backend-independent",
            )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
                if parts[-1] == "seed":
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        "np.random.seed mutates the global RNG and breaks "
                        "answer determinism; construct np.random.default_rng(seed)",
                    )
                elif parts[-1] not in _RNG_ALLOWED_ATTRS:
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        f"np.random.{parts[-1]} draws from the global RNG; "
                        "draw from a seed-threaded Generator instead",
                    )
        if _call_name(node) == "default_rng" and not node.args and not node.keywords:
            yield ctx.finding(
                self.rule_id, node.lineno, node.col_offset,
                "default_rng() with no seed is entropy-seeded and "
                "non-reproducible; thread an explicit seed",
            )
        if _call_name(node) == "field":
            yield from self._check_field_default(ctx, node)

    def _check_field_default(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg != "default_factory" or not isinstance(kw.value, ast.Lambda):
                continue
            for inner in ast.walk(kw.value.body):
                if (
                    isinstance(inner, ast.Call)
                    and _call_name(inner) == "default_rng"
                    and inner.args
                    and all(isinstance(arg, ast.Constant) for arg in inner.args)
                ):
                    yield ctx.finding(
                        self.rule_id, inner.lineno, inner.col_offset,
                        "constant-seeded default RNG is shared by every "
                        "instance; derive the seed from instance identity or "
                        "require the caller to pass a Generator",
                    )


# ======================================================================
# RL003 lock-discipline
# ======================================================================

class LockDisciplineRule(Rule):
    """RL003: ``# guarded-by:`` attributes only under their lock."""

    rule_id = "RL003"
    name = "lock-discipline"
    rationale = (
        "Serving and cluster state mutated from worker pools corrupts "
        "accounting (budgets, deposits, cache stats) unless every access "
        "holds the declared lock."
    )

    _INIT_METHODS = ("__init__", "__post_init__")

    def applies_to(self, ctx: FileContext) -> bool:
        return "guarded-by:" in ctx.source

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded = self._collect_guarded(ctx, cls)
        if not guarded:
            return
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name not in self._INIT_METHODS:
                held: Set[str] = set()
                holds = ctx.comments.holds(node.lineno)
                if holds is None and node.decorator_list:
                    holds = ctx.comments.holds(node.decorator_list[0].lineno)
                if holds is not None:
                    held.add(holds)
                yield from self._check_body(ctx, node.body, guarded, held, node.name)

    def _collect_guarded(self, ctx: FileContext, cls: ast.ClassDef) -> Dict[str, str]:
        guarded: Dict[str, str] = {}
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in self._INIT_METHODS):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                lock = ctx.comments.guarded_by(stmt.lineno)
                if lock is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        guarded[target.attr] = lock
        return guarded

    def _check_body(
        self,
        ctx: FileContext,
        stmts: List[ast.stmt],
        guarded: Dict[str, str],
        held: Set[str],
        method: str,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            yield from self._check_node(ctx, stmt, guarded, held, method)

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        guarded: Dict[str, str],
        held: Set[str],
        method: str,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                yield from self._check_node(ctx, item.context_expr, guarded, held, method)
                lock_name = self._self_attr(item.context_expr)
                if lock_name is not None:
                    acquired.add(lock_name)
            inner = held | acquired
            for stmt in node.body:
                yield from self._check_node(ctx, stmt, guarded, inner, method)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure may run on another thread after the lock is
            # released; it must re-acquire or carry its own annotation.
            nested_held: Set[str] = set()
            holds = ctx.comments.holds(node.lineno)
            if holds is not None:
                nested_held.add(holds)
            for stmt in node.body:
                yield from self._check_node(ctx, stmt, guarded, nested_held, method)
            return
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None and attr in guarded and guarded[attr] not in held:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    node.col_offset,
                    f"{method} touches self.{attr} (guarded-by: {guarded[attr]}) "
                    f"without holding self.{guarded[attr]}; wrap in `with "
                    f"self.{guarded[attr]}:` or annotate the method "
                    f"`# holds: {guarded[attr]}`",
                )
            yield from self._check_node(ctx, node.value, guarded, held, method)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._check_node(ctx, child, guarded, held, method)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None


# ======================================================================
# RL004 accounting-floats
# ======================================================================

_MONEY_TOKENS = {
    "price", "prices", "priced", "budget", "budgets", "epsilon", "eps",
    "cost", "costs", "revenue", "deposit", "deposits", "balance",
    "spend", "spent", "charge", "charged", "payment", "fee", "fees",
}


class AccountingFloatsRule(Rule):
    """RL004: no ``==``/``!=`` on money or ε expressions."""

    rule_id = "RL004"
    name = "accounting-floats"
    rationale = (
        "Budget, price and epsilon values are floating-point sums of "
        "per-query charges; exact equality silently diverges after a few "
        "hundred accumulations.  Use math.isclose or integer micro-units."
    )

    _MODULE_PREFIXES = ("repro.pricing",)
    _MODULES = ("repro.core.policy",)

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module in self._MODULES:
            return True
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self._MODULE_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_exempt_operand(operand) for operand in operands):
                continue
            term = next(
                (self._money_term(operand) for operand in operands
                 if self._money_term(operand) is not None),
                None,
            )
            if term is not None:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    node.col_offset,
                    f"exact ==/!= on accounting value `{term}`; use "
                    "math.isclose(..., rel_tol=...) or integer micro-units",
                )

    @staticmethod
    def _is_exempt_operand(node: ast.expr) -> bool:
        # `x == None` / string-tag comparisons are identity/dispatch
        # checks, not numeric accounting.
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, str)
        )

    @staticmethod
    def _money_term(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            symbol = node.id
        elif isinstance(node, ast.Attribute):
            symbol = node.attr
        else:
            return None
        tokens = {token for token in symbol.lower().split("_") if token}
        return symbol if tokens & _MONEY_TOKENS else None


# ======================================================================
# RL005 broad-except
# ======================================================================

_BROAD_NAMES = {"Exception", "BaseException"}
_METRIC_METHODS = {"inc", "observe", "set_gauge"}


class BroadExceptRule(Rule):
    """RL005: broad handlers must re-raise, count a metric, or be shed-annotated."""

    rule_id = "RL005"
    name = "broad-except"
    rationale = (
        "A swallowed Exception in the serving or collection path hides "
        "accounting drift and failed releases; every broad handler must "
        "leave a trace (re-raise or MetricsRegistry count) or be an "
        "annotated load-shedding path."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.split(".", 1)[0] not in ("tests", "conftest")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if self._is_broad(handler) and not self._is_justified(ctx, handler):
                        yield ctx.finding(
                            self.rule_id,
                            handler.lineno,
                            handler.col_offset,
                            "broad except swallows errors silently; re-raise, "
                            "count a MetricsRegistry metric, or annotate "
                            "`# repro-lint: shed`",
                        )

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        candidates: List[ast.expr] = (
            list(handler.type.elts) if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        return any(
            isinstance(candidate, ast.Name) and candidate.id in _BROAD_NAMES
            for candidate in candidates
        )

    def _is_justified(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        if ctx.comments.is_shed(handler.lineno):
            return True
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
            ):
                return True
        return False


# ======================================================================
# RL006 journal-before-release
# ======================================================================

class JournalBeforeReleaseRule(Rule):
    """RL006: broker answer paths journal the trade before releasing it."""

    rule_id = "RL006"
    name = "journal-before-release"
    rationale = (
        "The durable trade journal is only a crash-safety guarantee if "
        "every release path appends to it before the answer leaves the "
        "broker: journal-after-release (or charge-before-journal) lets a "
        "crash release an answer whose ε-spend recovery cannot see."
    )

    _MODULES = (
        "repro.core.broker",
        "repro.core.settle",
        "repro.cluster.broker",
        "repro.streaming.broker",
        "repro.resilience.brownout",
        "repro.resilience.hedging",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module in self._MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                ("answer", "replay")
            ):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        journal_lines: List[int] = []
        returns: List[ast.Return] = []
        for node in self._walk_own_scope(func.body):
            if isinstance(node, ast.Call) and self._is_journal_call(node):
                journal_lines.append(node.lineno)
            elif isinstance(node, ast.Return) and node.value is not None:
                returns.append(node)
        for ret in returns:
            if self._is_delegation(ret.value):
                # Returning another answer*/replay* call's result: that
                # callee carries the journaling obligation.
                continue
            if not any(line <= ret.lineno for line in journal_lines):
                yield ctx.finding(
                    self.rule_id,
                    ret.lineno,
                    ret.col_offset,
                    f"{func.name} releases an answer without a preceding "
                    "write-ahead journal append; call self._journal_trades("
                    "...) (or journal.append/append_many) before the return "
                    "(journal-before-release)",
                )

    @staticmethod
    def _walk_own_scope(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
        """Walk the function body without descending into nested scopes.

        The guard must sit on the *yielded* node, not its children: a
        nested ``def`` that is a direct statement of the body would
        otherwise have its own body expanded, and a helper closure's
        ``return`` would be misread as the answer function's release.
        """
        stack: List[ast.AST] = list(stmts)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_journal_call(node: ast.Call) -> bool:
        callee = _call_name(node)
        if callee.startswith("_journal"):
            return True
        if callee in ("append", "append_many"):
            dotted = _dotted_name(node.func)
            return dotted is not None and "journal" in dotted.lower()
        return False

    @staticmethod
    def _is_delegation(expr: Optional[ast.expr]) -> bool:
        node = expr
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Call) and _call_name(node).startswith(
            ("answer", "replay")
        )


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
default_registry.register(DpBoundaryRule)
default_registry.register(RngDisciplineRule)
default_registry.register(LockDisciplineRule)
default_registry.register(AccountingFloatsRule)
default_registry.register(BroadExceptRule)
default_registry.register(JournalBeforeReleaseRule)

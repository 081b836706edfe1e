"""Determinism-reachability rule pack (``R050``–``R053``, project scope).

The per-file determinism pack (R010/R011) flags nondeterministic calls
and environment reads *wherever they occur*; it cannot say whether a
given ``random.random()`` actually matters.  This pack adds the missing
judgement, and is the only check for order-unstable cache keys: it walks
the project call graph (:mod:`repro.analysis.callgraph`) from the
**determinism roots** — the functions whose output must be bit-identical
across processes and reruns — and flags hazards that are *transitively
reachable* from them, each finding carrying a witness call chain.

Roots
-----
* **cache-key constructors** — functions whose names mark them as
  digest/key construction (``model_digest``, ``plan_cache_key``, …);
* **``plan_cached``** — the manager entry point whose results are
  persisted under those keys;
* **pool-worker entry points** — functions submitted to a process pool
  or installed as its ``initializer=`` (they run in worker processes
  whose outputs feed the shared cache; these are the process-isolated
  roots of :mod:`repro.analysis.threadroots`);
* **serve request handlers** — functions named ``handle_*`` (the
  ``repro serve`` endpoint contract): their responses are served from
  and stored into the shared plan cache, so anything nondeterministic
  they can reach would leak divergent payloads to clients.

Rules
-----
* **R050** — a nondeterministic call (RNG, wall clock, pid, uuid) is
  reachable from any root; error.
* **R051** — an environment read is reachable from any root; warning,
  like its per-file sibling R011 — configuration boundaries are
  sometimes intentional, but a reachable one needs an explicit
  ``noqa[R051]`` sign-off *in addition to* the local ``noqa[R011]``.
* **R052** — unordered set iteration is reachable from the cache-key
  path (the key constructors themselves included).
* **R053** — ``json.dumps`` without ``sort_keys=True`` is reachable from
  the cache-key path (the key constructors themselves included).

R050/R051 anchor at the hazardous call itself (same line as the
R010/R011 finding, so one ``noqa`` comment can carry both codes).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .callgraph import CallGraph
from .determinism_rules import (
    _ENV_READ_CALLS,
    _NondeterminismVisitor,
    import_map,
    resolve_call_target,
)
from .findings import Finding
from .rules import Project, rule
from .threadroots import threads_for

#: Function names that construct digests / cache keys (the key roots).
_DIGEST_CONTEXT = re.compile(r"digest|fingerprint|canonical|hash|(?:^|_)key")


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression evidently evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@dataclass(frozen=True)
class _Source:
    """One hazardous construct found inside a function body."""

    kind: str  # "nondet" | "env" | "set" | "json"
    node: ast.AST
    detail: str


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """All nodes of a function body, excluding nested def/class bodies.

    Lambda bodies are *included*: a lambda has no call-graph identity of
    its own, so hazards inside it belong to the enclosing function
    (``cache.fetch(key, lambda: plan(...))`` runs in the caller).
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _function_sources(
    func: ast.AST, aliases: dict[str, str]
) -> list[_Source]:
    """Hazard sources inside one function's own body."""
    sources: list[_Source] = []
    for node in _own_nodes(func):
        if isinstance(node, ast.Call):
            target = resolve_call_target(node.func, aliases)
            if target is None:
                continue
            if target in _ENV_READ_CALLS:
                sources.append(_Source("env", node, f"{target}()"))
            elif _NondeterminismVisitor._is_nondeterministic(target, node):
                sources.append(_Source("nondet", node, f"{target}()"))
            elif target == "json.dumps":
                sorts = any(
                    kw.arg == "sort_keys"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
                if not sorts:
                    sources.append(
                        _Source("json", node, "json.dumps without sort_keys")
                    )
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target = resolve_call_target(node.value, aliases)
            if target == "os.environ":
                sources.append(_Source("env", node, "os.environ[...]"))
        else:
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    sources.append(
                        _Source("set", node, "iteration over an unordered set")
                    )
    return sources


class ReachAnalysis:
    """Shared reachability state for the R050–R053 checkers."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.graph = graph

        #: qualname → hazard sources inside that function's own body.
        self.sources: dict[str, list[_Source]] = {}
        for qualname, info in graph.functions.items():
            found = _function_sources(info.node, import_map(info.file.tree))
            if found:
                self.sources[qualname] = found

        self.key_roots = {
            qualname
            for qualname, info in graph.functions.items()
            if _DIGEST_CONTEXT.search(info.name.lower())
        }
        self.cache_roots = {
            qualname
            for qualname, info in graph.functions.items()
            if info.name == "plan_cached"
        }
        self.worker_roots = {
            qualname
            for qualname, root in threads_for(project).roots.items()
            if root.isolated
        }
        self.serve_roots = {
            qualname
            for qualname, info in graph.functions.items()
            if info.name.startswith("handle_")
        }

        all_roots = (
            self.key_roots
            | self.cache_roots
            | self.worker_roots
            | self.serve_roots
        )
        #: reached qualname → witness chain, from every root.
        self.reach_all = graph.reachable_from(all_roots)
        #: reached qualname → witness chain, from the cache-key path only.
        self.reach_keys = graph.reachable_from(self.key_roots | self.cache_roots)


def reach_for(project: Project) -> ReachAnalysis:
    """The project's reachability state, computed once and cached."""
    graph = project.callgraph()
    cached: ReachAnalysis | None = getattr(graph, "_reach_cache", None)
    if cached is None:
        cached = ReachAnalysis(project, graph)
        setattr(graph, "_reach_cache", cached)
    return cached


def _chain_str(chain: tuple[str, ...]) -> str:
    """Human-readable witness chain (``repro.`` prefixes dropped)."""
    shown = [q[len("repro.") :] if q.startswith("repro.") else q for q in chain]
    return " -> ".join(shown)


def _emit(
    reach: ReachAnalysis,
    reached: dict[str, tuple[str, ...]],
    kind: str,
    code: str,
    describe: str,
) -> Iterator[Finding]:
    """Findings for every ``kind`` source inside the reached set."""
    for qualname in sorted(reached):
        info = reach.graph.functions[qualname]
        chain = reached[qualname]
        for source in reach.sources.get(qualname, ()):
            if source.kind != kind:
                continue
            yield info.file.finding(
                code,
                source.node,
                f"{source.detail} in {qualname}() is reachable from "
                f"determinism root {_chain_str(chain[:1])} "
                f"(call chain: {_chain_str(chain)}); {describe}",
            )


@rule("R050", scope="project")
def check_reachable_nondeterminism(project: Project) -> Iterator[Finding]:
    """Flag RNG/clock/pid calls reachable from a determinism root."""
    reach = reach_for(project)
    yield from _emit(
        reach,
        reach.reach_all,
        "nondet",
        "R050",
        "cached results and worker outputs must be bit-identical across "
        "processes and reruns",
    )


@rule("R051", scope="project")
def check_reachable_environment_reads(project: Project) -> Iterator[Finding]:
    """Flag environment reads reachable from a determinism root."""
    reach = reach_for(project)
    yield from _emit(
        reach,
        reach.reach_all,
        "env",
        "R051",
        "an intentional configuration boundary on this path needs an "
        "explicit noqa[R051] sign-off",
    )


@rule("R052", scope="project")
def check_reachable_set_iteration(project: Project) -> Iterator[Finding]:
    """Flag unordered set iteration reachable from the cache-key path."""
    reach = reach_for(project)
    yield from _emit(
        reach,
        reach.reach_keys,
        "set",
        "R052",
        "set order varies with PYTHONHASHSEED, so the serialized key "
        "diverges between worker processes",
    )


@rule("R053", scope="project")
def check_reachable_unsorted_json(project: Project) -> Iterator[Finding]:
    """Flag unsorted json.dumps reachable from the cache-key path."""
    reach = reach_for(project)
    yield from _emit(
        reach,
        reach.reach_keys,
        "json",
        "R053",
        "dict order leaks into the serialized key; pass sort_keys=True",
    )

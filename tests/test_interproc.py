"""Tests for the interprocedural analysis layer.

Covers: the project-wide call graph (qualnames, import/re-export
resolution, method dispatch, decorator transparency, reference edges),
the unit lattice and its transfer functions, the unit-flow rules
(R040–R044) and determinism-reachability rules (R050–R053) on seeded
fixture packages, one rule per hazard (one finding per site, one checker
per catalog code), the SARIF 2.1.0 export, content-addressed
fingerprints, and the lint wall-time budget.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.analysis import ALL_RULE_CODES, Finding, all_rules, analyze_paths
from repro.analysis.callgraph import build_callgraph, module_name
from repro.analysis.rules import Project, SourceFile
from repro.analysis.unitflow import (
    divide_units,
    join_units,
    multiply_units,
    name_unit,
)
from repro.cli import main
from repro.report.diagnostics import validate_sarif_payload
from repro.report.sarif import FINGERPRINT_KEY, sarif_payload

REPO_ROOT = Path(__file__).resolve().parent.parent


def active_codes(findings) -> set[str]:
    """Codes of the findings that still gate."""
    return {f.code for f in findings if f.active}


def mini_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a throwaway project (with a pyproject.toml root marker)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='fixture'\n")
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def parse_project(files: dict[str, str]) -> Project:
    """Build an in-memory Project from {relpath: source} (no disk)."""
    sources = tuple(
        SourceFile.parse(Path(rel), rel, text) for rel, text in files.items()
    )
    return Project(root=Path("."), files=sources)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------


def test_module_name_strips_src_and_init() -> None:
    assert module_name("src/repro/experiments/cache.py") == "repro.experiments.cache"
    assert module_name("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name("pkg/mod.py") == "pkg.mod"


def test_callgraph_direct_and_imported_calls() -> None:
    project = parse_project(
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
            "pkg/b.py": "from pkg.a import helper\n\ndef caller():\n    return helper()\n",
        }
    )
    graph = build_callgraph(project)
    assert "pkg.a.helper" in graph.callees("pkg.a.top")
    assert "pkg.a.helper" in graph.callees("pkg.b.caller")


def test_callgraph_relative_import_and_reexport() -> None:
    project = parse_project(
        {
            "pkg/__init__.py": "from .inner import worker\n",
            "pkg/inner.py": "def worker():\n    return 0\n",
            "pkg/user.py": (
                "from . import worker\n"
                "from .inner import worker as w2\n"
                "def a():\n    return worker()\n"
                "def b():\n    return w2()\n"
            ),
            "other.py": "import pkg\n\ndef c():\n    return pkg.worker()\n",
        }
    )
    graph = build_callgraph(project)
    assert "pkg.inner.worker" in graph.callees("pkg.user.a")
    assert "pkg.inner.worker" in graph.callees("pkg.user.b")
    # attribute access through the package re-export resolves too
    assert "pkg.inner.worker" in graph.callees("other.c")


def test_callgraph_method_dispatch_and_qualnames() -> None:
    project = parse_project(
        {
            "pkg/m.py": (
                "class Manager:\n"
                "    def plan(self):\n"
                "        return self._inner()\n"
                "    def _inner(self):\n"
                "        return 1\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.m.Manager.plan" in graph.functions
    assert graph.functions["pkg.m.Manager.plan"].is_method
    assert "pkg.m.Manager._inner" in graph.callees("pkg.m.Manager.plan")


def test_callgraph_decorated_functions_keep_identity() -> None:
    project = parse_project(
        {
            "pkg/d.py": (
                "import functools\n"
                "from functools import lru_cache\n"
                "@lru_cache(maxsize=None)\n"
                "def cached():\n    return 1\n"
                "@functools.wraps(cached)\n"
                "def wrapper():\n    return cached()\n"
                "def entry():\n    return wrapper()\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.d.cached" in graph.callees("pkg.d.wrapper")
    assert "pkg.d.wrapper" in graph.callees("pkg.d.entry")


def test_callgraph_reference_edges_for_escaping_functions() -> None:
    project = parse_project(
        {
            "pkg/p.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def worker(x):\n    return x\n"
                "def init():\n    pass\n"
                "def run():\n"
                "    with ProcessPoolExecutor(initializer=init) as pool:\n"
                "        return pool.submit(worker, 1)\n"
            ),
        }
    )
    graph = build_callgraph(project)
    assert "pkg.p.worker" in graph.callees("pkg.p.run")
    assert "pkg.p.init" in graph.callees("pkg.p.run")


def test_callgraph_reachability_witness_chain() -> None:
    project = parse_project(
        {
            "pkg/r.py": (
                "def c():\n    return 0\n"
                "def b():\n    return c()\n"
                "def a():\n    return b()\n"
            ),
        }
    )
    graph = build_callgraph(project)
    chains = graph.reachable_from({"pkg.r.a"})
    assert chains["pkg.r.c"] == ("pkg.r.a", "pkg.r.b", "pkg.r.c")


# ----------------------------------------------------------------------
# Unit lattice
# ----------------------------------------------------------------------


def test_name_unit_suffixes_and_rates() -> None:
    assert name_unit("tile_bytes") == "bytes"
    assert name_unit("nbytes") == "bytes"
    assert name_unit("glb_kb") == "kib"
    assert name_unit("energy_pj") == "pj"
    assert name_unit("bytes_per_cycle") == "rate:bytes/cycles"
    assert name_unit("bytes_per_elem") == "rate:bytes/elems"
    assert name_unit("alpha") is None


def test_unit_transfer_functions() -> None:
    assert join_units("bytes", "bytes") == "bytes"
    assert join_units("bytes", "unitless") == "bytes"
    assert join_units("bytes", "elems") is None  # conflict → unknown result
    assert multiply_units("elems", "bytes") == "bytes"
    assert multiply_units("cycles", "rate:bytes/cycles") == "bytes"
    assert divide_units("bytes", "bytes") == "unitless"
    assert divide_units("bytes", "elems") == "rate:bytes/elems"
    assert divide_units("bytes", "rate:bytes/cycles") == "cycles"
    assert divide_units("bytes", None) is None  # unknown normalizer


# ----------------------------------------------------------------------
# Unit-flow rules (R040–R044)
# ----------------------------------------------------------------------


def test_r040_fires_on_cross_module_unit_mismatch(tmp_path: Path) -> None:
    """A _bytes value crossing a call boundary into an _elems parameter."""
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/size.py": (
                "def tile_bytes(n: int) -> int:\n"
                "    return n * 4\n"
            ),
            "pkg/plan.py": (
                "from pkg.size import tile_bytes\n"
                "def place(tile_elems: int) -> int:\n"
                "    return tile_elems\n"
                "def plan(n: int) -> int:\n"
                "    return place(tile_bytes(n))\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R040" in active_codes(report)
    (finding,) = [f for f in report if f.code == "R040"]
    assert "tile_elems" in finding.message and "bytes" in finding.message


def test_r041_fires_on_return_boundary_mismatch(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def glb_bytes(n_elems: int) -> int:\n"
                "    return n_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R041" in active_codes(report)


def test_r042_fires_on_cross_unit_assignment(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(n_elems: int) -> int:\n"
                "    total_bytes = n_elems\n"
                "    return total_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R042" in active_codes(report)


def test_r043_fires_through_return_units(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def footprint_bytes() -> int:\n    return 64\n",
            "pkg/b.py": (
                "from pkg.a import footprint_bytes\n"
                "def latency_cycles() -> int:\n    return 10\n"
                "def mix() -> int:\n"
                "    total = footprint_bytes() + latency_cycles()\n"
                "    return total\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    (finding,) = [f for f in report.active if f.code == "R043"]
    assert "footprint_bytes()" in finding.message


def test_r044_fires_on_cast_misuse(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/arch/__init__.py": "",
            "pkg/arch/units.py": (
                "def kib(n: int) -> int:\n"
                "    return n * 1024\n"
                "def to_kib(nbytes: int) -> int:\n"
                "    return nbytes // 1024\n"
            ),
            "pkg/use.py": (
                "from pkg.arch.units import kib, to_kib\n"
                "def wrong(n_elems: int, buf_bytes: int) -> int:\n"
                "    return to_kib(n_elems) + kib(buf_bytes)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r044 = [f for f in report if f.code == "R044" and f.active]
    assert len(r044) == 2  # to_kib(elems) and kib(bytes) both flagged
    # the helpers themselves are sanctioned: no R041 on their bodies
    assert not any(
        f.code == "R041" and "units.py" in f.path for f in report
    )


def test_unitflow_clean_on_consistent_units(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def tile_bytes(n_elems: int) -> int:\n    return n_elems * 4\n",
            "pkg/b.py": (
                "from pkg.a import tile_bytes\n"
                "def fits(budget_bytes: int, n_elems: int) -> bool:\n"
                "    return tile_bytes(n_elems) <= budget_bytes\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert not active_codes(report) & {"R040", "R041", "R042", "R043", "R044"}


# ----------------------------------------------------------------------
# Determinism-reachability rules (R050–R053)
# ----------------------------------------------------------------------


def test_r050_fires_on_rng_reachable_from_key_path(tmp_path: Path) -> None:
    """random.random() two calls below make_key must fire with a chain."""
    root = mini_project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/noise.py": (
                "import random\n"
                "def jitter():\n"
                "    return random.random()\n"
            ),
            "pkg/keys.py": (
                "from pkg.noise import jitter\n"
                "def salt():\n"
                "    return jitter()\n"
                "def make_key(name: str) -> str:\n"
                "    return f'{name}-{salt()}'\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r050 = [f for f in report if f.code == "R050" and f.active]
    assert r050, "reachable RNG must fire R050"
    assert any(
        "make_key" in f.message and "->" in f.message for f in r050
    ), "finding must carry the witness call chain"


def test_r051_fires_on_reachable_env_read(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/cfg.py": (
                "import os\n"
                "def lookup():\n"
                "    return os.environ.get('KNOB')\n"
                "def plan_cached():\n"
                "    return lookup()\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R051" in active_codes(report)


def test_r052_r053_fire_on_helpers_below_key_functions(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/ser.py": (
                "import json\n"
                "def gather(items):\n"
                "    return [x for x in set(items)]\n"
                "def encode(payload):\n"
                "    return json.dumps(payload)\n"
                "def cache_key(items, payload):\n"
                "    return str(gather(items)) + encode(payload)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    codes = active_codes(report)
    assert "R052" in codes and "R053" in codes


# ----------------------------------------------------------------------
# One rule per hazard
# ----------------------------------------------------------------------


def test_single_hazard_site_yields_one_finding(tmp_path: Path) -> None:
    """A mixed-unit or unsorted-key site is reported once, by one rule."""
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "import json\n"
                "def fits(a_bytes, b_elems):\n"
                "    if a_bytes:\n"
                "        return a_bytes + b_elems\n"
                "def cache_key(items, payload):\n"
                "    for item in set(items):\n"
                "        payload[item] = 1\n"
                "    return json.dumps(payload)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert sorted((f.line, f.code) for f in report.active) == [
        (4, "R043"),
        (6, "R052"),
        (8, "R053"),
    ]


def test_every_catalog_code_has_one_checker_that_runs(
    tmp_path: Path, monkeypatch
) -> None:
    """Each code but R000 (the parse itself) is bound to exactly one
    checker, and a lint runs every one of them."""
    registry = all_rules()
    codes = [rule.code for rule in registry]
    assert len(codes) == len(set(codes))
    assert set(codes) == set(ALL_RULE_CODES) - {"R000"}
    ran: list[str] = []
    for code, bound in list(registry.rules.items()):

        def spy(target, _check=bound.check, _code=code):
            ran.append(_code)
            return _check(target)

        monkeypatch.setitem(registry.rules, code, replace(bound, check=spy))
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    analyze_paths([root], root=root)
    assert sorted(set(ran)) == sorted(codes)


def test_r050_noqa_at_source_line_suppresses(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/k.py": (
                "import random\n"
                "def make_key():\n"
                "    return random.random()  "
                "# repro: noqa[R010,R050] -- test seam\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert not active_codes(report) & {"R010", "R050"}
    assert {"R010", "R050"} <= {f.code for f in report.suppressed}


def test_pool_workers_are_determinism_roots(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/w.py": (
                "import time\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def work(x):\n"
                "    return time.time()\n"
                "def run():\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return pool.submit(work, 1)\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    r050 = [f for f in report if f.code == "R050" and f.active]
    assert any("work" in f.message for f in r050)


def test_reachability_clean_when_hazard_not_reachable(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "import random\n"
                "def shuffle_demo():\n"
                "    return random.random()\n"
                "def make_key(name: str) -> str:\n"
                "    return name\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    assert "R050" not in active_codes(report)  # R010 still fires, R050 not


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------


def test_sarif_payload_validates_and_carries_fingerprints(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    assert validate_sarif_payload(payload) == []
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    result = next(r for r in run["results"] if r["ruleId"] == "R043")
    fp = result["partialFingerprints"][FINGERPRINT_KEY]
    (finding,) = [f for f in report if f.code == "R043"]
    assert fp == finding.fingerprint()
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "R043" in rule_ids


def test_sarif_marks_suppressed_findings(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems  # repro: noqa[R043] -- ok\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    payload = sarif_payload(report)
    result = next(
        r for r in payload["runs"][0]["results"] if r["ruleId"] == "R043"
    )
    assert result["suppressions"] == [
        {"kind": "inSource", "justification": "repro: noqa marker"}
    ]


def test_sarif_cli_output_validates(tmp_path: Path, capsys) -> None:
    root = mini_project(
        tmp_path, {"pkg/x.py": "def f():\n    return 1\n"}
    )
    code = main(["lint", str(root), "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert validate_sarif_payload(payload) == []
    assert payload["version"] == "2.1.0"


def test_sarif_validator_rejects_malformed() -> None:
    assert validate_sarif_payload({"version": "2.1.0"})  # no runs
    bad = {
        "version": "2.0.0",
        "runs": [
            {
                "tool": {"driver": {"name": "x", "rules": []}},
                "results": [{"ruleId": 5}],
            }
        ],
    }
    problems = validate_sarif_payload(bad)
    assert any("version" in p for p in problems)
    assert any("ruleId" in p for p in problems)


# ----------------------------------------------------------------------
# Content-addressed fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_survives_line_and_message_changes() -> None:
    a = Finding(
        code="R010", path="m.py", line=3, message="old wording",
        snippet="    x = random.random()",
    )
    b = Finding(
        code="R010", path="m.py", line=99, message="new wording",
        snippet="x = random.random()",  # re-indented
    )
    assert a.fingerprint() == b.fingerprint()
    changed = Finding(
        code="R010", path="m.py", line=3, message="old wording",
        snippet="x = random.SystemRandom().random()",
    )
    assert a.fingerprint() != changed.fingerprint()


def test_findings_carry_source_snippets(tmp_path: Path) -> None:
    root = mini_project(
        tmp_path,
        {
            "pkg/x.py": (
                "def f(a_bytes: int, b_elems: int) -> int:\n"
                "    return a_bytes + b_elems\n"
            ),
        },
    )
    report = analyze_paths([root], root=root)
    (finding,) = [f for f in report if f.code == "R043"]
    assert finding.snippet.strip() == "return a_bytes + b_elems"
    assert finding.normalized_snippet() == "return a_bytes + b_elems"


# ----------------------------------------------------------------------
# Wall-time budget
# ----------------------------------------------------------------------


def test_report_measures_wall_time(tmp_path: Path) -> None:
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    report = analyze_paths([root], root=root)
    assert report.duration_seconds > 0.0
    assert "wall time" in report.render()


def test_cli_max_seconds_budget_gates(tmp_path: Path, capsys) -> None:
    root = mini_project(tmp_path, {"pkg/x.py": "def f():\n    return 1\n"})
    assert main(["lint", str(root), "--max-seconds", "60"]) == 0
    assert main(["lint", str(root), "--max-seconds", "0.000001"]) == 1
    assert "exceeds" in capsys.readouterr().err

"""Golden plan corpus: planner output pinned byte for byte.

``tests/data/plan_digests.json`` holds, per planning case, the sha256 of
the exported plan (``plan_to_dict``) and of its decision trail
(``plan.explain()``), both serialized with sorted keys.  Any change to a
winner, a tie-break, an audit reason or an estimator value shows up here
as a digest mismatch, so refactors of the planner core can prove that
every plan, audit trail and cache payload stayed identical.

The corpus covers the whole zoo across the GLB range under both
objectives, every homogeneous family, both inter-layer modes, planning
without prefetch, a non-default data width and DRAM-backed specs.

Regenerate the digests (only when a plan change is intended) with::

    PYTHONPATH=src python tests/test_plan_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable

import pytest

from repro.analyzer import (
    ExecutionPlan,
    Objective,
    plan_heterogeneous,
    plan_homogeneous,
    plan_to_dict,
)
from repro.arch import AcceleratorSpec, kib
from repro.dram import DEFAULT_DDR4_SPEC
from repro.nn.zoo import ALL_MODEL_NAMES, PAPER_MODEL_NAMES, get_model
from repro.policies.registry import NAMED_POLICIES

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "plan_digests.json"

HET_GLB_KB = (32, 64, 256, 1024, 2048)
OBJECTIVES = (Objective.ACCESSES, Objective.LATENCY)
DRAM_CASES = (("SqueezeNet", 512), ("AlexNet", 512))

PlanThunk = Callable[[], ExecutionPlan | None]


def _cases() -> dict[str, PlanThunk]:
    """Every corpus case, keyed by a stable id."""
    cases: dict[str, PlanThunk] = {}

    def het(name: str, spec: AcceleratorSpec, objective: Objective, **kw) -> PlanThunk:
        return lambda: plan_heterogeneous(get_model(name), spec, objective, **kw)

    for name in ALL_MODEL_NAMES:
        for glb_kb in HET_GLB_KB:
            spec = AcceleratorSpec(glb_bytes=kib(glb_kb))
            for objective in OBJECTIVES:
                cases[f"het/{name}/{glb_kb}KiB/{objective.value}"] = het(
                    name, spec, objective
                )

    spec64 = AcceleratorSpec(glb_bytes=kib(64))
    # The default width is 8 bits; 16 exercises the bytes-per-element scaling.
    wide64 = replace(spec64, data_width_bits=16)
    for name in PAPER_MODEL_NAMES:
        for policy in NAMED_POLICIES:
            family = policy.name
            cases[f"hom({family})/{name}/64KiB"] = (
                lambda name=name, family=family: plan_homogeneous(
                    get_model(name), spec64, family
                )
            )
        for mode in ("opportunistic", "joint"):
            cases[f"het+il({mode})/{name}/64KiB"] = het(
                name, spec64, Objective.ACCESSES, interlayer=True, interlayer_mode=mode
            )
        cases[f"het(no-prefetch)/{name}/64KiB"] = het(
            name, spec64, Objective.ACCESSES, allow_prefetch=False
        )
        cases[f"het(16-bit)/{name}/64KiB"] = het(name, wide64, Objective.ACCESSES)

    for name, glb_kb in DRAM_CASES:
        dram_spec = AcceleratorSpec(glb_bytes=kib(glb_kb)).with_dram(DEFAULT_DDR4_SPEC)
        cases[f"het(dram)/{name}/{glb_kb}KiB"] = het(
            name, dram_spec, Objective.ACCESSES
        )
    return cases


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digests(plan: ExecutionPlan | None) -> dict[str, str] | None:
    """sha256 of the sorted-key plan export and explain payload."""
    if plan is None:
        return None
    return {
        "plan": _sha256(json.dumps(plan_to_dict(plan), sort_keys=True)),
        "explain": _sha256(json.dumps(plan.explain().to_payload(), sort_keys=True)),
    }


CASES = _cases()


@functools.cache
def _golden() -> dict[str, dict[str, str] | None]:
    return json.loads(DIGESTS_PATH.read_text())


def test_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_plan_matches_golden_digest(case_id):
    assert plan_digests(CASES[case_id]()) == _golden()[case_id], case_id


if __name__ == "__main__":
    digests = {case_id: plan_digests(CASES[case_id]()) for case_id in sorted(CASES)}
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")

"""Seeded op streams of the three workloads.

Every choice comes from SHA-256 digests of strings that start with the
seed, so the same seed gives the same ops on any machine and no global
``random`` state is touched.  The streams are balanced by construction,
so that the work in a run barely depends on the seed:

* ``plan-cold`` runs rounds of plan requests plus one GLB sweep per
  model; round 0 plans every (model, GLB) pair once in the ``het`` family
  and once as ``hom``, and no request repeats across the rounds.
* ``plan-dram`` runs rounds over the nine models.  A model's group is one
  DRAM mapping and its four GLB sizes in ascending order; within a round
  each mapping serves exactly three models, and over three rounds every
  (model, GLB, mapping) triple appears once.
* ``serve-hot`` is :func:`repro.serve.loadgen.request_mix` over the paper
  zoo and four GLB sizes (drawn in the worker, not here).

The first round of each plan workload (its ``core`` ops) has a fixed
composition that the seed only reorders: the simulated metrics sum over
it, so they repeat exactly on every seed, and every run times the same
core of work.  The seed draws everything after it.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

#: plan-cold GLB ladder, KiB (12 steps).
COLD_LADDER_KIB: tuple[int, ...] = (
    32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048,
)

#: Sweep GLB ladder, KiB: between the plan ladder's steps, so a sweep
#: never warms the evaluation memo for a plan request.
SWEEP_LADDER_KIB: tuple[int, ...] = (
    40, 56, 80, 112, 160, 224, 320, 448, 640, 896, 1280, 1792,
)

#: Sweep ladders: every window of six consecutive sweep-ladder steps.
SWEEP_WINDOW = 6

#: (label, scheme, interlayer, interlayer_mode) of the plan-cold schemes.
COLD_SCHEMES: tuple[tuple[str, str, bool, str], ...] = (
    ("het", "het", False, "opportunistic"),
    ("het+il", "het", True, "opportunistic"),
    ("het+il(joint)", "het", True, "joint"),
    ("hom", "hom", False, "opportunistic"),
)

OBJECTIVES: tuple[str, ...] = ("accesses", "latency")


#: plan-dram GLB sizes, KiB, in the order a group plans them.
DRAM_GLB_KIB: tuple[int, ...] = (128, 256, 512, 1024)

#: serve-hot GLB sizes, KiB.
SERVE_GLB_KIB: tuple[int, ...] = (32, 64, 128, 256)


def digest(*parts: object) -> bytes:
    """SHA-256 of ``"<part0>:<part1>:..."``; the first part is the seed."""
    return hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()


def seeded_order(seed: int, tag: str, items: Sequence[object]) -> list:
    """``items`` sorted by the digest of (seed, tag, item): a seeded shuffle."""
    return sorted(items, key=lambda item: digest(seed, tag, item))


@dataclass(frozen=True)
class PlanOp:
    """One ``MemoryManager.plan_cached_detail`` request (plan-cold)."""

    index: int
    model: str
    glb_kib: int
    objective: str
    scheme: str  #: label from :data:`COLD_SCHEMES`
    core: bool  #: in the fixed-composition first round


@dataclass(frozen=True)
class SweepOp:
    """One ``experiments.sweep.glb_sweep`` request (plan-cold)."""

    index: int
    model: str
    ladder_kib: tuple[int, ...]
    objective: str
    core: bool


@dataclass(frozen=True)
class DramOp:
    """One DRAM-backed plan plus its plan-level DRAM simulation (plan-dram)."""

    index: int
    model: str
    glb_kib: int
    mapping: str
    objective: str
    core: bool


def _plan_blocks(seed: int, position: int, model: str) -> list[list[tuple[int, str, str]]]:
    """One model's 96 plan requests as blocks over the 12 GLB sizes.

    A GLB step ``g`` has six ``het``-family and two ``hom`` (objective,
    scheme) combinations.  Block 0 takes ``het`` combination
    ``(position + g) mod 6`` and ``hom`` combination ``(position + g) mod 2``
    for every step, so it does not depend on the seed and every request in
    it plans a (model, GLB) pair cold; later blocks take the remaining
    combinations in a seeded order.  Every request occurs exactly once.
    """
    het = [(o, label) for o in OBJECTIVES for label, scheme, *_ in COLD_SCHEMES if scheme == "het"]
    hom = [(o, label) for o in OBJECTIVES for label, scheme, *_ in COLD_SCHEMES if scheme == "hom"]
    blocks: list[list[tuple[int, str, str]]] = []
    for g, glb in enumerate(COLD_LADDER_KIB):
        firsts = [het[(position + g) % len(het)], hom[(position + g) % len(hom)]]
        rest = [c for c in het + hom if c not in firsts]
        for b, (objective, label) in enumerate(
            [*firsts, *seeded_order(seed, f"combos-{model}-{glb}", rest)]
        ):
            rnd = 0 if b < len(firsts) else b - len(firsts) + 1
            while len(blocks) <= rnd:
                blocks.append([])
            blocks[rnd].append((glb, objective, label))
    return blocks


def _sweeps(seed: int, position: int, model: str) -> list[tuple[tuple[int, ...], str]]:
    """One model's 14 sweeps; the first two (disjoint halves of the sweep
    ladder) are fixed by the model's position, the rest seeded."""
    windows = [
        SWEEP_LADDER_KIB[start : start + SWEEP_WINDOW]
        for start in range(len(SWEEP_LADDER_KIB) - SWEEP_WINDOW + 1)
    ]
    firsts = [
        (windows[0], OBJECTIVES[position % 2]),
        (windows[-1], OBJECTIVES[(position + 1) % 2]),
    ]
    rest = [(w, o) for w in windows for o in OBJECTIVES if (w, o) not in firsts]
    return [*firsts, *seeded_order(seed, f"sweep-{model}", rest)]


def plan_cold_rounds(seed: int, models: Sequence[str]) -> list[list[PlanOp | SweepOp]]:
    """The seven rounds of the plan-cold stream.

    Round ``r`` holds block ``r`` of every model's plan requests and its
    sweeps (two per model in round 0, one later), as slots of twelve plan
    ops and one sweep in a seeded order.  Round 0 (286 ops: every model
    and GLB size planned once in the ``het`` family and once as ``hom``,
    and two cold sweeps per model) has a fixed composition; no request
    repeats in the stream.
    """
    blocks = {m: _plan_blocks(seed, p, m) for p, m in enumerate(models)}
    sweeps = {m: _sweeps(seed, p, m) for p, m in enumerate(models)}
    rounds: list[list[PlanOp | SweepOp]] = []
    index = 0
    for rnd in range(len(blocks[models[0]])):
        plans = seeded_order(
            seed, f"cold-round{rnd}", [(m, *request) for m in models for request in blocks[m][rnd]]
        )
        sweep_models = seeded_order(
            seed, f"sweep-round{rnd}", [m for m in models for _ in range(2 if rnd == 0 else 1)]
        )
        per_slot = len(plans) // len(sweep_models)
        ops: list[PlanOp | SweepOp] = []
        for slot, sweep_model in enumerate(sweep_models):
            for model, glb, objective, label in plans[slot * per_slot : (slot + 1) * per_slot]:
                ops.append(PlanOp(index, model, glb, objective, label, rnd == 0))
                index += 1
            window, objective = sweeps[sweep_model].pop(0)
            ops.append(SweepOp(index, sweep_model, tuple(window), objective, rnd == 0))
            index += 1
        rounds.append(ops)
    return rounds


def plan_dram_rounds(
    seed: int, models: Sequence[str], mappings: Sequence[str]
) -> list[list[DramOp]]:
    """All ``len(mappings)`` rounds of the plan-dram stream.

    Round ``r`` gives the model at list position ``p`` the mapping
    ``(p + r) mod 3``, so each round uses every mapping for a third of the
    models and no triple repeats across rounds.  Round 0 fixes the
    objectives too (``(p + g) mod 2`` for GLB step ``g``), so its
    composition does not depend on the seed; the seed orders the models of
    every round and draws the objectives of later rounds from
    ``digest(seed, i)``.
    """
    rounds: list[list[DramOp]] = []
    index = 0
    for rnd in range(len(mappings)):
        ops: list[DramOp] = []
        for model in seeded_order(seed, f"dram-round{rnd}", models):
            position = list(models).index(model)
            mapping = mappings[(position + rnd) % len(mappings)]
            for g, glb in enumerate(DRAM_GLB_KIB):
                pick = (position + g) if rnd == 0 else digest(seed, index)[0]
                objective = OBJECTIVES[pick % 2]
                ops.append(DramOp(index, model, glb, mapping, objective, rnd == 0))
                index += 1
        rounds.append(ops)
    return rounds

"""Tile-search parity against the reference loop, plus planner type pins.

:class:`~repro.policies.tiled.TiledFallback` scores the whole tile grid as
NumPy arrays; ``tests/reference_tiled.py`` keeps the original
candidate-at-a-time loop.  These tests run both over every zoo layer and
hypothesis-fuzzed random chains, at several budgets with and without
prefetch, and require the same plan and the same capacity signature.
Whole-plan byte identity is pinned by the golden corpus
(``tests/test_plan_golden.py``).  The remaining tests pin Algorithm 1's
stable tie-break, its reject reasons, and the exact Python types of every
:class:`~repro.estimators.PolicyEvaluation` field so NumPy scalars can
never leak into plans (and from there into cache keys or JSON output).
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import Objective, plan_heterogeneous, plan_to_dict, select_policy
from repro.analyzer.algorithm1 import _reject_reason, _select_index
from repro.arch import AcceleratorSpec, kib
from repro.estimators import evaluate_layer
from repro.nn import LayerKind, LayerSpec, make_model
from repro.nn.zoo import ALL_MODEL_NAMES, get_model
from repro.policies.tiled import TiledFallback

from .reference_tiled import reference_plan, reference_signature

TILED = TiledFallback()


def _assert_matches_reference(layer: LayerSpec, budget_elems: int) -> None:
    for prefetch in (False, True):
        args = (layer, budget_elems, prefetch)
        context = f"{layer.name} @ {budget_elems} elems, prefetch={prefetch}"
        assert TILED.plan(*args) == reference_plan(*args), context
        assert TILED.capacity_signature(*args) == reference_signature(*args), context


def test_zoo_plans_byte_identical_scalar_vs_vectorized():
    """Every distinct zoo layer shape: same tile-search winner as the
    reference loop, from budgets that force width tiling to roomy ones."""
    layers = {
        replace(layer, name=""): layer
        for name in ALL_MODEL_NAMES
        for layer in get_model(name).layers
    }
    for glb_kb in (8, 64, 1024):
        budget = AcceleratorSpec(glb_bytes=kib(glb_kb)).glb_elems
        for layer in layers.values():
            _assert_matches_reference(layer, budget)


@st.composite
def chain_models(draw):
    """Random sequential CNNs (1–4 conv/pw/dw layers, consistent shapes)."""
    num_layers = draw(st.integers(1, 4))
    hw = draw(st.sampled_from([8, 16, 28, 33]))
    channels = draw(st.integers(2, 16))
    layers = []
    for i in range(num_layers):
        kind = draw(
            st.sampled_from([LayerKind.CONV, LayerKind.POINTWISE, LayerKind.DEPTHWISE])
        )
        if kind is LayerKind.POINTWISE:
            f, pad = 1, 0
        else:
            f, pad = draw(st.sampled_from([(3, 1), (5, 2)]))
        stride = draw(st.sampled_from([1, 2]))
        # Depth-wise layers are modeled as a single grouped filter.
        num_filters = 1 if kind is LayerKind.DEPTHWISE else draw(st.integers(2, 24))
        layer = LayerSpec(
            name=f"l{i}",
            kind=kind,
            in_h=hw,
            in_w=hw,
            in_c=channels,
            f_h=f,
            f_w=f,
            num_filters=num_filters,
            stride=stride,
            padding=pad,
        )
        layers.append(layer)
        hw, channels = layer.out_h, layer.out_c
    return make_model("fuzz-chain", layers)


@settings(max_examples=30, deadline=None)
@given(
    model=chain_models(),
    glb=st.sampled_from([kib(8), kib(32), kib(64), kib(256)]),
    width=st.sampled_from([8, 16]),
)
def test_fuzzed_plans_byte_identical_scalar_vs_vectorized(model, glb, width):
    budget = AcceleratorSpec(glb_bytes=glb, data_width_bits=width).glb_elems
    for layer in model.layers:
        _assert_matches_reference(layer, budget)


# ----------------------------------------------------------------------
# Satellite: explicitly stable tie-breaking
# ----------------------------------------------------------------------


def _twin_evaluations(conv_layer, spec64):
    """Two candidates with *identical* metrics but distinct labels."""
    evaluations = evaluate_layer(conv_layer, spec64, allow_prefetch=False)
    first = evaluations[0]
    twin = replace(first, plan=replace(first.plan, policy_name="twin"))
    assert twin.accesses_bytes == first.accesses_bytes
    assert twin.latency_cycles == first.latency_cycles
    assert twin.label != first.label
    return first, twin


def test_tie_break_keeps_earlier_candidate(conv_layer, spec64):
    """On exact key ties Algorithm 1 must keep the earlier-listed candidate."""
    first, twin = _twin_evaluations(conv_layer, spec64)
    for objective in (Objective.ACCESSES, Objective.LATENCY):
        assert select_policy([first, twin], objective) is first
        assert select_policy([twin, first], objective) is twin
        assert _select_index([first, twin], objective) == 0


# ----------------------------------------------------------------------
# Satellite: truthful sub-cycle reject reasons
# ----------------------------------------------------------------------


def test_reject_reason_subcycle_delta_is_not_zero_cycles(conv_layer, spec64):
    first, _ = _twin_evaluations(conv_layer, spec64)
    slower = replace(
        first,
        plan=replace(first.plan, policy_name="slow"),
        latency=replace(
            first.latency, total_cycles=first.latency.total_cycles + 0.4
        ),
    )
    reason = _reject_reason(slower, first, Objective.ACCESSES)
    assert "<1 cycle slower" in reason
    assert "0 cycles slower" not in reason
    # Whole-cycle deltas keep the historical wording.
    much_slower = replace(
        slower,
        latency=replace(first.latency, total_cycles=first.latency.total_cycles + 7),
    )
    assert "7 cycles slower" in _reject_reason(much_slower, first, Objective.ACCESSES)


def test_audit_trail_records_subcycle_reason(conv_layer, spec64):
    first, _ = _twin_evaluations(conv_layer, spec64)
    slower = replace(
        first,
        plan=replace(first.plan, policy_name="slow"),
        latency=replace(
            first.latency, total_cycles=first.latency.total_cycles + 0.25
        ),
    )
    audit = []
    select_policy([first, slower], Objective.ACCESSES, audit=audit)
    rejected = [r for r in audit if not r.chosen]
    assert len(rejected) == 1
    assert "<1 cycle slower" in rejected[0].reason


# ----------------------------------------------------------------------
# Satellite: no NumPy scalar leakage into PolicyEvaluation
# ----------------------------------------------------------------------


def test_policy_evaluation_field_types_are_native(conv_layer, spec64):
    """Exact Python types: int64/float64 leakage would poison cached plans,
    cache keys and JSON exports."""
    evaluations = evaluate_layer(conv_layer, spec64, always_fallback=True)
    assert evaluations
    for ev in evaluations:
        assert type(ev.memory_bytes) is int, ev.label
        assert type(ev.accesses_bytes) is int, ev.label
        assert type(ev.read_bytes) is int, ev.label
        assert type(ev.write_bytes) is int, ev.label
        assert type(ev.latency.total_cycles) is float, ev.label
        assert type(ev.latency.compute_cycles) is float, ev.label
        assert type(ev.latency.dma_cycles) is float, ev.label


def test_plan_assignment_types_survive_json_round_trip(conv_layer, spec64):
    model = make_model("one", [conv_layer])
    plan = plan_heterogeneous(model, spec64)
    payload = plan_to_dict(plan)
    # json.dumps would coerce NumPy scalars silently on some versions and
    # crash on others; byte-compare an explicit round trip instead.
    assert json.loads(json.dumps(payload)) == payload

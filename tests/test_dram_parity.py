"""DRAM replay parity: the replay core against ``tests/reference_dram.py``.

Every ``DramStats`` field must be byte-identical to the original
object-per-request replay, for the candidate schedules the planner prices
on the DRAM-backed workload (plain and donation-transformed, under every
mapping) and for small odd devices drawn by Hypothesis: non-power-of-two
bus rates, fewer banks than operands, rows that wrap, and regions whose
base is not row-aligned.

Tier-1 compares the candidate streams of at most
:data:`TIER1_MAX_SEGMENTS` row segments (about three in four of them; the
reference needs minutes for the long rest).  Run the module as a script
to compare every stream::

    PYTHONPATH=src python -m tests.test_dram_parity
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.plan import transformed_schedule
from repro.arch import AcceleratorSpec, kib
from repro.dram import (
    DEFAULT_DDR4_SPEC,
    MAPPING_NAMES,
    DramAccess,
    DramSpec,
    Region,
    get_mapping,
    layer_regions,
    schedule_accesses,
    simulate_accesses,
    simulate_schedule,
)
from repro.estimators import evaluate_layer
from repro.estimators.evaluate import clear_evaluation_memo
from repro.nn.layer import LayerKind, LayerSpec
from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
from repro.policies.base import LayerSchedule, StepGroup

from . import reference_dram

#: The DRAM-backed benchmark workload's models and the GLB sizes compared.
PARITY_MODELS = PAPER_MODEL_NAMES + ("AlexNet", "SqueezeNet", "ResNet34")
PARITY_GLB_KIB = (128, 1024)

#: (receives, donates): the plain schedule and the three donation transforms.
TRANSFORMS = ((False, False), (True, False), (False, True), (True, True))

#: Tier-1 skips candidate streams with more row segments than this.
TIER1_MAX_SEGMENTS = 800


def _segments(schedule: LayerSchedule) -> int:
    """Upper estimate of the stream's row segments (the reference's cost)."""
    chunks = (schedule.resident_ifmap > 0) + (schedule.resident_filters > 0)
    chunks += sum(
        g.count * ((g.ifmap > 0) + (g.filters > 0) + (g.store > 0))
        for g in schedule.groups
    )
    moved = schedule.total_load + schedule.total_store  # 8-bit elements
    return chunks + moved // DEFAULT_DDR4_SPEC.row_bytes


def candidate_streams(
    models: tuple[str, ...], max_segments: int | None
) -> list[tuple[LayerSchedule, LayerSpec]]:
    """Distinct (schedule, layer shape) pairs the het planner prices."""
    seen: dict[tuple[LayerSchedule, LayerSpec], LayerSpec] = {}
    for model in models:
        for layer in get_model(model).layers:
            shape = replace(layer, name="")
            for glb_kib in PARITY_GLB_KIB:
                spec = AcceleratorSpec(glb_bytes=kib(glb_kib))
                for evaluation in evaluate_layer(layer, spec, always_fallback=True):
                    for receives, donates in TRANSFORMS:
                        schedule = transformed_schedule(
                            evaluation.plan.schedule, receives, donates
                        )
                        if max_segments is None or _segments(schedule) <= max_segments:
                            seen.setdefault((schedule, shape), layer)
    return [(schedule, layer) for (schedule, _), layer in seen.items()]


def mismatches(streams: list[tuple[LayerSchedule, LayerSpec]]) -> list[str]:
    """Streams whose stats differ from the reference, under every mapping."""
    out = []
    for name in MAPPING_NAMES:
        mapping = get_mapping(name)
        for schedule, layer in streams:
            got = simulate_schedule(schedule, layer, 1, DEFAULT_DDR4_SPEC, name)
            want = reference_dram.simulate_schedule(
                schedule, layer, 1, DEFAULT_DDR4_SPEC, mapping
            )
            if got != want:
                out.append(f"{layer.name} {name}: {got} != {want}")
    return out


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_evaluation_memo()
    yield
    clear_evaluation_memo()


@pytest.fixture(scope="module")
def tier1_streams():
    return candidate_streams(PARITY_MODELS, TIER1_MAX_SEGMENTS)


def test_candidate_streams_match_reference(tier1_streams):
    assert len(tier1_streams) > 4500  # of 6,236 distinct candidate streams
    assert mismatches(tier1_streams) == []


def test_tier1_streams_include_multipass_wraps(tier1_streams):
    """The capped set still re-reads regions, so region cursors wrap."""
    wraps = 0
    for schedule, layer in tier1_streams:
        ifmap, filters, _ = layer_regions(schedule, layer, 1, DEFAULT_DDR4_SPEC)
        wraps += schedule.total_ifmap_load > ifmap.size
        wraps += schedule.total_filter_load > filters.size
    assert wraps > 100


def test_lowering_matches_reference():
    layer = get_model("ResNet18").layers[0]
    spec = AcceleratorSpec(glb_bytes=kib(128))
    for evaluation in evaluate_layer(layer, spec, always_fallback=True):
        schedule = evaluation.plan.schedule
        regions = layer_regions(schedule, layer, 2, DEFAULT_DDR4_SPEC)
        assert schedule_accesses(schedule, regions, 2) == (
            reference_dram.schedule_accesses(schedule, regions, 2)
        )


# ----------------------------------------------------------------------
# Small odd devices
# ----------------------------------------------------------------------


@st.composite
def odd_specs(draw: st.DrawFn) -> DramSpec:
    burst = draw(st.sampled_from([4, 8, 16]))
    return DramSpec(
        channels=draw(st.integers(1, 3)),
        banks_per_channel=draw(st.integers(1, 4)),  # < 3 wraps partition_banks
        rows_per_bank=draw(st.integers(1, 4)),  # tiny: rows wrap
        row_bytes=burst * draw(st.integers(1, 6)),
        burst_bytes=burst,
        channel_bytes_per_cycle=draw(st.sampled_from([3, 5, 6, 7, 8, 12])),
        t_rcd=draw(st.integers(0, 20)),
        t_rp=draw(st.integers(0, 20)),
        t_cas=draw(st.integers(0, 20)),
        mapping=draw(st.sampled_from(MAPPING_NAMES)),
    )


@st.composite
def small_layers(draw: st.DrawFn) -> LayerSpec:
    f = draw(st.integers(1, 3))
    return LayerSpec(
        name="fuzz",
        kind=LayerKind.CONV,
        in_h=draw(st.integers(f, 6)),
        in_w=draw(st.integers(f, 6)),
        in_c=draw(st.integers(1, 4)),
        f_h=f,
        f_w=f,
        num_filters=draw(st.integers(1, 4)),
        padding=draw(st.integers(0, 1)),
    )


@st.composite
def small_schedules(draw: st.DrawFn) -> LayerSchedule:
    groups = tuple(
        StepGroup(
            count=draw(st.integers(1, 8)),
            ifmap=draw(st.integers(0, 90)),
            filters=draw(st.integers(0, 90)),
            macs=1,
            store=draw(st.integers(0, 90)),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    return LayerSchedule(
        groups=groups,
        resident_ifmap=draw(st.integers(0, 120)),
        resident_filters=draw(st.integers(0, 120)),
    )


@settings(max_examples=150, deadline=None)
@given(
    spec=odd_specs(),
    layer=small_layers(),
    schedule=small_schedules(),
    bytes_per_elem=st.integers(1, 3),
)
def test_odd_devices_match_reference(spec, layer, schedule, bytes_per_elem):
    clear_evaluation_memo()
    mapping = get_mapping(spec.mapping)
    got = simulate_schedule(schedule, layer, bytes_per_elem, spec)
    assert got == reference_dram.simulate_schedule(
        schedule, layer, bytes_per_elem, spec, mapping
    )


@st.composite
def misaligned_streams(
    draw: st.DrawFn,
) -> tuple[DramSpec, tuple[Region, ...], list[DramAccess]]:
    spec = draw(odd_specs())
    row = spec.row_bytes
    regions = []
    base = draw(st.integers(0, 3 * row))
    for index in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4 * row))
        regions.append(
            Region(
                name=f"r{index}",
                index=index,
                base=base,
                size=size,
                traffic=draw(st.integers(0, 4 * row)),
            )
        )
        base += size + draw(st.integers(0, row))  # rarely row-aligned
    accesses = []
    for _ in range(draw(st.integers(1, 30))):
        region = draw(st.integers(0, len(regions) - 1))
        accesses.append(
            DramAccess(
                region=region,
                offset=draw(st.integers(0, regions[region].size - 1)),
                nbytes=draw(st.integers(1, 3 * row)),
                write=draw(st.booleans()),
            )
        )
    return spec, tuple(regions), accesses


@settings(max_examples=150, deadline=None)
@given(stream=misaligned_streams())
def test_misaligned_regions_match_reference(stream):
    spec, regions, accesses = stream
    for name in MAPPING_NAMES:
        mapping = get_mapping(name)
        assert simulate_accesses(accesses, regions, spec, mapping) == (
            reference_dram.simulate_accesses(accesses, regions, spec, mapping)
        )


if __name__ == "__main__":
    every_stream = candidate_streams(PARITY_MODELS, None)
    found = mismatches(every_stream)
    for line in found:
        print(line)
    print(
        f"{len(every_stream)} streams x {len(MAPPING_NAMES)} mappings, "
        f"{len(found)} mismatches"
    )
    sys.exit(1 if found else 0)

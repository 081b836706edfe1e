"""Schedule → DRAM address stream, and per-layer DRAM simulation.

The policies already emit exact per-step load/store schedules
(:class:`~repro.policies.base.LayerSchedule`).  This module lowers one
such schedule to the banked-DRAM access stream the backend consumes:

* each operand tensor gets a row-aligned :class:`~repro.dram.mapping.Region`
  (ifmap at its padded traffic footprint, filters, ofmap), laid out
  contiguously the way a simple allocator would place them;
* a cursor per region turns the per-step chunk sizes into sequential
  addresses — ifmap and filter loads advance (and wrap, for multi-pass
  policies), stores advance the ofmap cursor;
* steps interleave their ifmap / filter / store chunks in issue order,
  which is exactly what creates row-buffer conflicts under mappings that
  let operands share banks.

:func:`simulate_schedule` feeds the requests straight into the backend's
replay core, as plain tuples, and memoizes the result on the stream's
identity: the schedule's traffic, the layer's tensor footprints, the
element width, the device and the mapping.  The planner prices the same
candidate schedule several times, layers of one shape share a stream, and
the plan-level simulation and the verifier ask again after planning; each
distinct stream is replayed once.  :func:`dram_effective_bandwidth`
reduces it to the one number the latency estimator and the step-level
engine consume: delivered elements per cycle.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable, Iterator

from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule
from .backend import DramAccess, DramStats, Request, replay
from .mapping import MappingPolicy, Region, get_mapping
from .spec import DramSpec

#: Region indices of the three operand streams.
IFMAP, FILTERS, OFMAP = 0, 1, 2


def _align_up(value: int, quantum: int) -> int:
    return -(-value // quantum) * quantum


def layer_regions(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
) -> tuple[Region, ...]:
    """The layer's three operand regions, allocated contiguously.

    Bases are row-aligned (as a page-granular allocator would place them)
    so two operands never share a row block; sizes are the tensors' DRAM
    footprints and ``traffic`` records the bytes the schedule actually
    moves (the reuse-aware mapping weights bank shares by it).
    """
    sizes = (
        layer.ifmap_padded_elems * bytes_per_elem,
        layer.filter_elems * bytes_per_elem,
        layer.ofmap_elems * bytes_per_elem,
    )
    traffics = (
        schedule.total_ifmap_load * bytes_per_elem,
        schedule.total_filter_load * bytes_per_elem,
        schedule.total_store * bytes_per_elem,
    )
    names = ("ifmap", "filters", "ofmap")
    regions = []
    base = 0
    for index, (name, size, traffic) in enumerate(zip(names, sizes, traffics)):
        regions.append(
            Region(name=name, index=index, base=base, size=size, traffic=traffic)
        )
        base += _align_up(size, dram.row_bytes)
    return tuple(regions)


def schedule_accesses(
    schedule: LayerSchedule,
    regions: tuple[Region, ...],
    bytes_per_elem: int,
) -> list[DramAccess]:
    """Lower a streaming schedule to the DRAM request stream it implies."""
    return [
        DramAccess(region, offset, nbytes, write)
        for region, offset, nbytes, write in _requests(
            schedule, regions, bytes_per_elem
        )
    ]


def simulate_accesses(
    accesses: Iterable[DramAccess],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Replay an access stream through the row-buffer state machine."""
    return replay(
        ((a.region, a.offset, a.nbytes, a.write) for a in accesses),
        regions,
        spec,
        mapping,
    )


def _requests(
    schedule: LayerSchedule,
    regions: tuple[Region, ...],
    bytes_per_elem: int,
) -> Iterator[Request]:
    """The schedule's requests, in the order its steps send them."""
    cursors = [0, 0, 0]
    sizes = [region.size for region in regions]
    # (repeat count, (region, elements, write) per operand) for each step.
    steps: list[tuple[int, tuple[tuple[int, int, bool], ...]]] = [
        (1, ((IFMAP, schedule.resident_ifmap, False), (FILTERS, schedule.resident_filters, False)))
    ]
    steps += [
        (g.count, ((IFMAP, g.ifmap, False), (FILTERS, g.filters, False), (OFMAP, g.store, True)))
        for g in schedule.groups
    ]
    for count, step in steps:
        chunks = [(region, elems * bytes_per_elem, write) for region, elems, write in step if elems]
        for _ in range(count):
            for region, nbytes, write in chunks:
                # Sequential within the region; wraps for multi-pass re-reads.
                cursor = cursors[region]
                size = sizes[region]
                if cursor + nbytes < size:
                    yield region, cursor, nbytes, write
                    cursors[region] = cursor + nbytes
                    continue
                while nbytes > 0:
                    chunk = size - cursor
                    if chunk > nbytes:
                        chunk = nbytes
                    yield region, cursor, chunk, write
                    cursor += chunk
                    if cursor == size:
                        cursor = 0
                    nbytes -= chunk
                cursors[region] = cursor


def simulate_schedule(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
    mapping: MappingPolicy | str | None = None,
) -> DramStats:
    """Trace-simulate one layer's schedule on the banked DRAM.

    Memoized on the stream's identity (:func:`_stream_key`): a schedule
    is replayed once per distinct stream, however many layers, planner
    passes and checks ask for it.
    """
    policy = _resolve_mapping(dram, mapping)
    key = _stream_key(schedule, layer, bytes_per_elem, dram, policy)
    stats = _memo_get(key)
    if stats is None:
        regions = layer_regions(schedule, layer, bytes_per_elem, dram)
        stats = replay(
            _requests(schedule, regions, bytes_per_elem), regions, dram, policy
        )
        _memo_put(key, stats)
    return stats


def _resolve_mapping(dram: DramSpec, mapping: MappingPolicy | str | None) -> MappingPolicy:
    if mapping is None:
        return get_mapping(dram.mapping)
    if isinstance(mapping, str):
        return get_mapping(mapping)
    return mapping


#: Entries the stream memo keeps (least recently used dropped first).
STREAM_MEMO_SIZE = 65536

_stream_memo: dict[Hashable, DramStats] = {}
_stream_memo_lock = threading.Lock()


def _stream_key(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
    policy: MappingPolicy,
) -> Hashable:
    """Everything the replay reads: equal keys mean equal request streams.

    The layer contributes only its three tensor footprints (not its name
    or MAC count), and each step group only its traffic, so layers of the
    same shape share one replay.
    """
    return (
        schedule.resident_ifmap,
        schedule.resident_filters,
        tuple((g.count, g.ifmap, g.filters, g.store) for g in schedule.groups),
        layer.ifmap_padded_elems,
        layer.filter_elems,
        layer.ofmap_elems,
        bytes_per_elem,
        dram,
        policy,
    )


def _memo_get(key: Hashable) -> DramStats | None:
    with _stream_memo_lock:
        stats = _stream_memo.pop(key, None)
        if stats is not None:
            _stream_memo[key] = stats  # most recently used last
        return stats


def _memo_put(key: Hashable, stats: DramStats) -> None:
    with _stream_memo_lock:
        _stream_memo[key] = stats
        if len(_stream_memo) > STREAM_MEMO_SIZE:
            del _stream_memo[next(iter(_stream_memo))]


def clear_stream_memo() -> None:
    """Drop every memoized stream (cold-start benches)."""
    with _stream_memo_lock:
        _stream_memo.clear()


def dram_effective_bandwidth(
    schedule: LayerSchedule,
    layer: LayerSpec,
    dram: DramSpec,
    bytes_per_elem: int,
    flat_elems_per_cycle: float,
) -> float:
    """Delivered off-chip bandwidth of the schedule, in elements/cycle.

    Runs the trace-driven backend over the schedule's address stream under
    the device's configured mapping policy and averages the delivered rate
    over the whole stream.  Falls back to ``flat_elems_per_cycle`` for
    schedules that move no data.  The stream memo is consulted first, so
    a :func:`simulate_schedule` call from here is exactly a memo miss.
    """
    key = _stream_key(
        schedule, layer, bytes_per_elem, dram, _resolve_mapping(dram, None)
    )
    stats = _memo_get(key)
    if stats is None:
        stats = simulate_schedule(schedule, layer, bytes_per_elem, dram)
    if stats.cycles <= 0.0:
        return flat_elems_per_cycle
    total_elems = stats.total_bytes // bytes_per_elem
    return total_elems / stats.cycles

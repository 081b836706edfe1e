"""Reference DRAM replay: the original object-per-request implementation.

:func:`repro.dram.trace.simulate_schedule` lowers a schedule straight into
the backend's replay core, which walks plain request tuples against flat
per-bank lists and resolves rows through a per-region block table.  This
module keeps the implementation it replaced — one :class:`DramAccess` per
request, one ``layout.locate`` call and one ``(channel, bank)`` dict entry
per row segment — as the oracle the parity tests compare ``DramStats``
against, field for field.
"""

from __future__ import annotations

from repro.dram.backend import DramAccess, DramStats
from repro.dram.mapping import AddressLayout, MappingPolicy, Region
from repro.dram.spec import DramSpec
from repro.dram.trace import FILTERS, IFMAP, OFMAP, layer_regions
from repro.nn.layer import LayerSpec
from repro.policies.base import LayerSchedule


class _BankState:
    """Open row and readiness time of one DRAM bank."""

    __slots__ = ("open_row", "free_at")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.free_at = 0.0


def schedule_accesses(
    schedule: LayerSchedule,
    regions: tuple[Region, ...],
    bytes_per_elem: int,
) -> list[DramAccess]:
    """Lower a streaming schedule to the DRAM request stream it implies."""
    accesses: list[DramAccess] = []
    cursors = [0, 0, 0]
    sizes = [region.size for region in regions]

    def emit(region: int, nbytes: int, write: bool) -> None:
        # Sequential within the region; wraps for multi-pass re-reads.
        remaining = nbytes
        while remaining > 0:
            cursor = cursors[region]
            chunk = min(remaining, sizes[region] - cursor)
            accesses.append(
                DramAccess(region=region, offset=cursor, nbytes=chunk, write=write)
            )
            cursors[region] = (cursor + chunk) % sizes[region]
            remaining -= chunk

    if schedule.resident_ifmap:
        emit(IFMAP, schedule.resident_ifmap * bytes_per_elem, False)
    if schedule.resident_filters:
        emit(FILTERS, schedule.resident_filters * bytes_per_elem, False)
    for group in schedule.groups:
        ifmap_bytes = group.ifmap * bytes_per_elem
        filter_bytes = group.filters * bytes_per_elem
        store_bytes = group.store * bytes_per_elem
        for _ in range(group.count):
            if ifmap_bytes:
                emit(IFMAP, ifmap_bytes, False)
            if filter_bytes:
                emit(FILTERS, filter_bytes, False)
            if store_bytes:
                emit(OFMAP, store_bytes, True)
    return accesses


def simulate_accesses(
    accesses: list[DramAccess] | tuple[DramAccess, ...],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Replay an access stream through the row-buffer state machine."""
    layout: AddressLayout = mapping.layout(spec, regions)
    row_bytes = spec.row_bytes
    burst_bytes = spec.burst_bytes
    bus_rate = spec.channel_bytes_per_cycle

    bus = [0.0] * spec.channels
    banks: dict[tuple[int, int], _BankState] = {}

    reads = writes = bursts = hits = misses = 0

    for access in accesses:
        offset = access.offset
        remaining = access.nbytes
        if access.write:
            writes += access.nbytes
        else:
            reads += access.nbytes
        while remaining > 0:
            seg_bytes = min(remaining, row_bytes - offset % row_bytes)
            channel, bank_idx, row = layout.locate(access.region, offset)
            bank = banks.setdefault((channel, bank_idx), _BankState())
            seg_bursts = -(-seg_bytes // burst_bytes)
            bursts += seg_bursts
            if bank.open_row == row:
                hits += seg_bursts
                start = max(bus[channel], bank.free_at)
            else:
                misses += 1
                hits += seg_bursts - 1
                penalty = spec.row_open_penalty if bank.open_row is None else (
                    spec.row_miss_penalty
                )
                bank.open_row = row
                start = max(bus[channel], bank.free_at + penalty)
            end = start + seg_bytes / bus_rate
            bus[channel] = end
            bank.free_at = end
            offset += seg_bytes
            remaining -= seg_bytes

    total_bytes = reads + writes
    cycles = max(bus) if total_bytes else 0.0
    return DramStats(
        reads_bytes=reads,
        writes_bytes=writes,
        bursts=bursts,
        row_hits=hits,
        row_misses=misses,
        activations=misses,
        cycles=cycles,
        ideal_cycles=total_bytes / spec.peak_bytes_per_cycle,
        act_energy_pj=misses * spec.act_pj,
        read_energy_pj=reads * spec.read_pj_per_byte,
        write_energy_pj=writes * spec.write_pj_per_byte,
    )


def simulate_schedule(
    schedule: LayerSchedule,
    layer: LayerSpec,
    bytes_per_elem: int,
    dram: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Trace-simulate one layer's schedule the original way."""
    regions = layer_regions(schedule, layer, bytes_per_elem, dram)
    accesses = schedule_accesses(schedule, regions, bytes_per_elem)
    return simulate_accesses(accesses, regions, dram, mapping)

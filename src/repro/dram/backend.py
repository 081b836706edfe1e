"""Trace-driven banked-DRAM backend.

:func:`replay` consumes a stream of ``(region, offset, nbytes, write)``
requests (lowered from a policy's streaming schedule, or from a list of
:class:`DramAccess`, by :mod:`repro.dram.trace`), resolves each through a
mapping policy's :class:`~repro.dram.mapping.AddressLayout` and replays
it against a row-buffer state machine:

* every access is split at row boundaries into *segments* (one
  (channel, bank, row) touch each);
* a segment whose row is already open in its bank proceeds at the bus
  rate (every burst a row hit);
* a segment targeting a different row pays precharge + activate + CAS
  before its first burst (one row *activation*; the remaining bursts of
  the segment are hits);
* requests are queued ahead of time (the schedule is static), so a bank
  can precharge/activate in the shadow of other banks' transfers — bank
  parallelism — while each channel's data bus serializes its transfers.

The result is a :class:`DramStats`: row hits/misses, activations,
occupancy cycles per channel, effective bandwidth and per-component
energy.  By construction ``cycles >= ideal_cycles`` (the flat
peak-bandwidth bound) — the invariant the verifier's ``V018`` code
re-checks for every DRAM-backed plan.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..obs import get_tracer, metrics_registry
from .mapping import AddressLayout, MappingPolicy, Region
from .spec import DramSpec


@dataclass(frozen=True)
class DramAccess:
    """One request of the off-chip stream (all bytes of one step chunk)."""

    region: int  #: index into the layer's region tuple
    offset: int  #: byte offset within the region
    nbytes: int  #: request length in bytes
    write: bool = False

    def __post_init__(self) -> None:
        if self.region < 0 or self.offset < 0 or self.nbytes <= 0:
            raise ValueError("invalid DRAM access")


@dataclass(frozen=True)
class DramStats:
    """Row-buffer statistics and timing of one simulated access stream."""

    reads_bytes: int = 0
    writes_bytes: int = 0
    bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
    cycles: float = 0.0
    ideal_cycles: float = 0.0
    act_energy_pj: float = 0.0
    read_energy_pj: float = 0.0
    write_energy_pj: float = 0.0

    @property
    def total_bytes(self) -> int:
        """Bytes moved in either direction."""
        return self.reads_bytes + self.writes_bytes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of bursts served from an open row."""
        return self.row_hits / self.bursts if self.bursts else 0.0

    @property
    def stall_cycles(self) -> float:
        """Cycles lost versus the zero-overhead peak-bandwidth bound."""
        return max(0.0, self.cycles - self.ideal_cycles)

    @property
    def effective_bytes_per_cycle(self) -> float:
        """Delivered bandwidth over the whole stream."""
        return self.total_bytes / self.cycles if self.cycles else 0.0

    @property
    def energy_pj(self) -> float:
        """Total off-chip energy (activation + read + write)."""
        return self.act_energy_pj + self.read_energy_pj + self.write_energy_pj

    def merged(self, other: "DramStats") -> "DramStats":
        """Aggregate of two sequential streams (cycles add)."""
        return DramStats(
            reads_bytes=self.reads_bytes + other.reads_bytes,
            writes_bytes=self.writes_bytes + other.writes_bytes,
            bursts=self.bursts + other.bursts,
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            activations=self.activations + other.activations,
            cycles=self.cycles + other.cycles,
            ideal_cycles=self.ideal_cycles + other.ideal_cycles,
            act_energy_pj=self.act_energy_pj + other.act_energy_pj,
            read_energy_pj=self.read_energy_pj + other.read_energy_pj,
            write_energy_pj=self.write_energy_pj + other.write_energy_pj,
        )


def combine_stats(parts: list[DramStats]) -> DramStats:
    """Aggregate per-layer stats into plan totals (layers run in sequence)."""
    total = DramStats()
    for part in parts:
        total = total.merged(part)
    return total


#: One request of the off-chip stream: (region index, byte offset within
#: the region, length in bytes, write).
Request = tuple[int, int, int, bool]


def replay(
    requests: Iterable[Request],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> DramStats:
    """Replay a request stream; one ``dram_stream`` span per call.

    The backend's only row-buffer state machine:
    :func:`~repro.dram.trace.simulate_schedule` and
    :func:`~repro.dram.trace.simulate_accesses` both end here.  The
    stream's statistics are added to the ``dram_*`` counters.
    """
    with get_tracer().start("dram_stream", mapping=mapping.name) as span:
        stats, count = _replay(requests, regions, spec, mapping)
        span.set_attr("requests_count", count)
        span.set_attr("row_hits_count", stats.row_hits)
        span.set_attr("row_misses_count", stats.row_misses)
        span.set_attr("total_bytes", stats.total_bytes)
    registry = metrics_registry()
    registry.counter("dram_row_hits_count").add(stats.row_hits)
    registry.counter("dram_row_misses_count").add(stats.row_misses)
    registry.counter("dram_activations_count").add(stats.activations)
    registry.counter("dram_reads_bytes").add(stats.reads_bytes)
    registry.counter("dram_writes_bytes").add(stats.writes_bytes)
    return stats


class _BlockTable(dict[int, tuple[int, int, int]]):
    """One region's row blocks: block number → ``(channel, slot, row)``.

    ``slot`` is the flat bank index ``channel * banks_per_channel + bank``.
    A block is resolved through ``layout.locate`` the first time the
    replay touches it, at the block's first byte.
    """

    def __init__(self, layout: AddressLayout, region: int, spec: DramSpec) -> None:
        super().__init__()
        self._layout = layout
        self._region = region
        self._row_bytes = spec.row_bytes
        self._banks_per_channel = spec.banks_per_channel

    def locate(self, offset: int) -> tuple[int, int, int]:
        """Coordinates of the byte at ``offset``, with the flat bank slot."""
        channel, bank, row = self._layout.locate(self._region, offset)
        return channel, channel * self._banks_per_channel + bank, row

    def __missing__(self, block: int) -> tuple[int, int, int]:
        located = self[block] = self.locate(block * self._row_bytes)
        return located


def _replay(
    requests: Iterable[Request],
    regions: tuple[Region, ...],
    spec: DramSpec,
    mapping: MappingPolicy,
) -> tuple[DramStats, int]:
    """The state machine; returns the stats and the number of requests.

    Banks are flat list slots ``channel * banks_per_channel + bank``.  A
    bank's ``free_at`` is the end of its last transfer, which was then
    also its channel's bus time; the bus only moves forward, so a row hit
    always starts when the bus frees up.  Rows resolve through one
    :class:`_BlockTable` per region.
    """
    layout = mapping.layout(spec, regions)
    row_bytes = spec.row_bytes
    burst_bytes = spec.burst_bytes
    bus_rate = spec.channel_bytes_per_cycle
    open_penalty = spec.row_open_penalty
    miss_penalty = spec.row_miss_penalty

    bus = [0.0] * spec.channels
    open_row = [-1] * spec.total_banks  # -1: no row opened yet
    free_at = [0.0] * spec.total_banks
    tables = [_BlockTable(layout, index, spec) for index in range(len(regions))]
    # A region whose base is not row-aligned has address row blocks that
    # do not line up with offset blocks: resolve its mid-row starts exactly.
    misaligned = [region.base % row_bytes != 0 for region in regions]

    count = reads = writes = bursts = misses = 0
    for region, offset, nbytes, write in requests:
        count += 1
        if write:
            writes += nbytes
        else:
            reads += nbytes
        table = tables[region]
        block = offset // row_bytes
        seg = row_bytes - (offset - block * row_bytes)
        if seg != row_bytes and misaligned[region]:
            channel, slot, row = table.locate(offset)
        else:
            channel, slot, row = table[block]
        while True:
            if seg > nbytes:
                seg = nbytes
            bursts += -(-seg // burst_bytes)
            if open_row[slot] == row:
                end = bus[channel] + seg / bus_rate
            else:
                misses += 1
                ready = free_at[slot] + (
                    open_penalty if open_row[slot] < 0 else miss_penalty
                )
                open_row[slot] = row
                start = bus[channel]
                end = (start if start >= ready else ready) + seg / bus_rate
            bus[channel] = end
            free_at[slot] = end
            nbytes -= seg
            if nbytes <= 0:
                break
            block += 1
            seg = row_bytes
            channel, slot, row = table[block]

    total_bytes = reads + writes
    cycles = max(bus) if total_bytes else 0.0
    stats = DramStats(
        reads_bytes=reads,
        writes_bytes=writes,
        bursts=bursts,
        row_hits=bursts - misses,
        row_misses=misses,
        activations=misses,
        cycles=cycles,
        ideal_cycles=total_bytes / spec.peak_bytes_per_cycle,
        act_energy_pj=misses * spec.act_pj,
        read_energy_pj=reads * spec.read_pj_per_byte,
        write_energy_pj=writes * spec.write_pj_per_byte,
    )
    return stats, count

"""Latency estimation from a policy's streaming schedule.

The paper estimates latency "based on the number of operations, bandwidth
and tile sizes" (§3.3).  We make that concrete with a two-resource model:

* the **DMA port** moves data at the accelerator's off-chip bandwidth;
* the **PE array** computes at the peak MAC rate derived from
  ``ops_per_cycle`` (one MAC = two ops).

Without prefetching every step serializes its load, compute and store.
With prefetching (the Eq. (2) double-buffered variants) the port is
work-conserving with a write-back buffer: loads chain with priority, each
compute starts when its data is ready and the PE is free, stores chain
behind their computes, and the layer cannot finish before the port's
total work ``(Σloads + Σstores)/bandwidth``.

All three chains are max-plus recurrences; because schedules are stored
as *uniform step groups* the recurrences become periodic within a few
steps of each group, so ``schedule_latency`` evaluates the exact
event-model timeline in O(groups).  The step-level simulator in
:mod:`repro.sim` replays it step by step, and the test suite asserts they
agree to floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.spec import AcceleratorSpec
from ..dram.trace import dram_effective_bandwidth
from ..nn.layer import LayerSpec
from ..policies.base import LayerSchedule, StepGroup

#: Recurrence state: (load-chain end, PE free time, store-chain end).
_State = tuple[float, float, float]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Cycle accounting of one layer under one policy."""

    total_cycles: float
    compute_cycles: float
    dma_cycles: float

    def __post_init__(self) -> None:
        if self.total_cycles < 0 or self.compute_cycles < 0 or self.dma_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


def _advance_group(
    state: _State, group: StepGroup, bw: float, rate: float, prefetch: bool
) -> _State:
    """Advance the state across ``group.count`` identical steps, exactly.

    Within a uniform group the three chains obey feed-forward max-plus
    recurrences whose solutions are maxima of linear ramps, so the state
    after ``n`` steps has a closed form:

    * ``L_n = L_0 + n·l`` — loads chain unconditionally;
    * ``P_n = max(P_0 + n·c,  L_0 + n·l + c,  L_0 + l + n·c)`` — the PE is
      delayed either never, by the last load, or by the first load;
    * ``S_n`` — the store chain is the same construction over each of the
      PE ramps, with the binding compute either the last one (``k = n``)
      or the first one (``k = 1``); interior maxima of a linear function
      in ``k`` are dominated by the endpoints.

    The serial (no-prefetch) recurrence fully synchronizes every step, so
    it telescopes to a single linear ramp.
    """
    load = group.load / bw
    compute = group.macs / rate
    store = group.store / bw
    n = group.count
    load_t, pe_t, store_t = state

    if not prefetch:
        start = max(load_t, pe_t, store_t)
        end = start + n * (load + compute + store)
        return (end - compute - store, end - store, end)

    l_n = load_t + n * load
    p_n = max(
        pe_t + n * compute,
        load_t + n * load + compute,
        load_t + load + n * compute,
    )
    if store == 0:
        # The engine leaves the store chain untouched for store-less steps.
        return (l_n, p_n, store_t)
    s_n = max(
        store_t + n * store,
        pe_t + compute + n * store,
        pe_t + n * compute + store,
        load_t + load + compute + n * store,
        load_t + n * load + compute + store,
        load_t + load + n * compute + store,
    )
    return (l_n, p_n, s_n)


def effective_dram_bandwidth(
    schedule: LayerSchedule, spec: AcceleratorSpec, layer: LayerSpec | None
) -> float:
    """Off-chip bandwidth the schedule actually sees, in elements/cycle.

    The flat constant ``spec.dram_bandwidth_elems_per_cycle`` unless the
    spec carries a banked :class:`~repro.dram.DramSpec` *and* the layer is
    known, in which case the schedule's address stream is trace-simulated
    and the delivered rate (which row-buffer conflicts can push well below
    the flat peak) is used instead.
    """
    flat = spec.dram_bandwidth_elems_per_cycle
    if spec.dram is None or layer is None:
        return flat
    return dram_effective_bandwidth(
        schedule, layer, spec.dram, spec.bytes_per_elem, flat
    )


def schedule_latency(
    schedule: LayerSchedule,
    spec: AcceleratorSpec,
    prefetch: bool,
    layer: LayerSpec | None = None,
) -> LatencyBreakdown:
    """Exact two-resource latency of one layer's streaming schedule.

    When ``spec.dram`` is set and ``layer`` is given, the DMA port runs at
    the trace-simulated effective bandwidth instead of the flat constant;
    otherwise behaviour is bit-identical to the flat model.
    """
    bw = effective_dram_bandwidth(schedule, spec, layer)
    rate = spec.macs_per_cycle
    compute = schedule.total_macs / rate
    dma = (schedule.total_load + schedule.total_store) / bw

    load_t = schedule.resident_load / bw
    state: _State = (load_t, load_t, 0.0)
    for group in schedule.groups:
        state = _advance_group(state, group, bw, rate, prefetch)
    total = max(state)
    if prefetch:
        # Port-work conservation: deferred write-backs still use bandwidth.
        total = max(total, dma)
    return LatencyBreakdown(
        total_cycles=total, compute_cycles=compute, dma_cycles=dma
    )

"""Declared bounds of the supported specification space.

The vectorized tile search evaluates the Eq. (1)/(2) capacity and
traffic closed forms as NumPy ``int64`` arrays, where an overflow raises
no error — it silently wraps and corrupts plans.  The static value-range
prover (``R070``–``R074`` in :mod:`repro.analysis.range_rules`) proves
every ``int64`` intermediate stays below ``2**63`` *for the spec space
declared here*, and :class:`~repro.arch.spec.AcceleratorSpec` /
:class:`~repro.dram.spec.DramSpec` validation rejects inputs outside it —
one set of constants feeds both, so the prover and the validators can
never disagree about what "supported" means.

The bounds are deliberately generous relative to the paper's §4
configurations (16×16 PEs, ≤1 MiB GLB, ≤32-bit data, layer shapes from
LeNet/AlexNet/VGG16) — roomy enough that no realistic CNN or sweep ever
trips validation, tight enough that the worst-case products remain
provably inside ``int64``.

Two kinds of constants live here:

* **per-field caps** (feature dims, kernel dims, channels, widths,
  capacities) validated field by field; and
* **aggregate caps** (``MAX_LAYER_MACS``, ``MAX_TENSOR_ELEMS``)
  validated as *independent* constraints on each layer, because the
  corner "maximal spatial extent × maximal channels × maximal kernel
  simultaneously" is unphysical (FC layers flatten to huge channel
  counts precisely when their spatial extent is 1×1) and taking the
  product of per-field maxima would be uselessly loose.

The proof sketch the R070 prover re-derives from these constants:
per-layer traffic is bounded by ``2·MACs + tensor footprints``
elements, so traffic × ``MAX_BYTES_PER_ELEM`` (= 4) stays below
``2**55 < 2**63``, and per-model sums scale by ``MAX_MODEL_LAYERS =
2**8``, keeping even an unbatched MACs-per-layer sum at ``2**60``.
Raising any bound here shifts the proof obligations with it: an
increase that breaks the ``int64`` proof fails CI instead of
corrupting plans at runtime.
"""

from __future__ import annotations

from .units import mib

#: Largest supported ifmap/ofmap spatial dimension (height or width).
MAX_FEATURE_DIM = 2048

#: Largest supported filter kernel dimension (height or width).
MAX_KERNEL_DIM = 16

#: Largest supported channel count (``in_c``, ``out_c``, ``num_filters``).
#: FC layers flatten their input into ``in_c`` (VGG16's first FC layer
#: consumes 25088 channels), so this is a per-field cap only — the
#: aggregate footprint/MAC caps below are what the prover leans on.
MAX_CHANNELS = 32768

#: Largest supported spatial padding.
MAX_PADDING = 8

#: Largest supported stride (bounded by the kernel for dense coverage).
MAX_STRIDE = MAX_KERNEL_DIM

#: Most layers one model may declare (sums over per-layer arrays scale
#: linearly with this).
MAX_MODEL_LAYERS = 256

#: Widest supported element, in bits (the paper sweeps 8/16/32).
MAX_DATA_WIDTH_BITS = 32

#: Largest supported global-buffer capacity, in bytes.  There is no
#: lower bound beyond positivity: degenerate few-byte GLBs are valid
#: inputs (the infeasibility paths are tested with them), and the R070
#: prover correspondingly assumes only ``glb_elems >= 1``.
MAX_GLB_BYTES = mib(64)

#: Largest supported off-chip bandwidth, in elements per accelerator
#: cycle.  The paper fixes 16; the headroom admits the bandwidth-sweep
#: experiments' "effectively infinite" endpoint (10⁴ elems/cycle).
MAX_DRAM_BANDWIDTH_ELEMS_PER_CYCLE = 16384.0

#: Largest supported peak operation rate, in scalar ops per cycle.
MAX_OPS_PER_CYCLE = 1 << 20

#: Largest supported PE-array dimension (rows or columns).
MAX_PE_DIM = 1024

#: Largest supported banked-DRAM capacity, in bytes (64 GiB).
MAX_DRAM_CAPACITY_BYTES = mib(64 * 1024)

# -- derived worst cases (used by the R070 prover's seed intervals) ------

#: Bytes of the narrowest/widest supported element.
MIN_BYTES_PER_ELEM = 1
MAX_BYTES_PER_ELEM = MAX_DATA_WIDTH_BITS // 8  # repro: noqa[R004] -- the canonical bits->bytes boundary

#: GLB capacity in elements of the narrowest (1-byte) element.
MAX_GLB_ELEMS = MAX_GLB_BYTES // MIN_BYTES_PER_ELEM

#: Largest supported padded spatial dimension.
MAX_PADDED_DIM = MAX_FEATURE_DIM + 2 * MAX_PADDING

#: Largest per-tensor footprint (padded ifmap, filters or ofmap), in
#: elements — an *independent* per-layer cap validated by
#: :class:`~repro.nn.layer.LayerSpec`, four orders of magnitude above
#: any bundled model's largest tensor (~2**25 elements).
MAX_TENSOR_ELEMS = 1 << 36

#: Largest per-layer MAC count — an *independent* per-layer cap
#: validated by :class:`~repro.nn.layer.LayerSpec`; VGG16's heaviest
#: convolution needs ~2**34 MACs.
MAX_LAYER_MACS = 1 << 52

#: Largest per-layer off-chip traffic, in elements.  Every schedule the
#: policies emit loads at most two operands per MAC and writes each
#: output at most once per pass, so ``2·MACs`` plus the tensor
#: footprints dominates every named policy and the tile-search fallback.
MAX_LAYER_TRAFFIC_ELEMS = 2 * MAX_LAYER_MACS + 4 * MAX_TENSOR_ELEMS

#: Largest per-plan GLB footprint, in elements: feasible plans fit the
#: budget, and Eq. (2) prefetch double-buffering at most doubles it.
MAX_PLAN_MEMORY_ELEMS = 2 * MAX_GLB_ELEMS  # repro: noqa[R002] -- worst-case bound over both prefetch policies, not a policy-conditional factor

#: Most candidate plans one layer's evaluation grid may hold (named
#: policies × prefetch variants plus the tile-search fallback ladder).
MAX_GRID_CANDIDATES = 4096

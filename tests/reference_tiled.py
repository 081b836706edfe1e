"""Reference tile search: the original candidate-at-a-time loop.

:class:`repro.policies.tiled.TiledFallback` scores the whole tile grid as
NumPy arrays and instantiates only the winner.  This module keeps the
plain loop it replaced, which instantiates every candidate and keeps the
strict improvement on ``(traffic, steps)``, as the oracle the parity tests
and the plan benchmark compare against.
"""

from __future__ import annotations

from repro.nn.layer import LayerSpec
from repro.policies.base import CandidatePlan
from repro.policies.tiled import TiledFallback, _candidate_values

_POLICY = TiledFallback()


def reference_plan(
    layer: LayerSpec, budget_elems: int, prefetch: bool
) -> CandidatePlan | None:
    """The original candidate-at-a-time search."""
    best: CandidatePlan | None = None
    best_key: tuple[int, int] | None = None
    n_limit = layer.in_c if layer.kind.is_depthwise else layer.num_filters

    def consider(plan: CandidatePlan | None) -> None:
        nonlocal best, best_key
        if plan is None:
            return
        key = (plan.traffic.total, plan.schedule.num_steps)
        if best_key is None or key < best_key:
            best, best_key = plan, key

    for n_f in _candidate_values(n_limit):
        for o_t in _candidate_values(layer.out_h):
            consider(
                _POLICY._instantiate(
                    layer, budget_elems, prefetch, n_f, o_t, layer.out_w
                )
            )
    if best is None:
        # Height-wise tiling alone cannot fit: engage the width
        # direction (Fig. 2a width-wise access with column halos).
        for n_f in _candidate_values(n_limit):
            for o_t in _candidate_values(layer.out_h):
                for w_t in _candidate_values(layer.out_w)[:-1]:
                    consider(
                        _POLICY._instantiate(
                            layer, budget_elems, prefetch, n_f, o_t, w_t
                        )
                    )
    return best


def reference_signature(
    layer: LayerSpec, budget_elems: int, prefetch: bool
) -> tuple[int, int, int] | None:
    """The winning ``(n_f, o_t, w_t)`` of the reference search, or None."""
    plan = reference_plan(layer, budget_elems, prefetch)
    if plan is None:
        return None
    o_t, w_t = plan.tile_shape
    return (plan.block_size, o_t, w_t)

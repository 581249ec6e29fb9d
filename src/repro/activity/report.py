"""Activity report: the output of switching-activity estimation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wire
from repro.errors import ActivityError

__all__ = ["ActivityReport", "COMPONENT_NAMES"]

#: Datapath components whose activity the power model weights.
COMPONENT_NAMES = ("operand", "multiplier", "datapath", "memory")


@dataclass(frozen=True)
class ActivityReport:
    """Normalized switching activity of one GEMM invocation.

    Component activities are normalized so that operands made of i.i.d.
    random bits give values close to 1.0; all-zero operands give values
    close to 0.0.  Raw (un-normalized) statistics are kept alongside for
    analysis (Figure 8 uses the Hamming weight and bit alignment fields).
    """

    # normalized component activities (what the power model weights)
    operand_activity: float
    multiplier_activity: float
    datapath_activity: float
    memory_activity: float

    # raw statistics
    operand_toggle_a: float
    operand_toggle_b: float
    multiplier_hw_product: float
    zero_mac_fraction: float
    product_toggle: float
    accumulator_toggle: float
    memory_toggle: float
    a_hamming_fraction: float
    b_hamming_fraction: float
    bit_alignment: float

    # metadata
    dtype: str = "unknown"
    shape: tuple[int, int, int] = (0, 0, 0)
    output_samples: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    #: cache rows written by newer code versions may carry more keys
    _wire = wire.Wire(ignore_unknown=True)

    def __post_init__(self) -> None:
        for name in COMPONENT_NAMES:
            value = getattr(self, f"{name}_activity")
            if value < 0.0:
                raise ActivityError(f"{name}_activity must be non-negative, got {value}")

    def component_activity(self, name: str) -> float:
        """Return the normalized activity of one component by name."""
        if name not in COMPONENT_NAMES:
            raise ActivityError(
                f"unknown component {name!r}; expected one of {COMPONENT_NAMES}"
            )
        return float(getattr(self, f"{name}_activity"))

    def weighted_activity(self, weights: dict[str, float]) -> float:
        """Weighted mean of component activities (weights need not sum to 1)."""
        total_weight = sum(weights.values())
        if total_weight <= 0:
            raise ActivityError("activity weights must sum to a positive value")
        acc = 0.0
        for name, weight in weights.items():
            acc += self.component_activity(name) * weight
        return acc / total_weight

    @property
    def mean_hamming_fraction(self) -> float:
        """Mean Hamming weight fraction of A and B (Figure 8's x-axis)."""
        return 0.5 * (self.a_hamming_fraction + self.b_hamming_fraction)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable dictionary of every field."""
        return {**vars(self), "shape": list(self.shape), "extras": dict(self.extras)}

    from_dict = wire.from_dict("activity", ActivityError)

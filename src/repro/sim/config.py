"""Simulation configuration for :class:`~repro.sim.cluster.DistributedSystem`.

The simulator facade grew one constructor keyword per feature (seed,
latency model, message loss, retransmission, instrumentation, ...);
:class:`SimConfig` consolidates them into a single frozen dataclass so
call sites read as *one* configuration value::

    from repro import DistributedSystem, SimConfig
    from repro.sim.network import UniformLatency

    config = SimConfig(seed=7, latency=UniformLatency(lo, hi),
                       loss_probability=0.05, retransmit=True)
    system = DistributedSystem(["ny", "ldn"], config=config)

``DistributedSystem(sites)`` without a config runs under ``SimConfig()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.instrument import Instrumentation
    from repro.sim.network import LatencyModel
    from repro.time.ticks import TimeModel


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Everything configurable about a simulated distributed system.

    Attributes
    ----------
    model:
        The :class:`~repro.time.ticks.TimeModel` shared by all sites;
        ``None`` selects the paper's Example 5.1 model.
    seed:
        Master RNG seed — clock drift/offset draws and the network's
        loss draws derive from it deterministically.
    latency:
        Cross-site :class:`~repro.sim.network.LatencyModel`; ``None``
        means instantaneous delivery.
    perfect_clocks:
        Use drift- and offset-free clocks at every site.
    coordinator:
        Site name hosting coordinator-placed operator nodes; ``None``
        picks the first site.
    loss_probability:
        Probability a cross-site message is dropped in transit.
    retransmit:
        Recover lost messages with simulated ack-timeout retransmission.
    max_retries:
        Retransmission attempts before a message counts as lost.
    retry_timeout:
        Base ack timeout (seconds); ``None`` selects 1/10 s.  Attempt
        ``k`` waits ``retry_timeout * (k + 1)`` (linear backoff).
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation` hub.
    """

    model: "TimeModel | None" = None
    seed: int = 0
    latency: "LatencyModel | None" = None
    perfect_clocks: bool = False
    coordinator: str | None = None
    loss_probability: float = 0.0
    retransmit: bool = False
    max_retries: int = 8
    retry_timeout: Fraction | None = Fraction(1, 10)

    instrumentation: "Instrumentation | None" = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_timeout is not None and self.retry_timeout <= 0:
            raise ValueError(
                f"retry_timeout must be positive, got {self.retry_timeout}"
            )

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The configuration keys, in declaration order."""
        return tuple(f.name for f in fields(cls))

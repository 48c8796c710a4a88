"""Node-scope fault models: internal flips and stuck-at faults.

Both models perturb an *internal* network signal instead of a primary
input and ask how often at least one primary output changes — the
circuit-internal analogue of the paper's input-error rate, following the
stuck-at inadmissibility analysis of Das et al.  They ride the
incremental fanout-cone engine
(:class:`~repro.sim.incremental.IncrementalNetworkSim`): injecting a
fault re-evaluates only the faulted node's fanout cone, so a whole
network sweep costs ``O(sum of cone sizes)`` node evaluations.

:class:`NodeFlip` is the existing internal-error metric of
:func:`repro.synth.odc.internal_error_rate` expressed as a fault model;
:class:`StuckAtNode` forces a node to a constant 0/1, which is only
*excited* on vectors where the fault-free value differs — the packed
constant-force evaluation handles that masking for free.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import span
from ..sim import packed as pk
from ..sim.incremental import IncrementalNetworkSim
from .base import FaultModel, register_fault_model

__all__ = ["NodeFlip", "StuckAtNode"]


class _NodeScopeModel(FaultModel):
    """Shared exhaustive/sampled network sweeps for node-scope models."""

    scope = "node"

    def network_error_rate(self, network, *, source_mask=None) -> float:
        """Probability that injecting this fault at a random internal
        node on a random admissible PI vector changes some output.

        Args:
            network: the network under test (exhaustively simulated).
            source_mask: admissible PI vectors (default: all ``2**n``).
        """
        from ..synth.odc import internal_error_rate

        return internal_error_rate(
            network, source_mask=source_mask, fault_model=self
        )

    def estimate_network_error_rate(
        self, network, *, samples: int = 4096, rng=None
    ):
        """Monte-Carlo estimate over *samples* random PI vectors.

        Vectors are drawn directly as packed words; each (node, vector)
        pair is one Bernoulli trial of the exhaustive sweep, so the
        estimate converges to :meth:`network_error_rate` (all-sources).
        """
        from ..core.montecarlo import MonteCarloEstimate

        if samples <= 0:
            raise ValueError("samples must be positive")
        node_names = list(network.nodes)
        if not node_names:
            return MonteCarloEstimate(0.0, 0.0, 0)
        rng = rng or np.random.default_rng(0)
        words = pk.num_words(samples)
        pi_words = rng.integers(
            0,
            np.iinfo(np.uint64).max,
            size=(len(network.primary_inputs), words),
            dtype=np.uint64,
            endpoint=True,
        )
        pk.zero_tail(pi_words, samples)
        sim = IncrementalNetworkSim(network, pi_words=pi_words, num_vectors=samples)
        obs_metrics.counter("faults.mc_network_runs").inc()
        total = 0
        with span(f"faults.{self.name}.mc", nodes=len(node_names), samples=samples):
            for name in node_names:
                total += pk.popcount(self.node_difference(sim, name))
        trials = len(node_names) * samples
        rate = total / trials
        stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
        return MonteCarloEstimate(rate, stderr, trials)


@register_fault_model
class NodeFlip(_NodeScopeModel):
    """An internal node's value is complemented on every vector.

    The fault model behind the nodal-decomposition metric
    (:func:`repro.synth.odc.internal_error_rate`): its exhaustive rate
    matches that function exactly.
    """

    name = "node_flip"
    param_names = ()

    def node_difference(self, sim: IncrementalNetworkSim, name: str) -> np.ndarray:
        return sim.flip_difference(name)


@register_fault_model
class StuckAtNode(_NodeScopeModel):
    """An internal node is stuck at a constant 0 or 1.

    The classical test-pattern fault model applied to reliability: the
    fault is excited only on vectors where the fault-free node value
    differs from *value*, and propagates when the excitation reaches a
    primary output through the node's fanout cone.
    """

    name = "stuck_at"
    param_names = ("value",)

    def __init__(self, value: int = 0):
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value!r}")
        self.value = int(value)

    def node_difference(self, sim: IncrementalNetworkSim, name: str) -> np.ndarray:
        return sim.forced_difference(name, bool(self.value))

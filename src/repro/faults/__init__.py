"""Fault models: the swappable error semantics of the reliability flow.

See :mod:`repro.faults.base` for the :class:`FaultModel` protocol and
the registry, :mod:`repro.faults.input_models` for the input-vector
models (single-bit, multi-bit, burst) and :mod:`repro.faults.stuckat`
for the internal-node models (flip, stuck-at-0/1).  Importing this
package registers every built-in model.  Every exact input-scope rate
is counted by one kernel, :func:`repro.core.reliability.error_events`.
"""

from .base import (
    FaultModel,
    create_fault_model,
    describe_fault_models,
    fault_model_names,
    register_fault_model,
    registered_fault_models,
)
from .input_models import BurstInput, MultiBitInput, SingleBitInput
from .stuckat import NodeFlip, StuckAtNode

__all__ = [
    "BurstInput",
    "FaultModel",
    "MultiBitInput",
    "NodeFlip",
    "SingleBitInput",
    "StuckAtNode",
    "create_fault_model",
    "describe_fault_models",
    "fault_model_names",
    "register_fault_model",
    "registered_fault_models",
]

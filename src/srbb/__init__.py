"""Recursive block bases for su(2^n) and the variational circuits they induce.

The pieces, bottom to top:

* ``algebra``  — recursive RBB/SRBB basis construction, index maps, and the
  grouping of basis elements into diagonal / even / odd synthesis factors.
* ``circuit``  — gate IR of CNOT, RZ and RY: dense simulation, sampling,
  QASM/JSON export.
* ``compiler`` — emits the CNOT-reduced single-layer circuit and its naive
  counterpart, plus closed-form gate counts.
* ``varopt``   — loss metrics, Nelder-Mead / Adam, and ``train`` to fit the
  layer to a target unitary.
* ``targets``  — registry of named benchmark unitaries (QFT, Grover, ladders).
* ``cli``      — ``srbb`` console entry point wrapping all of the above.
"""

from .algebra import Basis, BasisElement, FactorGrouping, build_rbb, build_srbb, grouping
from .circuit import Circuit, Gate, apply, sample, unitary_of
from .compiler import GateCounts, gate_counts, naive_circuit, synthesize_circuit
from .targets import TargetSpec, named_target, target_names
from .varopt import TrainConfig, TrainReport, train

__all__ = [
    "Basis",
    "BasisElement",
    "Circuit",
    "FactorGrouping",
    "Gate",
    "GateCounts",
    "TargetSpec",
    "TrainConfig",
    "TrainReport",
    "apply",
    "build_rbb",
    "build_srbb",
    "gate_counts",
    "grouping",
    "named_target",
    "naive_circuit",
    "sample",
    "synthesize_circuit",
    "target_names",
    "train",
    "unitary_of",
]

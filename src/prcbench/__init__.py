"""Peaked random circuit generation, simulation, and fidelity benchmarking."""

from .circuits import (
    BitString,
    Circuit,
    GatePlacement,
    brickwall_layout,
    build_exact_inverse_peaking,
    build_reference_circuit,
    derive_subcircuit,
    retarget,
)
from .gates import GateParams, haar_random_unitary, kak_decompose
from .harness import BenchConfig, BenchmarkMatrix, run_cell, run_matrix, shot_policy
from .metrics import delta_matrix, fidelity_error, identify, relative_peakedness
from .noise import NoiseSpec, depolarize, effective_fidelity, perturb_coherent, readout_flip
from .optimize import OptimizerConfig, PeakProfile, objective, optimize, peak_profile
from .sim import full_distribution, peak_amplitude, run, sample

__all__ = [
    "BitString",
    "Circuit",
    "GatePlacement",
    "GateParams",
    "BenchConfig",
    "BenchmarkMatrix",
    "NoiseSpec",
    "OptimizerConfig",
    "PeakProfile",
    "brickwall_layout",
    "build_exact_inverse_peaking",
    "build_reference_circuit",
    "delta_matrix",
    "depolarize",
    "derive_subcircuit",
    "effective_fidelity",
    "fidelity_error",
    "full_distribution",
    "haar_random_unitary",
    "identify",
    "kak_decompose",
    "objective",
    "optimize",
    "peak_amplitude",
    "peak_profile",
    "perturb_coherent",
    "readout_flip",
    "relative_peakedness",
    "retarget",
    "run",
    "run_cell",
    "run_matrix",
    "sample",
    "shot_policy",
]

__version__ = "0.1.0"

"""Excitonic energy transfer on molecular aggregates under pure dephasing.

Four interchangeable engines propagate the same aggregate model: the quantum
master equation, a quantum second-moment formulation (mutual oracle), the
closed classical oscillator moment system, and stochastic trajectory
ensembles (quantum wavefunctions and classical Kubo oscillators).  Scenario
builders, file IO, a difference report, and a weak-coupling diagnostic make
the quantum/classical comparison reproducible from the command line.

The package namespace holds what a comparison script needs; series IO and
the difference report live in :mod:`eetsim.timeseries`, the exception types
in :mod:`eetsim.errors`, and the remaining helpers in their own modules.
"""

from .bessel import chain_bessel_populations
from .classical import assemble_sigma, initial_rst_mixed, initial_rst_pure, propagate_classical_rst
from .integrate import TimeGrid
from .model import DensityMatrix, build_aggregate, pure_density
from .quantum import propagate_lindblad, propagate_quantum_rst
from .scenarios import fmo_model_path, load_model, make_chain
from .stochastic import NoiseSpec, run_kubo_ensemble, run_sse_ensemble

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "NoiseSpec",
    "TimeGrid",
    "assemble_sigma",
    "build_aggregate",
    "chain_bessel_populations",
    "fmo_model_path",
    "initial_rst_mixed",
    "initial_rst_pure",
    "load_model",
    "make_chain",
    "propagate_classical_rst",
    "propagate_lindblad",
    "propagate_quantum_rst",
    "pure_density",
    "run_kubo_ensemble",
    "run_sse_ensemble",
]

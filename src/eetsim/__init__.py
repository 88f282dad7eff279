"""Excitonic energy transfer on molecular aggregates under pure dephasing.

Four interchangeable engines propagate the same aggregate model: the quantum
master equation, a quantum second-moment formulation (mutual oracle), the
closed classical oscillator moment system, and stochastic trajectory
ensembles (quantum wavefunctions and classical Kubo oscillators).  Scenario
builders, file IO, a difference report, and a weak-coupling diagnostic make
the quantum/classical comparison reproducible from the command line.
"""

from .bessel import bessel_j, chain_bessel_populations
from .classical import (
    ClassicalTrajectory,
    RstState,
    assemble_sigma,
    initial_rst_mixed,
    initial_rst_pure,
    normalize_sigma,
    propagate_classical_rst,
)
from .integrate import TimeGrid, rate_scale, resolve_step
from .model import (
    AggregateModel,
    DensityMatrix,
    RcaReport,
    build_aggregate,
    convert_energy,
    pure_density,
    rca_check,
)
from .quantum import QuantumTrajectory, propagate_lindblad, propagate_quantum_rst
from .scenarios import InitialState, fmo_model_path, load_model, localized_state, make_chain
from .stochastic import (
    NoiseSpec,
    TrajectoryEnsemble,
    derive_stream,
    run_kubo_ensemble,
    run_sse_ensemble,
)
from .timeseries import (
    DiffReport,
    TimeSeries,
    compare_series,
    read_timeseries,
    series_from_classical,
    series_from_ensemble,
    series_from_quantum,
    write_timeseries,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AggregateModel",
    "ClassicalTrajectory",
    "DensityMatrix",
    "DiffReport",
    "InitialState",
    "NoiseSpec",
    "QuantumTrajectory",
    "RcaReport",
    "RstState",
    "TimeGrid",
    "TimeSeries",
    "TrajectoryEnsemble",
    "assemble_sigma",
    "bessel_j",
    "build_aggregate",
    "chain_bessel_populations",
    "compare_series",
    "convert_energy",
    "derive_stream",
    "errors",
    "fmo_model_path",
    "initial_rst_mixed",
    "initial_rst_pure",
    "load_model",
    "localized_state",
    "make_chain",
    "normalize_sigma",
    "propagate_classical_rst",
    "propagate_lindblad",
    "propagate_quantum_rst",
    "pure_density",
    "rate_scale",
    "rca_check",
    "read_timeseries",
    "resolve_step",
    "run_kubo_ensemble",
    "run_sse_ensemble",
    "series_from_classical",
    "series_from_ensemble",
    "series_from_quantum",
    "write_timeseries",
]

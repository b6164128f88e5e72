"""rydeit: truncated-excitation spin-model simulator of weak pulses in Rydberg EIT."""

from .model import (AtomChain, BlockadeConfig, BlockadeMode, BLOCKED,
                    ConfigurationError, ControlSchedule, PhysicalParams, PulseEnvelope,
                    PulseShape, atoms_for_depth, build_chain, interaction, optical_depth,
                    single_atom_bandwidth)
from .statespace import ExcitationIndex, build_index
from .dynamics import (DynamicsError, Generator, StateTrajectory, assemble_generator,
                       evolve, steady_state)
from .observables import (CorrelationGrid, ExtractionError, ObservableTrace,
                          SteadyStateStats, UndefinedResultError, correlation_grid,
                          fit_exponential_envelope, measure_steady_state, tau_eit,
                          trace_from_trajectory, transmission_spectrum, windowed_g2)
from .counting import (DetectionStream, EfficiencyBudget, EstimateError, dlcz_compare,
                       emulate_trials, estimate_g2, generation_probability_from_stream,
                       generation_probability_from_trace, load_stream, save_stream)

__version__ = "0.1.0"

"""Quantum wavepacket revivals in a finite square well, with an anharmonic
oscillator cross-check.

The public surface mirrors the pipeline: solve a spectrum, project an initial
state, evolve it, sample the squared autocorrelation, and detect revival and
superrevival times.
"""

from .anharmonic import (FockWeights, OscillatorTimescales, coherent_weights,
                         hermite_log, oscillator_autocorr,
                         oscillator_phase_rates, oscillator_timescales,
                         squeezed_weights)
from .errors import (AmbiguousWindowError, CompletenessWarning,
                     ConvergenceError, CutoffTooSmallError, EdgePeakError,
                     HorizonTooShortError)
from .revival import (AutocorrSeries, RevivalReport, TimescaleHierarchy,
                      autocorrelation, detect_revival, detect_superrevival,
                      detection_grid, principal_revival, scan_superrevival,
                      table1_report, timescales)
from .scenarios import (BUILTIN_SCENARIOS, OscillatorSystem, ScenarioConfig,
                        load_scenario)
from .spectrum import (BarkerApproximation, BoundState, Spectrum, WellConfig,
                       barker, closed_form_norm, eigenfunction_value,
                       orthonormality_matrix, solve_spectrum,
                       transcendental_residual)
from .wavepacket import (GaussianSpec, InfiniteWellState,
                         SpectralDecomposition, evolve, infinite_evolve,
                         infinite_project, parity_filtered, project, snapshot)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWindowError", "AutocorrSeries", "BarkerApproximation",
    "BoundState", "BUILTIN_SCENARIOS", "CompletenessWarning",
    "ConvergenceError", "CutoffTooSmallError", "EdgePeakError", "FockWeights",
    "GaussianSpec",
    "HorizonTooShortError", "InfiniteWellState",
    "OscillatorSystem", "OscillatorTimescales", "RevivalReport",
    "ScenarioConfig", "SpectralDecomposition", "Spectrum",
    "TimescaleHierarchy", "WellConfig", "autocorrelation", "barker",
    "closed_form_norm", "coherent_weights", "detect_revival",
    "detect_superrevival", "detection_grid", "eigenfunction_value", "evolve",
    "hermite_log", "infinite_evolve", "infinite_project", "load_scenario",
    "orthonormality_matrix", "oscillator_autocorr", "oscillator_phase_rates",
    "oscillator_timescales", "parity_filtered", "principal_revival",
    "project", "scan_superrevival",
    "snapshot", "solve_spectrum", "squeezed_weights", "table1_report",
    "timescales", "transcendental_residual",
]

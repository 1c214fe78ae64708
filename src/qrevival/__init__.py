"""Quantum wavepacket revivals in a finite square well, with an anharmonic
oscillator cross-check.

The public surface mirrors the pipeline: solve a spectrum, project an initial
state, evolve it, sample the squared autocorrelation, and detect revival and
superrevival times.
"""

from .anharmonic import (FockWeights, OscillatorTimescales, coherent_weights,
                         hermite_log, oscillator_phase_rates,
                         oscillator_timescales, squeezed_weights)
from .errors import (AmbiguousWindowError, CompletenessWarning,
                     ConvergenceError, CutoffTooSmallError, EdgePeakError,
                     HorizonTooShortError)
from .revival import (AutocorrSeries, RevivalReport, autocorrelation,
                      detect_revival, detection_grid, principal_revival,
                      scan_superrevival, table1_report)
from .scenarios import (BUILTIN_SCENARIOS, OscillatorSystem, ScenarioConfig,
                        load_scenario)
from .spectrum import (BarkerApproximation, Spectrum, WellConfig, barker,
                       orthonormality_matrix, solve_spectrum,
                       transcendental_residual)
from .wavepacket import (GaussianSpec, SpectralDecomposition, evolve, project,
                         snapshot)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWindowError", "AutocorrSeries", "BarkerApproximation",
    "BUILTIN_SCENARIOS", "CompletenessWarning",
    "ConvergenceError", "CutoffTooSmallError", "EdgePeakError", "FockWeights",
    "GaussianSpec",
    "HorizonTooShortError",
    "OscillatorSystem", "OscillatorTimescales", "RevivalReport",
    "ScenarioConfig", "SpectralDecomposition", "Spectrum",
    "WellConfig", "autocorrelation", "barker",
    "coherent_weights", "detect_revival",
    "detection_grid", "evolve",
    "hermite_log", "load_scenario",
    "orthonormality_matrix", "oscillator_phase_rates",
    "oscillator_timescales", "principal_revival",
    "project", "scan_superrevival",
    "snapshot", "solve_spectrum", "squeezed_weights", "table1_report",
    "transcendental_residual",
]

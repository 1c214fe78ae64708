"""Quantum wavepacket revivals in a finite square well, with an anharmonic
oscillator cross-check.

The public surface mirrors the pipeline: solve a spectrum, project an initial
state, sample the squared autocorrelation or the density snapshots, and detect
revival and superrevival times.
"""

from .anharmonic import (FockWeights, OscillatorTimescales, coherent_weights,
                         hermite_log, oscillator_phase_rates,
                         oscillator_timescales, squeezed_weights)
from .errors import (AmbiguousWindowError, CompletenessWarning,
                     ConvergenceError, CutoffTooSmallError, EdgePeakError,
                     HorizonTooShortError)
from .revival import (AutocorrSeries, autocorrelation, detect_revival,
                      detection_grid, principal_revival, scan_superrevival)
from .scenarios import (BUILTIN_SCENARIOS, OscillatorSystem, ScenarioConfig,
                        load_scenario)
from .spectrum import (Spectrum, WellConfig, barker, orthonormality_matrix,
                       solve_spectrum, transcendental_residual)
from .wavepacket import GaussianSpec, SpectralDecomposition, project, snapshot

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWindowError", "AutocorrSeries",
    "BUILTIN_SCENARIOS", "CompletenessWarning",
    "ConvergenceError", "CutoffTooSmallError", "EdgePeakError", "FockWeights",
    "GaussianSpec",
    "HorizonTooShortError",
    "OscillatorSystem", "OscillatorTimescales",
    "ScenarioConfig", "SpectralDecomposition", "Spectrum",
    "WellConfig", "autocorrelation", "barker",
    "coherent_weights", "detect_revival",
    "detection_grid",
    "hermite_log", "load_scenario",
    "orthonormality_matrix", "oscillator_phase_rates",
    "oscillator_timescales", "principal_revival",
    "project", "scan_superrevival",
    "snapshot", "solve_spectrum", "squeezed_weights",
    "transcendental_residual",
]

"""Raman slow-light toolkit.

Simulation and analysis of optically-controlled group delay in a two-line
Raman medium: closed-form figures of merit, frequency- and time-domain
pulse propagation, Kramers-Kronig reconstruction of dispersion from
measured absorption, and cross-correlation delay metrics.
"""

from .analysis import (
    CorrelationCurve,
    absorption_spectrum,
    cross_correlate,
    deconvolve_duration,
    first_moment_delay,
    fwhm,
    linearity_diagnostic,
)
from .errors import (
    AmbiguousWidthError,
    ConfigError,
    GridResolutionError,
    SlowLightError,
    TruncationRiskError,
)
from .fdprop import (
    TransferFunction,
    output_spectra,
    propagate,
    susceptibility_from_medium,
    transfer_function,
)
from .kramers_kronig import (
    OpticalDepthSpectrum,
    Susceptibility,
    group_delay_from_susceptibility,
    hilbert_transform,
    ingest_absorption,
    kk_real_from_imag,
)
from .medium import (
    FiguresOfMerit,
    RamanLine,
    RamanMedium,
    chi,
    delay_bandwidth_product,
    delay_per_loss,
    figures_of_merit,
    from_target_depth,
    group_delay,
    loss_db,
    peak_optical_depth,
)
from .spectral import (
    C_MM_PER_PS,
    C_NM_PER_PS,
    ComplexEnvelope,
    FrequencyGrid,
    SpectralEnvelope,
    TimeGrid,
    forward_transform,
    inverse_transform,
    synthesize_pulse,
    wavelength_bandwidth_to_frequency,
)
from .tdprop import (
    ControlField,
    ScanPoint,
    SolveResult,
    SolverSettings,
    delay_vs_control_scan,
    solve,
)

__version__ = "0.1.0"

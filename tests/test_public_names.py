import inspect

import slowlight as sl

# The names `import slowlight` exports are an external contract: a change
# that adds or drops one edits this list and says so.
PUBLIC_NAMES = """
AmbiguousWidthError AsymmetricMediumError C_MM_PER_PS C_NM_PER_PS ComplexEnvelope ConfigError
ControlField CorrelationCurve FiguresOfMerit FrequencyGrid GridResolutionError OpticalDepthSpectrum
RamanLine RamanMedium ScanPoint SlowLightError SolveResult SolverSettings SpectralEnvelope Susceptibility
TimeGrid TransferFunction TruncationRiskError absorption_spectrum chi cross_correlate
deconvolve_duration delay_bandwidth_product delay_per_loss delay_vs_control_scan figures_of_merit
first_moment_delay forward_transform from_target_depth fwhm group_delay group_delay_from_susceptibility
hilbert_transform ingest_absorption inverse_transform kk_real_from_imag linearity_diagnostic loss_db
output_spectra peak_optical_depth propagate solve susceptibility_from_medium synthesize_pulse
transfer_function wavelength_bandwidth_to_frequency
""".split()


def test_public_names_are_pinned():
    exported = {name for name, value in vars(sl).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported) == sorted(PUBLIC_NAMES)

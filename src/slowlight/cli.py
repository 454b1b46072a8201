"""Command-line entry point.

Subcommands
-----------
analytic   closed-form delay/loss/DBP sweep over peak optical depth
kk         Kramers-Kronig reconstruction from measured absorption data
propagate  one frequency- or time-domain propagation run
sweep      delay and loss versus control intensity, with linearity check
xcorr      cross-correlation metrics for envelope CSVs

Exit codes: 0 success, 2 configuration or validation failure, 3 numerical
failure, resolution refusal or an input too large to compute.  All outputs
are plot-ready CSVs plus a flat ``key = value`` summary; the config-driven
runs (analytic, propagate, sweep) also write the fully-resolved
configuration for bit-identical re-runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import analysis, fdprop, io, medium as med, tdprop
from .config import _NON_NEGATIVE, _POSITIVE, _SAMPLE_COUNT, _WAVELENGTH, SimulationConfig, _read, load_config
from .config import wavenumber
from .errors import AmbiguousWidthError, ConfigError, SlowLightError
from .kramers_kronig import (
    Susceptibility,
    group_delay_from_susceptibility,
    ingest_absorption,
    kk_real_from_imag,
)
from .spectral import TimeGrid, forward_transform


_TD_FD_L2_BUDGET = 1e-3  # the TD-FD agreement the acceptance tests hold the example point to


def _out_path(args, name):
    return os.path.join(args.out_dir, name)


def _medium_figures(the_medium):
    figures = dataclasses.asdict(med.figures_of_merit(the_medium))
    return {f"figures.{key}": value for key, value in figures.items()}


def cmd_analytic(args):
    config = load_config(args.config)
    m = config.medium
    started = time.monotonic()
    # the last row at or below d0_max, within a few ulps: 0.3 / 0.1 reads 2.9999999999999996 and gives 4 rows
    count = math.floor(args.d0_max / args.d0_step * (1.0 + 4.0 * sys.float_info.epsilon)) + 1
    d0_values = np.minimum(np.arange(count) * args.d0_step, args.d0_max)  # 3 * 0.1 is 0.30000000000000004
    # delay, loss and DBP are each linear in d0, so one unit-depth medium gives every row
    unit = med.figures_of_merit(med.from_target_depth(1.0, m.gamma_invps, m.delta_invps, m.k0, m.length_mm))
    if not unit.group_delay_ps > 0:  # zero at Gamma = Delta/2, and a lead beyond it: no depth gives unit DBP
        raise ConfigError(f"analytic needs a positive window-centre delay: medium.gamma_invps = {m.gamma_invps} "
                          f"must be below medium.delta_invps / 2 = {m.delta_invps / 2}")
    d0_unity = 1.0 / unit.delay_bandwidth_product
    summary = {
        "run.command": "analytic",
        "sweep.d0_max": float(args.d0_max),
        "sweep.d0_step": float(args.d0_step),
        "figures.delay_per_loss_ps_per_db": unit.delay_per_loss_ps_per_db,
        "figures.d0_at_unit_dbp": d0_unity,
        "figures.loss_db_at_unit_dbp": d0_unity * unit.loss_db,
        "run.seconds": time.monotonic() - started,
    }
    columns = (unit.group_delay_ps, unit.loss_db, unit.delay_bandwidth_product)
    io.write_analytic_csv(_out_path(args, "analytic_sweep.csv"), d0_values, *(d0_values * c for c in columns))
    return summary, config


def cmd_kk(args):
    wavelengths, values, kind = io.read_absorption_csv(args.absorption_csv)
    k0 = wavenumber(args.lambda0_nm)
    grid = TimeGrid(t_start=0.0, dt=2.0 * np.pi / args.span_invps, n=args.n).frequency_grid()
    try:
        depth = ingest_absorption(
            (wavelengths, values),
            center_wavelength_nm=args.center_nm,
            target_grid=grid,
            force_taper=args.force_taper,
            absorption=(kind == "absorption"),
        )
    except ValueError as exc:  # records kk cannot use; a TruncationRiskError is not one
        raise ConfigError(f"absorption CSV {args.absorption_csv}: {exc}") from None
    chi = kk_real_from_imag(depth, k0, args.length_mm)
    summary = {
        "run.command": "kk",
        "input.absorption_csv": args.absorption_csv,
        "input.kind": kind,
        "input.center_nm": args.center_nm,
        "input.lambda0_nm": args.lambda0_nm,
        "input.length_mm": args.length_mm,
        "input.force_taper": args.force_taper,
        "grid.n": args.n,
        "grid.span_invps": args.span_invps,
        "kk.peak_depth": float(np.max(depth.depth)),
        "kk.reconstructed_delay_ps": group_delay_from_susceptibility(chi, k0, args.length_mm),
    }
    io.write_susceptibility_csv(_out_path(args, "susceptibility.csv"), grid, chi.values)
    return summary, None


def _set_up(config: SimulationConfig):
    """The time grid, the signal pulse and the control-free medium of a run."""
    grid = config.grid.build()
    return grid, config.signal.build(grid), config.medium.build()


def _td_fd_check(the_medium, pulse, output, nz_needed):
    """The summary key of the relative L2 gap between ``output``, FD's at the medium's
    control intensity, and the Taylor march a shaped control runs at that intensity's
    amplitude on ``nz_needed``; and a warning past _TD_FD_L2_BUDGET."""
    march = tdprop._march(the_medium, math.sqrt(the_medium.control_intensity), pulse, nz_needed)
    gap = analysis.relative_l2_error(march.output, output)
    warnings = [f"the TD output differs from the FD output by {gap:.3g} relative L2 "
                f"(> {_TD_FD_L2_BUDGET:g}), so the TD solve is not confirmed here"] if gap > _TD_FD_L2_BUDGET else []
    return {"metrics.td_fd_l2_error": gap}, warnings


def _chi_for_run(args, the_medium, fgrid):
    if not args.chi_csv:
        return fdprop.susceptibility_from_medium(the_medium, fgrid)
    detunings, values = io.read_susceptibility_csv(args.chi_csv)
    real = np.interp(fgrid.omegas, detunings, values.real, left=0.0, right=0.0)
    imag = np.interp(fgrid.omegas, detunings, values.imag, left=0.0, right=0.0)
    return Susceptibility(grid=fgrid, values=real + 1j * imag)


def cmd_propagate(args):
    config = load_config(args.config)
    if config.control.intensity_list:
        raise ConfigError("propagate expects a single control.intensity; use sweep for lists")
    td, fixed = args.domain == "td", config.control.kind == "constant"
    if td and args.chi_csv:
        raise ConfigError("the time-domain solver integrates the two-line model; use --domain fd with --chi-csv")
    if not (td or fixed):
        raise ConfigError(f"propagate --domain fd assumes constant control; use --domain td for "
                          f"control.kind = {config.control.kind}")

    grid, pulse, base_medium = _set_up(config)
    fgrid = grid.frequency_grid()
    the_medium = base_medium.with_control_intensity(config.control.intensity)

    spec_in = forward_transform(pulse)
    if fixed:  # one transfer, which both domains send the input through
        chi = _chi_for_run(args, the_medium, fgrid)
        result, transfer = tdprop._constant(the_medium, pulse, spec_in, chi)
        if td:  # planned for its check march, which refuses what solve refuses
            result.nz_needed = tdprop._validate_resolution(the_medium, chi.values)
            result.peak_coherence = tdprop._constant_peak(the_medium, pulse, transfer)
        spec_on = spec_in.samples * transfer.values
        center = transfer.center_transmission()
    else:  # no fixed-intensity transfer: |S_out(0) / S_in(0)|^2 from the TD spectra
        result = tdprop.solve(the_medium, config.control.build(grid), pulse)
        spec_on = forward_transform(result.output).samples
        center = float(np.abs(spec_on[fgrid.zero_index] / spec_in.samples[fgrid.zero_index]) ** 2)
    out, warnings, checks = result.output, result.warnings, {}
    delay, loss_db_total = analysis.delay_and_loss(pulse, out)  # before the width: rounding noise has no single one
    try:
        width = out.intensity_fwhm()
    except AmbiguousWidthError as exc:
        raise AmbiguousWidthError(f"the output envelope has no single intensity FWHM: {exc}") from None
    if td and fixed:
        checks, gap_warnings = _td_fd_check(the_medium, pulse, out, result.nz_needed)
        warnings = [*warnings, *gap_warnings]
    summary = {
        "run.command": f"propagate.{args.domain}",
        "run.chi_source": "csv" if args.chi_csv else "model",
        "metrics.first_moment_delay_ps": delay,
        "metrics.loss_db": loss_db_total,
        "metrics.output_fwhm_ps": width,
        "metrics.center_transmission": center,
        "grid.n": grid.n,
        "grid.dt_ps": grid.dt,
    }
    if td:
        summary.update({f"solver.{key}": getattr(result, key)
                        for key in ("nz", "nz_needed", "z_error_estimate", "peak_coherence")})
    if not args.chi_csv:
        summary.update(_medium_figures(the_medium))
    summary.update(checks)
    summary["warnings"] = "; ".join(warnings) or "none"
    io.write_envelope_csv(_out_path(args, "input_envelope.csv"), pulse)
    io.write_envelope_csv(_out_path(args, "output_envelope.csv"), out)
    io.write_spectrum_csv(_out_path(args, "spectrum_off.csv"), fgrid, spec_in.samples)
    io.write_spectrum_csv(_out_path(args, "spectrum_on.csv"), fgrid, spec_on)
    return summary, config


def cmd_sweep(args):
    config = load_config(args.config)
    intensities = config.control.intensity_list
    if not intensities:
        raise ConfigError("sweep requires control.intensity_list")
    if config.control.kind != "constant":
        raise ConfigError("sweep assumes constant control during each point")

    _, pulse, base_medium = _set_up(config)
    if args.domain == "td":  # the phase is linear in the intensity, so the top point's plan covers every point
        top_medium = base_medium.with_control_intensity(top := max(intensities))
        nz_needed = tdprop._validate_resolution(top_medium, med.chi(top_medium, pulse.grid.frequency_grid().omegas))
    points, results = tdprop._scan(base_medium, intensities, pulse)
    summary = {"run.command": f"sweep.{args.domain}", "sweep.points": len(points)}
    if len(points) >= 3 and any(p.intensity > 0 for p in points):  # else no slope to fit
        slope, residual = analysis.linearity_diagnostic([(p.intensity, p.delay_ps) for p in points])
        summary["linearity.slope_ps_per_intensity"] = slope
        summary["linearity.residual_ratio"] = residual
    summary["metrics.max_delay_ps"] = max(p.delay_ps for p in points)
    warnings = []
    if args.domain == "td":  # the TD-FD gap grows with depth, so the top point is the worst
        check, gap_warnings = _td_fd_check(top_medium, pulse, results[intensities.index(top)].output, nz_needed)
        summary.update(check)
        warnings = [f"intensity {top!r}: {warning}" for warning in gap_warnings]
    summary["warnings"] = "; ".join(warnings) or "none"
    io.write_scan_csv(_out_path(args, "intensity_scan.csv"), points)
    return summary, config


def cmd_xcorr(args):
    signal = io.read_envelope_csv(args.signal_csv)
    curve_on = analysis.cross_correlate(signal, args.ref_duration_ps)
    summary = {
        "run.command": "xcorr",
        "input.signal_csv": args.signal_csv,
        **({"input.off_csv": args.off_csv} if args.off_csv else {}),
        "input.ref_duration_ps": args.ref_duration_ps,
        "metrics.xcorr_fwhm_ps": analysis.fwhm(curve_on),
    }
    summary["metrics.deconvolved_duration_ps"] = analysis.deconvolve_duration(
        summary["metrics.xcorr_fwhm_ps"], args.ref_duration_ps
    )
    if args.off_csv:
        off_env = io.read_envelope_csv(args.off_csv)
        if off_env.grid != signal.grid:
            raise ConfigError("on and off envelope CSVs must share a time grid")
        curve_off = analysis.cross_correlate(off_env, args.ref_duration_ps)
        summary["metrics.first_moment_delay_ps"] = analysis.first_moment_delay(curve_on, curve_off)
    io.write_correlation_csv(_out_path(args, "xcorr_on.csv"), curve_on)
    if args.off_csv:
        io.write_correlation_csv(_out_path(args, "xcorr_off.csv"), curve_off)
    return summary, None


def _flag(rule):
    """argparse type that reads a flag by a config key's rule, so a bad value
    exits 2 with a message naming the flag."""

    def read(text):
        try:
            return _read(text, *rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowlight",
        description="Raman slow-light simulator: analytic figures of merit, "
        "frequency/time-domain propagation, Kramers-Kronig reconstruction "
        "and cross-correlation delay metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default="slowlight_out", help="output directory")

    p = sub.add_parser("analytic", parents=[common], help="closed-form delay/loss/DBP sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--d0-max", type=_flag(_NON_NEGATIVE), default=5.0)
    p.add_argument("--d0-step", type=_flag(_POSITIVE), default=0.1)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("kk", parents=[common], help="Kramers-Kronig reconstruction")
    p.add_argument("--absorption-csv", required=True)
    p.add_argument("--center-nm", type=_flag(_POSITIVE), required=True)
    p.add_argument("--lambda0-nm", type=_flag(_WAVELENGTH), required=True)
    p.add_argument("--length-mm", type=_flag(_POSITIVE), required=True)
    p.add_argument("--n", type=_flag(_SAMPLE_COUNT), default=2**14)
    p.add_argument("--span-invps", type=_flag(_POSITIVE), default=272.0)
    p.add_argument("--force-taper", action="store_true")
    p.set_defaults(func=cmd_kk)

    p = sub.add_parser("propagate", parents=[common], help="single propagation run")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", choices=("fd", "td"), default="fd")
    p.add_argument("--chi-csv", help="susceptibility CSV to propagate through instead of the model (fd only)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("sweep", parents=[common], help="delay/loss vs control intensity")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", choices=("fd", "td"), default="td")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("xcorr", parents=[common], help="cross-correlation metrics")
    p.add_argument("--signal-csv", required=True)
    p.add_argument("--off-csv")
    p.add_argument("--ref-duration-ps", type=_flag(_POSITIVE), default=0.160)
    p.set_defaults(func=cmd_xcorr)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, then write its summary and, for config-driven
    runs, the resolved configuration."""
    args = build_parser().parse_args(argv)
    try:  # before any work, so a bad --out-dir costs no solve
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: --out-dir: {exc}", file=sys.stderr)
        return 2
    try:
        summary, config = args.func(args)
        if config is not None:
            summary.update(config.flat_items())
        io.write_summary(_out_path(args, "summary.txt"), summary)
        if config is not None:
            io.atomic_write_text(_out_path(args, "resolved_config.ini"), config.resolved_ini())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written: inputs are read as ConfigError
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (SlowLightError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0

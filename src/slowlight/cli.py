"""Command-line entry point.

Subcommands
-----------
analytic   closed-form delay/loss/DBP sweep over peak optical depth
kk         Kramers-Kronig reconstruction from measured absorption data
propagate  one frequency- or time-domain propagation run
sweep      delay and loss versus control intensity, with linearity check
xcorr      cross-correlation metrics for envelope CSVs

Exit codes: 0 success, 2 configuration or validation failure, 3 numerical
failure or resolution refusal.  All outputs are plot-ready CSVs plus a
flat ``key = value`` summary; the config-driven runs (analytic, propagate,
sweep) also write the fully-resolved configuration for bit-identical
re-runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import analysis, fdprop, io, medium as med, tdprop
from .config import _NON_NEGATIVE, _POSITIVE, _SAMPLE_COUNT, _WAVELENGTH, SimulationConfig, _read, load_config
from .config import wavenumber
from .errors import ConfigError, SlowLightError
from .kramers_kronig import (
    Susceptibility,
    group_delay_from_susceptibility,
    ingest_absorption,
    kk_real_from_imag,
)
from .spectral import TimeGrid, forward_transform, resample_to_resolve, synthesize_pulse


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _medium_figures(the_medium):
    figures = dataclasses.asdict(med.figures_of_merit(the_medium))
    return {f"figures.{key}": value for key, value in figures.items()}


def cmd_analytic(args):
    config = load_config(args.config)
    m = config.medium
    started = time.monotonic()
    count = int(round(args.d0_max / args.d0_step)) + 1
    d0_values = np.arange(count) * args.d0_step

    def figures(d0):
        point = med.from_target_depth(float(d0), m.gamma_invps, m.delta_invps, m.k0, m.length_mm)
        return med.figures_of_merit(point)

    rows = [(f.group_delay_ps, f.loss_db, f.delay_bandwidth_product) for f in map(figures, d0_values)]
    unit = figures(1.0)
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
    io.write_analytic_csv(_out_path(args, "analytic_sweep.csv"), d0_values, *zip(*rows))
    return summary, config


def cmd_kk(args):
    wavelengths, values, kind = io.read_absorption_csv(args.absorption_csv)
    k0 = wavenumber(args.lambda0_nm)
    grid = TimeGrid(t_start=0.0, dt=2.0 * np.pi / args.span_invps, n=args.n).frequency_grid()
    depth = ingest_absorption(
        (wavelengths, values),
        center_wavelength_nm=args.center_nm,
        length_mm=args.length_mm,
        target_grid=grid,
        force_taper=args.force_taper,
        absorption=(kind == "absorption"),
    )
    chi = kk_real_from_imag(depth, k0, args.length_mm)
    summary = {
        "run.command": "kk",
        "input.absorption_csv": args.absorption_csv,
        "input.kind": kind,
        "input.center_nm": args.center_nm,
        "input.lambda0_nm": args.lambda0_nm,
        "input.length_mm": args.length_mm,
        "grid.n": args.n,
        "grid.span_invps": args.span_invps,
        "kk.peak_depth": float(np.max(depth.depth)),
        "kk.reconstructed_delay_ps": group_delay_from_susceptibility(chi, k0, args.length_mm),
    }
    io.write_susceptibility_csv(_out_path(args, "susceptibility.csv"), grid, chi.values)
    return summary, None


def _set_up(config: SimulationConfig):
    """The time grid, the signal pulse and the control-free medium of a run."""
    grid = config.grid.build(config.signal, config.medium)
    return grid, config.signal.build(grid), config.medium.build()


def _transfer_for_run(args, the_medium, fgrid):
    if not args.chi_csv:
        return fdprop._model_transfer(the_medium, fgrid)
    detunings, values = io.read_susceptibility_csv(args.chi_csv)
    real = np.interp(fgrid.omegas, detunings, values.real, left=0.0, right=0.0)
    imag = np.interp(fgrid.omegas, detunings, values.imag, left=0.0, right=0.0)
    chi = Susceptibility(grid=fgrid, values=real + 1j * imag)
    return fdprop.transfer_function(chi, the_medium.k0, the_medium.length_mm)


def cmd_propagate(args):
    config = load_config(args.config)
    if config.control.intensity_list:
        raise ConfigError("propagate expects a single control.intensity; use sweep for lists")
    if args.domain == "td" and args.chi_csv:
        raise ConfigError("the time-domain solver integrates the two-line model; use --domain fd with --chi-csv")

    grid, pulse, base_medium = _set_up(config)
    fgrid = grid.frequency_grid()
    intensity = config.control.intensity
    the_medium = base_medium.with_control_intensity(intensity)
    transfer = _transfer_for_run(args, the_medium, fgrid)

    spec_in = forward_transform(pulse)
    warnings, solver, checks = [], {"solver.nz": config.solver.nz}, {}
    if args.domain == "fd":
        out = fdprop.propagate(pulse, transfer)
        spec_on = spec_in.samples * transfer.values
    else:
        control = config.control.build(grid, intensity)
        result = tdprop.solve(the_medium, control, pulse, config.solver.build())
        out, warnings = result.output, result.warnings
        solver = {
            "solver.nz": result.nz,
            "solver.nz_needed": result.nz_needed,
            "solver.z_error_estimate": result.z_error_estimate,
            "solver.peak_coherence": result.peak_coherence,
        }
        spec_on = forward_transform(out).samples
        if config.control.kind == "constant":
            reference = fdprop.propagate_causal(pulse, the_medium)
            checks["metrics.td_fd_l2_error"] = analysis.relative_l2_error(out, reference)
    delay, loss_db_total = analysis.delay_and_loss(pulse, out)
    summary = {
        "run.command": f"propagate.{args.domain}",
        "run.chi_source": "csv" if args.chi_csv else "model",
        "metrics.first_moment_delay_ps": delay,
        "metrics.loss_db": loss_db_total,
        "metrics.output_fwhm_ps": out.intensity_fwhm(),
        "metrics.center_transmission": transfer.center_transmission(),
        "grid.n": grid.n,
        "grid.dt_ps": grid.dt,
        **solver,
    }
    if args.domain == "td" and config.control.kind != "constant":
        del summary["metrics.center_transmission"]  # a fixed-intensity FD value
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

    grid, pulse, base_medium = _set_up(config)
    if args.domain == "td":
        points = tdprop.delay_vs_control_scan(base_medium, intensities, pulse, config.solver.build())
    else:
        fgrid = grid.frequency_grid()
        transfers = (fdprop._model_transfer(base_medium.with_control_intensity(i), fgrid) for i in intensities)
        points = [
            tdprop.ScanPoint(float(i), *analysis.delay_and_loss(pulse, fdprop.propagate(pulse, h)))
            for i, h in zip(intensities, transfers)
        ]
    summary = {"run.command": f"sweep.{args.domain}", "sweep.points": len(points)}
    if len(points) >= 3:
        slope, residual = analysis.linearity_diagnostic([(p.intensity, p.delay_ps) for p in points])
        summary["linearity.slope_ps_per_intensity"] = slope
        summary["linearity.residual_ratio"] = residual
    summary["metrics.max_delay_ps"] = max((p.delay_ps for p in points), default=0.0)
    warnings = [f"intensity {p.intensity!r}: {warning}" for p in points for warning in p.warnings]
    summary["warnings"] = "; ".join(warnings) or "none"
    io.write_scan_csv(_out_path(args, "intensity_scan.csv"), points)
    return summary, config


def cmd_xcorr(args):
    signal = io.read_envelope_csv(args.signal_csv)
    grid = signal.grid
    # a reference finer than the grid is met by resampling the envelopes, not refused
    signal, upsample = resample_to_resolve(signal, args.ref_duration_ps)
    reference = synthesize_pulse("gaussian", signal.grid, duration=args.ref_duration_ps)
    curve_on = analysis.cross_correlate(signal, reference)
    summary = {
        "run.command": "xcorr",
        "input.signal_csv": args.signal_csv,
        "input.ref_duration_ps": args.ref_duration_ps,
        "metrics.xcorr_fwhm_ps": analysis.fwhm(curve_on),
    }
    summary["metrics.deconvolved_duration_ps"] = analysis.deconvolve_duration(
        summary["metrics.xcorr_fwhm_ps"], args.ref_duration_ps
    )
    if args.off_csv:
        off_env = io.read_envelope_csv(args.off_csv)
        if off_env.grid != grid:
            raise ConfigError("on and off envelope CSVs must share a time grid")
        off_env, _ = resample_to_resolve(off_env, args.ref_duration_ps)
        curve_off = analysis.cross_correlate(off_env, reference)
        summary["metrics.first_moment_delay_ps"] = analysis.first_moment_delay(curve_on, curve_off)
    if upsample > 1:
        summary["xcorr.upsample"] = upsample
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
    except (SlowLightError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

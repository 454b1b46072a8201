import errno
import gc
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slowlight as sl
from slowlight import cli, fdprop, tdprop
from slowlight.cli import main
from slowlight.config import load_config
from slowlight.data import ktp_absorption_path

CONFIG = """\
[medium]
gamma_invps = 1.0
delta_invps = 6.8
d0 = 2.5
length_mm = 30.0
lambda0_nm = 765.0

[signal]
shape = flat_top_spectrum
bandwidth_invps = 1.8

[control]
kind = constant
intensity = 1.0

[grid]
n = 16384
dt_ps = 0.06

[solver]
nz = 256
"""


ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = ROOT / "configs" / "example.ini"
# a spawned interpreter imports slowlight from this checkout, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


# a spawned CLI treats warnings as the in-process suite does, so a warning fails its test
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::UserWarning")


def run_cli(*args):
    cmd = [sys.executable, *WARNINGS_AS_ERRORS, "-m", "slowlight", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=ENV)


def write_config(tmp_path, text=CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path):
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    header = path.read_text().splitlines()[0]
    return header, body


def spy_forward_transforms(monkeypatch):
    """The envelopes every slowlight module hands to ``forward_transform``, in call order."""
    seen, original = [], sl.forward_transform

    def spy(env):
        seen.append(env)
        return original(env)

    for name, module in list(sys.modules.items()):
        if name.startswith("slowlight") and getattr(module, "forward_transform", None) is original:
            monkeypatch.setattr(module, "forward_transform", spy)
    return seen


def spy_plans(monkeypatch, plans):
    """Append to ``plans`` each nz_needed ``tdprop._validate_resolution`` returns."""
    validate = tdprop._validate_resolution

    def spy(medium, chi):
        plans.append(validate(medium, chi))
        return plans[-1]

    monkeypatch.setattr(tdprop, "_validate_resolution", spy)


def spy_marches(monkeypatch):
    """The ``(amplitude, nz_needed)`` of each ``tdprop._march`` call."""
    calls, march = [], tdprop._march

    def spy(medium, ec, pulse, nz_needed):
        calls.append((ec, nz_needed))
        return march(medium, ec, pulse, nz_needed)

    monkeypatch.setattr(tdprop, "_march", spy)
    return calls


def test_import_leaves_scipy_out():
    code = "import sys, slowlight; assert 'scipy' not in sys.modules, 'scipy imported'"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert cp.returncode == 0, cp.stderr


def test_module_entry_freezes_the_import_heap_and_exits_with_the_run_code(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv=None: 3)
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("slowlight", run_name="__main__")
        assert exc.value.code == 3
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_in_process_main_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    assert main(["analytic", "--config", str(write_config(tmp_path)), "--out-dir", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before


def test_profiled_run_prints_its_stats_and_writes_its_outputs(tmp_path):
    # the CLI ends the interpreter by a normal exit, so a profiler wrapped
    # around it still reports
    out = tmp_path / "out"
    cmd = [sys.executable, *WARNINGS_AS_ERRORS, "-m", "cProfile", "-m", "slowlight", "analytic",
           "--config", str(write_config(tmp_path)), "--out-dir", str(out)]
    cp = subprocess.run(cmd, capture_output=True, text=True, env=ENV)
    assert cp.returncode == 0, cp.stderr
    assert "function calls" in cp.stdout and "Ordered by" in cp.stdout
    assert (out / "analytic_sweep.csv").is_file()


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for name in ("analytic", "kk", "propagate", "sweep", "xcorr"):
        assert name in cp.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("xcorr", "--signal-csv", "{missing}"),
        ("kk", "--absorption-csv", "{missing}", "--center-nm", 765.0, "--lambda0-nm", 765.0,
         "--length-mm", 30.0),
        ("propagate", "--config", "{config}", "--chi-csv", "{missing}"),
    ],
    ids=["xcorr", "kk", "propagate"],
)
def test_missing_input_file_exits_2(tmp_path, argv):
    missing = tmp_path / "missing.csv"
    config = write_config(tmp_path)
    args = [str(a).format(missing=missing, config=config) for a in argv]
    cp = run_cli(*args, "--out-dir", tmp_path / "out")
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {missing}")


def _csv(header, rows=16, bad=None):
    """A CSV under ``header`` with a uniform first column; ``bad`` replaces one cell."""
    lines = [",".join([str(760.0 + k)] + ["0.5"] * header.count(",")) for k in range(rows)]
    if bad is not None:
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + bad
    return "\n".join([header, *lines]) + "\n"


KK_ARGV = ["kk", "--absorption-csv", "{csv}", "--center-nm", "765.85", "--lambda0-nm", "765", "--length-mm", "30"]

# the three CSV inputs, each with its argv and header
CSV_READERS = [
    (KK_ARGV, "wavelength_nm,absorption"),
    (["propagate", "--config", "{config}", "--chi-csv", "{csv}"], "detuning_invps,chi_re,chi_im"),
    (["xcorr", "--signal-csv", "{csv}"], "time_ps,re,im"),
]
CSV_READER_IDS = ["kk", "chi-csv", "xcorr"]

# absorption records kk cannot use, each refused with the file's name
BAD_RECORDS = {
    "kk-one-record": "wavelength_nm,absorption\n765,0.1\n",
    "kk-non-monotonic": "wavelength_nm,absorption\n760,0.1\n762,0.2\n761,0\n",
    "kk-repeated-wavelength": "wavelength_nm,absorption\n760,0.1\n760,0.2\n761,0\n",
    "kk-absorption-one": _csv("wavelength_nm,absorption", bad="1.0"),
    "kk-negative-absorption": _csv("wavelength_nm,absorption", bad="-0.1"),
    "kk-negative-depth": _csv("wavelength_nm,optical_depth", bad="-0.1"),
    "kk-zero-wavelength": "wavelength_nm,absorption\n0,0.1\n1,0.2\n2,0\n",
    "kk-negative-wavelength": "wavelength_nm,absorption\n-2,0.1\n-1,0.2\n0,0\n",
    "kk-off-grid": "wavelength_nm,absorption\n1500,0\n1501,0.5\n1502,0\n",  # 192 1/ps below a 272 1/ps grid
}


@pytest.mark.parametrize(
    "argv, text",
    [
        (KK_ARGV, _csv("wavelength_nm,absorption", bad="inf")),
        (["propagate", "--config", "{config}", "--chi-csv", "{csv}"], _csv("detuning_invps,chi_re,chi_im", bad="nan")),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im", bad="abc")),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im", rows=100)),
        (["xcorr", "--signal-csv", "{csv}"], _csv("time_ps,re,im").replace("\n765.0,", "\n765.5,")),
        *((KK_ARGV, text) for text in BAD_RECORDS.values()),
        # "#" starts no comment: a note row or a flagged cell is malformed like any other
        *((argv, text) for argv, header in CSV_READERS
          for text in (_csv(header).replace("\n", "\n# note\n", 1), _csv(header, bad="0.5  # flagged"))),
    ],
    ids=["kk-inf", "chi-nan", "non-numeric", "rows-not-power-of-two", "non-uniform-axis", *BAD_RECORDS,
         *(f"{name}-{case}" for name in CSV_READER_IDS for case in ("hash-row", "hash-tail"))],
)
def test_bad_csv_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    fill = {"csv": path, "config": write_config(tmp_path)}
    out = tmp_path / "out"
    assert main([arg.format(**fill) for arg in argv] + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, header", CSV_READERS, ids=CSV_READER_IDS)
def test_header_only_csv_exits_2_with_one_line(tmp_path, argv, header):
    # a separate process, so that a warning numpy prints would reach stderr
    path = tmp_path / "input.csv"
    fill = {"csv": path, "config": write_config(tmp_path)}
    for body in ["", "\n\n", " \n\t\n  "]:  # header only, blank lines, whitespace-only lines
        path.write_text(header + "\n" + body)
        cp = run_cli(*[arg.format(**fill) for arg in argv], "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert cp.stderr == f"error: malformed CSV {path}: no data rows\n"


@pytest.mark.parametrize(
    "argv, header",
    [*CSV_READERS, (["xcorr", "--signal-csv", "{signal}", "--off-csv", "{csv}"], "time_ps,re,im")],
    ids=[*CSV_READER_IDS, "xcorr-off"],
)
@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda row: row.rsplit(",", 1)[0] + ",abc", "line 8: 'abc' is not a number"),
        (lambda row: row.split(",", 1)[0], "line 8 has 1 cell, the header has {width} columns"),
        (lambda row: " \t\n" + row, "line 8 has 1 cell, the header has {width} columns"),
        *((lambda row, cell=cell: row.rsplit(",", 1)[0] + "," + cell, f"line 8: {cell!r} is not a finite number")
          for cell in ("nan", "inf", "-inf")),
    ],
    ids=["bad-cell", "short-row", "whitespace-line", "nan-cell", "inf-cell", "minus-inf-cell"],
)
def test_csv_parse_error_names_the_file_line(tmp_path, capsys, argv, header, fault, message):
    # the header is line 1 and the empty line 2 is skipped but counted, so body row 6 is line 8
    lines = _csv(header).splitlines()
    lines[6] = fault(lines[6])
    path = tmp_path / "input.csv"
    path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
    signal = tmp_path / "signal.csv"
    sl.io.write_envelope_csv(signal, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=3.0))
    fill = {"csv": path, "signal": signal, "config": write_config(tmp_path)}
    out = tmp_path / "out"
    assert main([arg.format(**fill) for arg in argv] + ["--out-dir", str(out)]) == 2
    width = header.count(",") + 1
    assert capsys.readouterr().err == f"error: malformed CSV {path}: {message.format(width=width)}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, header",
    [
        (["xcorr", "--signal-csv", "{bad}"], "time_ps,re,im"),
        (["xcorr", "--signal-csv", "{signal}", "--off-csv", "{bad}"], "time_ps,re,im"),
        (["propagate", "--config", "{config}", "--chi-csv", "{bad}"], "detuning_invps,chi_re,chi_im"),
        ([arg.replace("{csv}", "{bad}") for arg in KK_ARGV], "wavelength_nm,absorption"),
        (["analytic", "--config", "{bad}"], None),
        (["propagate", "--config", "{bad}"], None),
        (["sweep", "--config", "{bad}"], None),
    ],
    ids=["xcorr-signal", "xcorr-off", "chi-csv", "kk", "analytic-config", "propagate-config", "sweep-config"],
)
def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, argv, header):
    bad = tmp_path / "bad"
    if header is None:
        bad.write_bytes(b"# \xe9\n" + CONFIG.encode())
    else:
        bad.write_bytes(_csv(header).encode().replace(b"\n", b"\xff\n", 1))  # in the header line
    signal = tmp_path / "signal.csv"
    sl.io.write_envelope_csv(signal, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=3.0))
    fill = {"bad": bad, "signal": signal, "config": write_config(tmp_path)}
    out = tmp_path / "out"
    assert main([arg.format(**fill) for arg in argv] + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_bad_out_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch, under):
    def refuse(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(tdprop, "solve", refuse)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv = ["propagate", "--config", str(write_config(tmp_path)), "--domain", "td"]
    assert main([*argv, "--out-dir", str(a_file / under)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --out-dir")


@pytest.mark.parametrize(
    "argv, blocked, written",
    [
        (["analytic"], "summary.txt", ["analytic_sweep.csv"]),
        (["propagate", "--domain", "fd"], "output_envelope.csv", ["input_envelope.csv"]),
    ],
    ids=["analytic-summary", "propagate-output-envelope"],
)
def test_unwritable_output_exits_2_naming_the_file(tmp_path, capsys, argv, blocked, written):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the output goes
    assert main([*argv, "--config", str(write_config(tmp_path)), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / blocked}: {os.strerror(errno.EISDIR)}"]
    # the files written before it stay; no temp file is left
    assert sorted(path.name for path in out.iterdir()) == sorted([blocked, *written])


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["analytic", "--config", str(cfg), "--out-dir", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert modes == dict.fromkeys(["analytic_sweep.csv", "summary.txt", "resolved_config.ini"], mode)


@pytest.mark.parametrize(
    "argv",
    [["propagate", "--domain", "fd", "--config", "{input}"], ["xcorr", "--signal-csv", "{input}"]],
    ids=["config", "envelope-csv"],
)
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, argv):
    path = tmp_path / "input"
    if argv[0] == "xcorr":
        sl.io.write_envelope_csv(path, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=3.0))
    else:
        write_config(tmp_path, name=path.name)
    plain, outputs = path.read_bytes(), []
    for text in (plain, "\ufeff".encode() + plain):  # one path, so both summaries name the same input
        path.write_bytes(text)
        out = tmp_path / f"out{len(outputs)}"
        assert main([arg.format(input=path) for arg in argv] + ["--out-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


# the arguments each subcommand requires besides the flag under test
_REQUIRED = {
    "analytic": ["--config", "{config}"],
    "kk": ["--absorption-csv", "{ktp}", "--center-nm", "765.85", "--lambda0-nm", "765", "--length-mm", "30"],
    "xcorr": ["--signal-csv", "{missing}"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("kk", "--lambda0-nm", "0"),
        ("kk", "--span-invps", "0"),
        ("analytic", "--d0-max", "inf"),
        ("kk", "--lambda0-nm", "nan"),
        ("kk", "--lambda0-nm", "1e-320"),  # k0 = 2*pi/lambda0 divides by zero
        ("kk", "--lambda0-nm", "1e-316"),  # k0 overflows
        ("kk", "--n", "1000"),
        ("kk", "--length-mm", "0"),
        ("xcorr", "--ref-duration-ps", "0"),
        ("analytic", "--d0-max", "nan"),
        ("analytic", "--d0-step", "inf"),
        ("xcorr", "--ref-duration-ps", "nan"),
    ],
)
def test_bad_number_flag_exits_2(tmp_path, capsys, command, flag, value):
    fill = {"config": write_config(tmp_path), "ktp": ktp_absorption_path(), "missing": tmp_path / "missing.csv"}
    args = [arg.format(**fill) for arg in _REQUIRED[command]]
    with pytest.raises(SystemExit) as exited:
        main([command, *args, flag, value, "--out-dir", str(tmp_path / "out")])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


NO_WINDOW = [("gamma_invps = 1.0", "gamma_invps = 7.0")]
AS_LIST = [("intensity = 1.0", "intensity_list = 0.5, 1.0")]
INF_COUPLING = [("d0 = 2.5", "d0 = 1e308"), ("length_mm = 30.0", "length_mm = 1e-10")]


@pytest.mark.parametrize(
    "argv, edits, code",
    [
        (["analytic"], NO_WINDOW, 2),
        (["propagate", "--domain", "fd"], NO_WINDOW, 2),
        (["propagate", "--domain", "td"], NO_WINDOW, 2),
        (["sweep", "--domain", "fd"], NO_WINDOW + AS_LIST, 2),
        (["analytic"], [("dt_ps = 0.06\n", ""), ("n = 16384", "n = 8")], 2),  # no grid step fits
        (["propagate", "--domain", "fd"], [("intensity = 1.0", "intensity = 1e300")], 3),
        (["analytic"], INF_COUPLING, 2),
        (["propagate", "--domain", "fd"], INF_COUPLING, 2),
        # each allocation below is larger than any address space, so it fails at once
        (["analytic", "--d0-max", "1e300", "--d0-step", "1e-10"], [], 3),  # the point count overflows
        (["analytic", "--d0-max", "1e18", "--d0-step", "1"], [], 3),  # 6.94 EiB of d0 values
        (["propagate", "--domain", "fd"], [("n = 16384", "n = 1125899906842624")], 3),  # 8 PiB per array
        # given grids spanning fewer than 16 pulse durations (3.09 ps each)
        (["propagate", "--domain", "fd"], [("dt_ps = 0.06", "dt_ps = 1e-6")], 2),
        (["propagate", "--domain", "fd"], [("dt_ps = 0.06", "dt_ps = 0.001")], 2),
        (["propagate", "--domain", "fd"], [("dt_ps = 0.06", "dt_ps = 1e-300")], 2),
        (["propagate", "--domain", "td"], [("n = 16384", "n = 8")], 2),
        (["propagate", "--domain", "fd"], AS_LIST, 2),
        (["sweep", "--domain", "fd"], AS_LIST + [("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")], 2),
        (["analytic"], [("length_mm = 30.0\n", "")], 2),
        # a shaped control past the two-photon beat rule, 2 pi / (8 Delta) = 0.1155 ps
        (["propagate", "--domain", "td"], [("dt_ps = 0.06", "dt_ps = 0.15"),
                                           ("kind = constant", "kind = gaussian\nfwhm_ps = 60")], 3),
    ],
    ids=["analytic-no-window", "fd-no-window", "td-no-window", "sweep-no-window", "analytic-no-grid-step",
         "fd-centroid", "analytic-inf-coupling", "fd-inf-coupling", "analytic-count-overflow",
         "analytic-count-memory", "fd-grid-memory", "fd-window-1e-6", "fd-window-0.001", "fd-window-1e-300",
         "td-window-n-8", "propagate-intensity-list", "sweep-gaussian-control", "analytic-no-length",
         "td-shaped-past-beat"],
)
def test_failed_run_writes_nothing(tmp_path, capsys, argv, edits, code):
    text = CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--config", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_fwhm_under_a_constant_control_exits_2_naming_both_keys(tmp_path, capsys):
    # the run would drop the key, yet write it back to resolved_config.ini
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, EXAMPLE.read_text().replace("kind = constant", "kind = constant\nfwhm_ps = 60.0"))
    assert main(["propagate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("error: keys control.kind = constant and control.fwhm_ps: "
                                       "a constant control has no width\n")
    assert list(out.iterdir()) == []


def test_unknown_key_exits_2_naming_it_and_its_section(tmp_path, capsys):
    # keys are strict: a misspelt key is refused, not ignored
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, EXAMPLE.read_text().replace("[medium]\n", "[medium]\nfoo = 1\n"))
    assert main(["analytic", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'foo' in section [medium]\n"
    assert list(out.iterdir()) == []


def test_line_without_equals_is_one_line_naming_the_file_and_the_line(tmp_path, capsys):
    cfg = write_config(tmp_path, CONFIG.replace("[grid]\n", "[grid]\nn 16384\n"))
    out = tmp_path / "out"
    assert main(["analytic", "--config", str(cfg), "--out-dir", str(out)]) == 2
    line_number = CONFIG.splitlines().index("[grid]") + 2
    assert capsys.readouterr().err == (f"error: malformed config: Source contains parsing errors: '{cfg}' "
                                       f"[line {line_number}]: 'n 16384\\n'\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["propagate", "sweep"])
def test_td_run_with_an_absorbed_fd_reference_exits_3_with_one_line(tmp_path, capsys, command):
    # at d0 = 1e6 FD absorbs the whole pulse, and a constant-control TD solve returns FD's output:
    # the loss, not a width, a division by zero or a check march of 1e5 substeps, refuses the run
    text = CONFIG.replace("d0 = 2.5", "d0 = 1e6")
    if command == "sweep":
        text = text.replace("intensity = 1.0", "intensity_list = 0.5, 1.0")
    cfg = write_config(tmp_path, text)
    assert main([command, "--domain", "td", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    expected = {"propagate": "error: the output has no energy: the whole pulse was absorbed\n",
                # the sweep's first point is 1938 dB down: rounding, refused before the second's zero energy
                "sweep": "error: intensity 0.5: the output is 1938 dB below its input; past 300 dB (an amplitude "
                         "ratio of 1e-15, a few times the input's rounding) it is rounding, not a pulse\n"}[command]
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("command, edits", [
    ("propagate", []),
    ("propagate", [("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")]),
    ("sweep", [("intensity = 1.0", "intensity_list = 0.25, 0.5, 1.0, 2.0")]),
], ids=["constant", "gaussian", "sweep"])
def test_td_run_past_the_substep_limit_exits_3_before_any_march(tmp_path, capsys, monkeypatch, command, edits):
    # at d0 = 1e12 the march would take 3e10 substeps and more: the chi sample alone refuses the run
    text = EXAMPLE.read_text().replace("d0 = 2.5", "d0 = 1e12")
    for old, new in edits:
        text = text.replace(old, new)
    calls, out = spy_marches(monkeypatch), tmp_path / "out"
    out.mkdir()
    assert main([command, "--domain", "td", "--config", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == 3
    assert re.fullmatch(r"error: the solve would take \S+ z substeps, more than the 1e\+09 any run could finish\n",
                        capsys.readouterr().err)
    assert calls == [] and list(out.iterdir()) == []


NINE_POINTS = ("intensity = 1.0", "intensity_list = " + ", ".join(map(str, np.linspace(0.25, 2.0, 9))))


@pytest.mark.parametrize("command, domain, edits, plans", [
    ("propagate", "fd", [], 0),
    ("sweep", "fd", [NINE_POINTS], 0),
    ("propagate", "td", [], 1),
    ("sweep", "td", [NINE_POINTS], 1),
    ("propagate", "td", [("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")], 1),
], ids=["fd-propagate", "fd-sweep", "td-propagate", "td-sweep", "td-gaussian"])
def test_only_a_run_that_marches_is_planned(tmp_path, monkeypatch, command, domain, edits, plans):
    # the phase is linear in the intensity, so a TD sweep plans its top point alone, for its check march
    text = EXAMPLE.read_text().replace("n = 16384", "n = 4096")
    for old, new in edits:
        text = text.replace(old, new)
    seen = []
    spy_plans(monkeypatch, seen)
    argv = [command, "--domain", domain, "--config", str(write_config(tmp_path, text)), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(seen) == plans


@pytest.mark.parametrize("command, domain", [("propagate", "fd"), ("propagate", "td"), ("sweep", "fd"), ("sweep", "td")])
def test_line_strength_past_the_float_range_exits_3_with_one_line(tmp_path, capsys, command, domain):
    # at d0 = 1e300 the line strength c = g I overflows at I = 1e10: refused before chi is sampled, naming
    # the intensity, where chi once warned of the overflow and the run failed on a nan
    key = "intensity_list = 0.0, 1e10" if command == "sweep" else "intensity = 1e10"
    text = EXAMPLE.read_text().replace("d0 = 2.5", "d0 = 1e300").replace("intensity = 1.0", key)
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--domain", domain, "--config", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == ("error: a line's c / Gamma at control intensity 10000000000.0 "
                                       "must be finite, got inf\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("domain", ["fd", "td"])
def test_ambiguous_width_exits_3_with_one_short_line(tmp_path, capsys, domain):
    # a huge chirp spreads the pulse over the window in 9 lobes; the message gives the count and the outer pairs
    cfg = write_config(tmp_path, CONFIG.replace("bandwidth_invps = 1.8", "bandwidth_invps = 1.8\ngdd_ps2 = 1e300"))
    assert main(["propagate", "--domain", domain, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    cause = "error: the output envelope has no single intensity FWHM: "
    assert err.count("\n") == 1 and err.startswith(cause + "found 9 half-maximum crossing pairs, the first (")
    assert "np.float64" not in err and len(err) - len(cause) < 200


@pytest.mark.parametrize("fwhm_ps", ["0.2", "0.5", "1.0"])
def test_td_output_split_by_a_short_control_exits_3_naming_the_output(tmp_path, capsys, fwhm_ps):
    # a flat-topped control shorter than the 3 ps signal cuts its output in two, so the output has no one width
    cfg = write_config(tmp_path, CONFIG.replace("kind = constant", f"kind = flat_top\nfwhm_ps = {fwhm_ps}"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["propagate", "--domain", "td", "--config", str(cfg), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: the output envelope has no single intensity FWHM: found 2 half-maximum crossing pairs")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["gaussian", "flat_top"])
def test_control_shorter_than_the_float_range_runs_without_a_warning(tmp_path, capsys, kind):
    # (2 t / 1e-300)^2 overflows: the envelope is exp(-inf) = 0 there, with no RuntimeWarning, which the suite
    # turns into an error
    cfg = write_config(tmp_path, CONFIG.replace("kind = constant", f"kind = {kind}\nfwhm_ps = 1e-300"))
    assert main(["propagate", "--domain", "td", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_phase_curvature_past_the_float_range_exits_3_naming_it(tmp_path, capsys):
    # 0.5 * 1e306 * omega^2 overflows at the grid's edge detunings: the curvature is the cause, not a lack of energy
    cfg = write_config(tmp_path, CONFIG.replace("bandwidth_invps = 1.8", "bandwidth_invps = 1.8\ngdd_ps2 = 1e306"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["propagate", "--config", str(cfg), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: spectral phase curvature 1e+306 ps^2 ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, domain, message",
    [("propagate", "td", "substeps"), ("sweep", "td", "substeps"),
     ("propagate", "fd", "no energy"), ("sweep", "fd", "no energy")],
)
def test_depth_past_any_run_exits_3_with_one_line(tmp_path, capsys, command, domain, message):
    # at d0 = 1e300 the TD solve would take about 1e299 substeps, and FD absorbs the whole pulse
    text = CONFIG.replace("n = 16384", "n = 4096").replace("d0 = 2.5", "d0 = 1e300")
    if command == "sweep":
        text = text.replace("intensity = 1.0", "intensity_list = 0.5, 1.0")
    cfg = write_config(tmp_path, text)
    assert main([command, "--domain", domain, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert re.search(r"\d{5}", err) is None  # a count in %.3g, not a number of hundreds of digits


_GRIDS = {"n16384-dt0.06": ("16384", "0.06"), "n4096-dt0.1": ("4096", "0.1")}


def _deep_config(tmp_path, d0, grid):
    n, dt = _GRIDS[grid]
    text = CONFIG.replace("d0 = 2.5", f"d0 = {d0}").replace("n = 16384", f"n = {n}")
    return write_config(tmp_path, text.replace("dt_ps = 0.06", f"dt_ps = {dt}"))


@pytest.mark.parametrize("grid", _GRIDS)
def test_output_282_db_down_still_runs(tmp_path, grid):
    # d0 = 400: 282 dB of loss, an amplitude ratio of 8e-15, still has one width
    cfg = _deep_config(tmp_path, "400.0", grid)
    assert main(["propagate", "--domain", "fd", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert float(read_summary(tmp_path / "out" / "summary.txt")["metrics.loss_db"]) == pytest.approx(282.4, abs=0.1)


@pytest.mark.parametrize("command, domain",
                         [("propagate", "fd"), ("propagate", "td"), ("sweep", "fd"), ("sweep", "td")],
                         ids=["fd", "td", "sweep-fd", "sweep-td"])
@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("d0", ["450.0", "500.0"])
def test_output_past_300_db_exits_3_naming_the_loss(tmp_path, capsys, d0, grid, command, domain):
    # 313-320 dB down the output is rounding of the input, with no single width on either grid;
    # a sweep's point at half the intensity is half as far down and passes, and the line names the one refused
    cfg, out = _deep_config(tmp_path, d0, grid), tmp_path / "out"
    if command == "sweep":
        cfg.write_text(cfg.read_text().replace("intensity = 1.0", "intensity_list = 0.5, 1.0"))
    assert main([command, "--domain", domain, "--config", str(cfg), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    point = r"intensity 1\.0: " if command == "sweep" else ""
    assert re.fullmatch(rf"error: {point}the output is 3[12]\d\.\d dB below its input; past 300 dB \(an amplitude "
                        r"ratio of 1e-15, a few times the input's rounding\) it is rounding, not a pulse\n", err), err
    assert list(out.iterdir()) == []


class TestAnalytic:
    def test_sweep_values(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("analytic", "--config", cfg, "--out-dir", out, "--d0-max", 5, "--d0-step", 0.1)
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "analytic_sweep.csv")
        assert header == "d0,delay_ps,loss_db,dbp"
        d0, delay, loss, dbp = body.T
        row = np.argmin(np.abs(d0 - 2.5))
        assert d0[row] == pytest.approx(2.5, abs=1e-12)
        assert delay[row] == pytest.approx(0.16735, abs=1e-5)
        assert loss[row] == pytest.approx(1.7289, abs=1e-4)
        assert dbp[row] == pytest.approx(0.9706, abs=1e-4)
        # unit DBP crossing falls between d0 = 2.5 and 2.6
        crossing = d0[np.argmax(dbp >= 1.0)]
        assert 2.5 < crossing <= 2.6
        # delay per loss constant across the sweep
        mask = d0 > 0
        ratio = delay[mask] / loss[mask]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9 * abs(ratio[0])

    @pytest.mark.parametrize(
        "flags, rows",
        [([], 51), (["--d0-max", "100", "--d0-step", "0.001"], 100_001),
         # no row past --d0-max (4.8, not 5.1), and 0.3 / 0.1 = 2.9999999999999996 still ends at the 4th row,
         # 0.3 itself rather than 3 * 0.1 = 0.30000000000000004
         (["--d0-max", "5", "--d0-step", "0.3"], 17), (["--d0-max", "0.3", "--d0-step", "0.1"], 4)],
        ids=["default", "1e5-rows", "step-past-max", "quotient-below-integer"],
    )
    def test_rows_match_the_closed_forms(self, tmp_path, flags, rows):
        out = tmp_path / "out"
        assert main(["analytic", "--config", str(write_config(tmp_path)), "--out-dir", str(out), *flags]) == 0
        _, body = read_csv(out / "analytic_sweep.csv")
        d0, delay, loss, dbp = body.T
        gamma, delta = 1.0, 6.8
        q = delta**2 / 4.0
        tau_g = d0 * gamma * (q - gamma**2) / (q + gamma**2) ** 2
        eta = d0 * (10.0 / np.log(10.0)) * 2.0 * gamma**2 / (q + gamma**2)
        oracles = [np.column_stack((tau_g, eta, tau_g * (delta - gamma)))]
        if not flags:
            # and the figures of one medium per row, as the library builds it
            media = (sl.from_target_depth(x, gamma, delta, 2 * np.pi / 765e-6, 30.0) for x in d0)
            figures = [sl.figures_of_merit(m) for m in media]
            oracles.append(np.array([(f.group_delay_ps, f.loss_db, f.delay_bandwidth_product) for f in figures]))
        assert d0.size == rows
        assert d0.max() <= float(flags[1] if flags else 5.0)  # the --d0-max of the run
        for expected in oracles:
            assert np.all(np.abs(body[:, 1:] - expected) <= 1e-15 * np.abs(expected))

    def test_zero_only_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("analytic", "--config", cfg, "--out-dir", out, "--d0-max", 0, "--d0-step", 0.1)
        assert cp.returncode == 0, cp.stderr
        _, body = read_csv(out / "analytic_sweep.csv")
        assert body.shape[0] == 1
        assert np.all(body[0] == 0.0)

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG + "\ntypo_key = 1\n")
        cp = run_cli("analytic", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "typo_key" in cp.stderr

    @pytest.mark.parametrize("gamma", [3.4, 5.0], ids=["gamma-half-delta", "gamma-past-half-delta"])
    def test_no_window_centre_delay_exits_2_naming_both_keys(self, tmp_path, capsys, gamma):
        # at Gamma = Delta/2 the unit-depth delay is 0 and no depth reaches unit DBP; past it the
        # window centre leads, and d0_at_unit_dbp would come out negative
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, CONFIG.replace("gamma_invps = 1.0", f"gamma_invps = {gamma}"))
        assert main(["analytic", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: analytic needs a positive window-centre delay: medium.gamma_invps = {gamma} "
            "must be below medium.delta_invps / 2 = 3.4\n")
        assert list(out.iterdir()) == []


class TestPropagate:
    def test_fd_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        delay = float(summary["metrics.first_moment_delay_ps"])
        assert delay == pytest.approx(0.167, rel=0.05)
        assert float(summary["metrics.center_transmission"]) == pytest.approx(0.672, abs=0.007)
        for name in ("input_envelope.csv", "output_envelope.csv", "spectrum_on.csv", "spectrum_off.csv"):
            assert (out / name).exists()

    @pytest.mark.parametrize("domain", ["fd", "td"])
    def test_constant_run_transforms_the_input_once(self, tmp_path, monkeypatch, domain):
        # one chi, one transfer and one input spectrum give the output, spectrum_on.csv and the centre
        # transmission in both domains; in TD that chi gives nz_needed once, and the check marches on it
        seen, transfers, sampled, plans = spy_forward_transforms(monkeypatch), [], [], []

        def spy_transfer(chi, k0, length_mm, build=fdprop.transfer_function):
            transfers.append(chi)
            return build(chi, k0, length_mm)

        def spy_chi(medium, omega, chi=fdprop.medium_chi):
            sampled.append(medium.control_intensity)
            return chi(medium, omega)

        monkeypatch.setattr(fdprop, "transfer_function", spy_transfer)
        monkeypatch.setattr(fdprop, "medium_chi", spy_chi)
        spy_plans(monkeypatch, plans)
        argv = ["propagate", "--config", str(EXAMPLE), "--domain", domain, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert (len(seen), len(transfers), len(sampled), len(plans)) == (1, 1, 1, domain == "td")

    def test_td_fd_check_marches_once_at_the_run_amplitude(self, tmp_path, monkeypatch):
        calls, out = spy_marches(monkeypatch), tmp_path / "out"
        assert main(["propagate", "--config", str(EXAMPLE), "--domain", "td", "--out-dir", str(out)]) == 0
        assert calls == [(1.0, int(read_summary(out / "summary.txt")["solver.nz_needed"]))]

    def test_fd_refuses_a_shaped_control(self, tmp_path, capsys):
        # FD has no time-varying control: the shape would be dropped without a word
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0"))
        assert main(["propagate", "--config", str(cfg), "--domain", "fd", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("error: propagate --domain fd assumes constant control; "
                                           "use --domain td for control.kind = gaussian\n")
        assert list(out.iterdir()) == []

    def test_gain_medium_from_chi_csv_is_refused(self, tmp_path, capsys):
        # a kk output read under the opposite Fourier convention arrives as conj(chi): gain, not absorption
        assert main(["kk", "--absorption-csv", str(ktp_absorption_path()), "--center-nm", "765.85", "--lambda0-nm",
                     "765.0", "--length-mm", "30.0", "--force-taper", "--out-dir", str(tmp_path / "kk")]) == 0
        header, *rows = (tmp_path / "kk" / "susceptibility.csv").read_text().splitlines()
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        conjugated = tmp_path / "conj.csv"
        conjugated.write_text("\n".join([header, *("%.17g,%.17g,%.17g" % (w, re, -im) for w, re, im in table)]) + "\n")
        detuning, _, peak = table[np.argmax(table[:, 2])].tolist()
        assert main(["propagate", "--config", str(EXAMPLE), "--domain", "fd", "--chi-csv", str(conjugated),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: susceptibility CSV {conjugated}: Im chi reads {-peak!r} "
                              f"at detuning {detuning!r} 1/ps; ")

    def test_control_off_identity(self, tmp_path):
        # H is exactly unity with the control off, so both domains return the pulse itself:
        # no rounding reads as a delay, a gain or a TD-FD gap
        cfg = write_config(tmp_path, CONFIG.replace("intensity = 1.0", "intensity = 0.0"))
        for domain in ("fd", "td"):
            out = tmp_path / domain
            assert main(["propagate", "--config", str(cfg), "--domain", domain, "--out-dir", str(out)]) == 0
            assert (out / "output_envelope.csv").read_bytes() == (out / "input_envelope.csv").read_bytes()
            assert (out / "spectrum_on.csv").read_bytes() == (out / "spectrum_off.csv").read_bytes()
            summary = read_summary(out / "summary.txt")
            assert (summary["metrics.first_moment_delay_ps"], summary["metrics.loss_db"]) == ("0", "0")
        assert summary["metrics.td_fd_l2_error"] == "0"

    def test_constant_control_td_writes_the_fd_bytes(self, tmp_path):
        # a constant-control TD solve returns FD's output, and its spectrum is the input's times H,
        # also at dt = 0.15 ps, past the beat rule a shaped control keeps
        for dt_ps in ("0.06", "0.15"):
            cfg = write_config(tmp_path, EXAMPLE.read_text().replace("dt_ps = 0.06", f"dt_ps = {dt_ps}"))
            for domain in ("fd", "td"):
                assert main(["propagate", "--config", str(cfg), "--domain", domain,
                             "--out-dir", str(tmp_path / dt_ps / domain)]) == 0
            for name in ("output_envelope.csv", "spectrum_on.csv"):
                assert (tmp_path / dt_ps / "td" / name).read_bytes() == (tmp_path / dt_ps / "fd" / name).read_bytes()
            assert float(read_summary(tmp_path / dt_ps / "td" / "summary.txt")["metrics.td_fd_l2_error"]) < 1e-14

    def test_constant_control_td_sweep_takes_a_time_step_past_the_beat(self, tmp_path):
        # only a shaped control is held to 2 pi / (8 Delta): a TD sweep takes every grid FD takes
        text = EXAMPLE.read_text().replace("dt_ps = 0.06", "dt_ps = 0.15")
        cfg = write_config(tmp_path, text.replace("intensity = 1.0", "intensity_list = 0.0, 0.5, 1.0, 2.0"))
        for domain in ("fd", "td"):
            assert main(["sweep", "--config", str(cfg), "--domain", domain, "--out-dir", str(tmp_path / domain)]) == 0
        name = "intensity_scan.csv"
        assert (tmp_path / "td" / name).read_bytes() == (tmp_path / "fd" / name).read_bytes()
        assert float(read_summary(tmp_path / "td" / "summary.txt")["metrics.td_fd_l2_error"]) < 1e-14

    def test_td_cross_check(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        # the Taylor march at the run's own amplitude against FD's closed form leaves rounding (4.7e-16),
        # never 0: perfbench bounds this metric
        assert 0.0 < float(summary["metrics.td_fd_l2_error"]) < 1e-14

    def test_deterministic_rerun_from_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", first, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        second = tmp_path / "second"
        cp = run_cli(
            "propagate", "--config", first / "resolved_config.ini", "--out-dir", second,
            "--domain", "fd",
        )
        assert cp.returncode == 0, cp.stderr
        for name in ("input_envelope.csv", "output_envelope.csv", "spectrum_on.csv", "spectrum_off.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_chi_csv_source(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "first"
        run_cli("propagate", "--config", cfg, "--out-dir", first, "--domain", "fd")
        # regenerate the transfer medium from its own sampled susceptibility
        grid = sl.TimeGrid.centered(16384, 0.06).frequency_grid()
        medium = sl.from_target_depth(2.5, 1.0, 6.8, 2 * np.pi / 765e-6, 30.0)
        chi_path = tmp_path / "chi.csv"
        from slowlight import io as sio

        sio.write_susceptibility_csv(chi_path, grid, sl.chi(medium, grid.omegas))
        second = tmp_path / "second"
        cp = run_cli(
            "propagate", "--config", cfg, "--out-dir", second,
            "--domain", "fd", "--chi-csv", chi_path,
        )
        assert cp.returncode == 0, cp.stderr
        s1 = read_summary(first / "summary.txt")
        s2 = read_summary(second / "summary.txt")
        assert float(s2["metrics.first_moment_delay_ps"]) == pytest.approx(
            float(s1["metrics.first_moment_delay_ps"]), rel=1e-6
        )
        # the source follows --chi-csv; model figures do not describe a measured chi
        assert s1["run.chi_source"] == "model"
        assert s2["run.chi_source"] == "csv"
        assert not any(key.startswith("figures.") for key in s2)

    def test_td_shaped_control(self, tmp_path):
        text = CONFIG.replace(
            "kind = constant\nintensity = 1.0",
            "kind = flat_top\nintensity = 1.0\nfwhm_ps = 40.0",
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("propagate", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        # no automatic cross-check for shaped control
        assert "metrics.td_fd_l2_error" not in summary
        assert float(summary["metrics.first_moment_delay_ps"]) > 0.1

    def test_td_short_control_warning_is_one_entry(self, tmp_path):
        text = CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 5.0")
        out = tmp_path / "out"
        argv = ["propagate", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]
        assert main(argv) == 0
        entries = read_summary(out / "summary.txt")["warnings"].split("; ")
        assert len(entries) == 1 and entries[0].startswith("control intensity FWHM")

    def test_center_transmission_in_every_propagate_run(self, tmp_path):
        gaussian = CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0")
        runs = {"fd": (CONFIG, "fd"), "td": (CONFIG, "td"), "td_gaussian": (gaussian, "td")}
        for name, (text, domain) in runs.items():
            cfg = write_config(tmp_path, text, name=f"{name}.ini")
            cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / name, "--domain", domain)
            assert cp.returncode == 0, cp.stderr
        # a fixed intensity reads the FD transfer; a shaped control, which has none, the TD spectra
        fd = read_summary(tmp_path / "fd" / "summary.txt")["metrics.center_transmission"]
        assert read_summary(tmp_path / "td" / "summary.txt")["metrics.center_transmission"] == fd
        shaped = float(read_summary(tmp_path / "td_gaussian" / "summary.txt")["metrics.center_transmission"])
        spectra = [np.loadtxt(tmp_path / "td_gaussian" / name, delimiter=",", skiprows=1)
                   for name in ("spectrum_off.csv", "spectrum_on.csv")]
        off, on = ((rows[:, 1] + 1j * rows[:, 2])[rows[:, 0] == 0.0] for rows in spectra)
        assert shaped == pytest.approx(float(np.abs(on[0] / off[0]) ** 2), rel=1e-15)
        # a 60 ps control is long against the 3 ps signal, so it transmits as the fixed intensity does
        assert shaped == pytest.approx(float(fd), rel=0.01)

    def test_td_shaped_control_samples_no_transfer(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the transfer was sampled")

        monkeypatch.setattr(fdprop, "transfer_function", refuse)
        cfg = write_config(tmp_path, CONFIG.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0"))
        assert main(["propagate", "--config", str(cfg), "--domain", "td", "--out-dir", str(tmp_path / "out")]) == 0

    def test_td_with_csv_chi_rejected(self, tmp_path):
        from slowlight import io as sio

        cfg = write_config(tmp_path)
        grid = sl.TimeGrid.centered(64, 0.06).frequency_grid()
        chi_path = tmp_path / "chi.csv"
        sio.write_susceptibility_csv(chi_path, grid, np.zeros(grid.n))
        cp = run_cli(
            "propagate", "--config", cfg, "--out-dir", tmp_path / "out",
            "--domain", "td", "--chi-csv", chi_path,
        )
        assert cp.returncode == 2
        assert "two-line model" in cp.stderr

    def test_chi_source_option_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--config", str(cfg), "--chi-source", "model", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --chi-source" in capsys.readouterr().err

    def test_grid_n_not_power_of_two_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("n = 16384", "n = 10000"))
        cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "grid.n" in cp.stderr

    @pytest.mark.parametrize("d0", ["60.0", "80.0"])
    def test_td_runs_at_any_legacy_nz(self, tmp_path, d0):
        # d0 = 60 needs 8 substeps where nz = 256 once refused it (nz_needed 312), and d0 = 80
        # once refused nz = 16; a legacy [solver] nz is read and ignored, so it gives the same bytes as none.
        # The check march of 8 and 11 substeps agrees with FD's closed form to rounding above the
        # paper's depth too (4.0e-14, 2.0e-13)
        text = CONFIG.replace("n = 16384", "n = 4096").replace("d0 = 2.5", f"d0 = {d0}")
        outputs = {}
        for name, solver in (("legacy", "[solver]\nnz = 16\n"), ("none", "")):
            cfg = write_config(tmp_path, text.replace("[solver]\nnz = 256\n", solver), name=f"{name}.ini")
            out = tmp_path / name
            assert main(["propagate", "--domain", "td", "--config", str(cfg), "--out-dir", str(out)]) == 0
            outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert outputs["legacy"] == outputs["none"]
        summary = read_summary(tmp_path / "none" / "summary.txt")
        assert float(summary["metrics.td_fd_l2_error"]) < 1e-3
        assert "differs from the FD output" not in summary["warnings"]
        tau_g = float(summary["figures.group_delay_ps"])
        assert float(summary["metrics.first_moment_delay_ps"]) == pytest.approx(tau_g, rel=0.03)

    def test_td_march_does_not_follow_the_blas_thread_count(self, tmp_path):
        # at n = 16384 OpenBLAS splits a vector norm across its threads, so a BLAS norm in the march
        # wrote solver.z_error_estimate = 2.3907084695898448e-17 under one thread and ...436e-17 under two
        text = EXAMPLE.read_text().replace("d0 = 2.5", "d0 = 1.0")
        cfg = write_config(tmp_path, text.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0"))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            cmd = [sys.executable, *WARNINGS_AS_ERRORS, "-m", "slowlight", "propagate", "--domain", "td",
                   "--config", str(cfg), "--out-dir", str(out)]
            cp = subprocess.run(cmd, capture_output=True, text=True, env={**ENV, "OPENBLAS_NUM_THREADS": threads})
            assert cp.returncode == 0, cp.stderr
            outputs.append([(out / name).read_bytes() for name in ("summary.txt", "output_envelope.csv")])
        assert outputs[0] == outputs[1]

    def test_td_fd_gap_past_the_budget_warns(self, tmp_path):
        # the check march and FD's closed form take one exponent, so the gap is rounding until the
        # output sinks toward the rounding of the input: at n = 4096 and dt = 0.1 it is 2.4e-9 at
        # d0 = 200 (143 dB), 3.05e-4 at d0 = 350 and 1.63e-2 at d0 = 400 (282 dB)
        text = CONFIG.replace("n = 16384", "n = 4096").replace("dt_ps = 0.06", "dt_ps = 0.1")
        cfg = write_config(tmp_path, text.replace("d0 = 2.5", "d0 = 400.0"))
        assert main(["propagate", "--domain", "td", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path / "out" / "summary.txt")
        assert float(summary["metrics.td_fd_l2_error"]) > 1e-3
        assert "the TD output differs from the FD output by" in summary["warnings"]

    def test_gaussian_given_by_bandwidth_reruns_byte_identically(self, tmp_path):
        # its derived grid step comes from the Gaussian's time-bandwidth product
        text = CONFIG.replace("shape = flat_top_spectrum", "shape = gaussian")
        text = text.replace("bandwidth_invps = 1.8", "bandwidth_invps = 10").replace("dt_ps = 0.06\n", "")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["propagate", "--out-dir", str(first), "--config", str(write_config(tmp_path, text))]) == 0
        assert main(["propagate", "--out-dir", str(second), "--config", str(first / "resolved_config.ini")]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            lines = [[line for line in (out / name).read_text().splitlines() if not line.startswith("run.seconds")]
                     for out in (first, second)]
            assert lines[0] == lines[1], name

    @pytest.mark.parametrize("command", ["propagate", "sweep"])
    def test_td_rerun_from_resolved_config_is_byte_identical(self, tmp_path, command):
        # the substep count depends only on the inputs
        text = CONFIG.replace("n = 16384", "n = 4096")
        if command == "sweep":
            text = text.replace("intensity = 1.0", "intensity_list = 0.5, 1.0, 2.0")
        first, second = tmp_path / "first", tmp_path / "second"
        argv = [command, "--domain", "td", "--out-dir"]
        assert main([*argv, str(first), "--config", str(write_config(tmp_path, text))]) == 0
        assert main([*argv, str(second), "--config", str(first / "resolved_config.ini")]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert "[solver]" not in (first / "resolved_config.ini").read_text()


class TestSweep:
    def test_fd_sweep_linear(self, tmp_path):
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0, 0.2, 0.4, 0.6, 0.8, 1.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("sweep", "--config", cfg, "--out-dir", out, "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "intensity_scan.csv")
        assert header == "control_intensity,delay_ps,loss_db"
        assert body.shape == (6, 3)
        summary = read_summary(out / "summary.txt")
        assert float(summary["linearity.residual_ratio"]) < 0.02

    @pytest.mark.parametrize("domain", ["fd", "td"])
    def test_nine_points_transform_the_input_once(self, tmp_path, monkeypatch, domain):
        # every point goes through its transfer from one spectrum of the input
        seen = spy_forward_transforms(monkeypatch)
        text = CONFIG.replace("n = 16384", "n = 4096").replace(
            "intensity = 1.0", "intensity_list = " + ", ".join(map(str, np.linspace(0.25, 2.0, 9))))
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", domain,
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert len(read_csv(tmp_path / "out" / "intensity_scan.csv")[1]) == 9
        assert len(seen) == 1

    def test_fd_row_matches_propagate_metrics(self, tmp_path):
        # one delay/loss definition: the sweep row at intensity 1.0 is the
        # propagate run at that intensity, to the last printed digit
        cfg = write_config(tmp_path)
        cp = run_cli("propagate", "--config", cfg, "--out-dir", tmp_path / "single", "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(tmp_path / "single" / "summary.txt")
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0, 0.5, 1.0")
        sweep_cfg = write_config(tmp_path, text, name="sweep.ini")
        cp = run_cli("sweep", "--config", sweep_cfg, "--out-dir", tmp_path / "scan", "--domain", "fd")
        assert cp.returncode == 0, cp.stderr
        rows = (tmp_path / "scan" / "intensity_scan.csv").read_text().splitlines()[1:]
        row = next(r.split(",") for r in rows if r.startswith("1,"))
        assert row[1:] == [summary["metrics.first_moment_delay_ps"], summary["metrics.loss_db"]]

    def test_single_zero_intensity(self, tmp_path):
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        cp = run_cli("sweep", "--config", cfg, "--out-dir", out, "--domain", "td")
        assert cp.returncode == 0, cp.stderr
        _, body = read_csv(out / "intensity_scan.csv")
        assert body.shape == (1, 3)
        assert np.allclose(body[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("domain", ["fd", "td"])
    def test_all_zero_intensities_fit_no_slope(self, tmp_path, domain):
        # a slope needs a positive intensity; without one the rows are still written, and
        # at zero intensity the transfer is exactly 1, so each row is the input's: no delay, no loss
        text = CONFIG.replace("n = 16384", "n = 4096").replace("intensity = 1.0", "intensity_list = 0.0, 0.0, 0.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", domain,
                     "--out-dir", str(out)]) == 0
        assert (out / "intensity_scan.csv").read_text().splitlines()[1:] == ["0,0,0"] * 3
        summary = read_summary(out / "summary.txt")
        assert summary["sweep.points"] == "3"
        assert not [key for key in summary if key.startswith("linearity.")]

    def test_td_zero_intensity_row_has_no_negative_zero(self, tmp_path):
        # the lossless point used to print its loss as "-0"; the row at 1.0
        # matches the propagate run to the last printed digit, and so does
        # the sweep's TD-FD check, which reads its top point
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 0.0, 0.25, 0.5, 1.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]) == 0
        rows = (out / "intensity_scan.csv").read_text().splitlines()[1:]
        assert rows[0] == "0,0,0"
        cfg = write_config(tmp_path, CONFIG, name="single.ini")
        assert main(["propagate", "--config", str(cfg), "--domain", "td", "--out-dir", str(tmp_path / "single")]) == 0
        summary = read_summary(tmp_path / "single" / "summary.txt")
        assert rows[3].split(",")[1:] == [summary["metrics.first_moment_delay_ps"], summary["metrics.loss_db"]]
        sweep = read_summary(out / "summary.txt")
        assert sweep["metrics.td_fd_l2_error"] == summary["metrics.td_fd_l2_error"]
        assert sweep["warnings"] == "none"

    def test_td_sweep_past_the_budget_warns(self, tmp_path):
        # the top point at d0 = 400 and dt = 0.1, as in the propagate run that warns (1.6e-2)
        text = CONFIG.replace("n = 16384", "n = 4096").replace("dt_ps = 0.06", "dt_ps = 0.1")
        text = text.replace("d0 = 2.5", "d0 = 400.0").replace("intensity = 1.0", "intensity_list = 0.5, 1.0")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td",
                     "--out-dir", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.td_fd_l2_error"]) > 1e-3
        entries = summary["warnings"].split("; ")
        assert entries[-1].startswith("intensity 1.0: the TD output differs from the FD output by")

    def test_loud_td_sweep_writes_no_warnings(self, tmp_path):
        # at I = 16 the peak coherence is 0.126, which no bound tests, and the TD-FD check of that
        # point (d0 = 40) stays inside its budget
        text = CONFIG.replace("intensity = 1.0", "intensity_list = 1.0, 16.0")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td", "--out-dir", str(out)]
        assert main(argv) == 0
        assert read_summary(out / "summary.txt")["warnings"] == "none"

    def test_td_sweep_writes_the_fd_rows(self, tmp_path):
        # one loop solves every point in both domains; TD adds only its refusals and warnings
        text = EXAMPLE.read_text().replace("intensity = 1.0", "intensity_list = 0, 0.25, 0.5, 1.0, 2.0")
        cfg = write_config(tmp_path, text)
        for domain in ("fd", "td"):
            assert main(["sweep", "--config", str(cfg), "--domain", domain, "--out-dir", str(tmp_path / domain)]) == 0
        scans = [(tmp_path / domain / "intensity_scan.csv").read_bytes() for domain in ("fd", "td")]
        assert scans[0] == scans[1]

    def test_td_sweep_solves_each_point_once(self, tmp_path, monkeypatch):
        # chi is sampled once per point, at its own intensity, and only the top point, whose check marches,
        # is planned, from a chi of its own; the TD-FD check reads that point's output from the scan
        sampled, plans, validate = [], [], tdprop._validate_resolution

        def spy(medium, omega, chi=fdprop.medium_chi):
            sampled.append(medium.control_intensity)
            return chi(medium, omega)

        monkeypatch.setattr(fdprop, "medium_chi", spy)
        monkeypatch.setattr(tdprop, "_validate_resolution",
                            lambda medium, chi: plans.append((medium.control_intensity, chi)) or validate(medium, chi))
        text = CONFIG.replace("n = 16384", "n = 4096").replace("intensity = 1.0", "intensity_list = 0.0, 0.5, 1.0")
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--domain", "td", "--out-dir", str(tmp_path / "out")]) == 0
        assert sampled == [0.0, 0.5, 1.0]
        [(intensity, chi)] = plans
        config = load_config(cfg)
        top = config.medium.build().with_control_intensity(1.0)
        assert intensity == 1.0 and np.array_equal(chi, sl.chi(top, config.grid.build().frequency_grid().omegas))

    def test_td_sweep_refuses_a_later_point_before_solving_any(self, tmp_path, capsys, monkeypatch):
        # the top point's plan refuses the sweep before the first point is sent through its transfer
        solved = []
        monkeypatch.setattr(fdprop, "_through", lambda *args: solved.append(args))
        text = EXAMPLE.read_text().replace("intensity = 1.0", "intensity_list = 0.5, 1e12")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td",
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == ("error: the solve would take 3.25e+11 z substeps, "
                                           "more than the 1e+09 any run could finish\n")
        assert solved == [] and list(out.iterdir()) == []

    def test_td_sweep_checks_the_top_point_once(self, tmp_path, monkeypatch):
        plans, calls = [], spy_marches(monkeypatch)
        spy_plans(monkeypatch, plans)
        text = CONFIG.replace("n = 16384", "n = 4096").replace("intensity = 1.0", "intensity_list = 2.0, 0.5, 0.0")
        assert main(["sweep", "--config", str(write_config(tmp_path, text)), "--domain", "td",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == [(math.sqrt(2.0), plans[0])]

    def test_sweep_through_a_medium_with_no_coupling_reads_zero(self, tmp_path):
        # d0 = 0: every point is the input itself, and the line through the origin is flat with no residual
        text = EXAMPLE.read_text().replace("d0 = 2.5", "d0 = 0.0").replace("intensity = 1.0",
                                                                         "intensity_list = 0.5, 1.0, 2.0")
        cfg = write_config(tmp_path, text)
        for domain in ("fd", "td"):
            out = tmp_path / domain
            assert main(["sweep", "--config", str(cfg), "--domain", domain, "--out-dir", str(out)]) == 0
            assert (out / "intensity_scan.csv").read_text().splitlines()[1:] == ["0.5,0,0", "1,0,0", "2,0,0"]
            summary = read_summary(out / "summary.txt")
            assert summary["linearity.slope_ps_per_intensity"] == "0"
            assert summary["linearity.residual_ratio"] == "0"
            assert summary.get("metrics.td_fd_l2_error") == ("0" if domain == "td" else None)

    def test_sweep_requires_list(self, tmp_path):
        cfg = write_config(tmp_path)
        cp = run_cli("sweep", "--config", cfg, "--out-dir", tmp_path / "out")
        assert cp.returncode == 2
        assert "intensity_list" in cp.stderr


class TestKK:
    def test_truncated_data_needs_force_taper(self, tmp_path):
        out = tmp_path / "out"
        base = [
            "kk", "--absorption-csv", ktp_absorption_path(),
            "--center-nm", 765.85, "--lambda0-nm", 765.0, "--length-mm", 30.0,
            "--out-dir", out,
        ]
        cp = run_cli(*base)
        assert cp.returncode == 3
        cp = run_cli(*base, "--force-taper")
        assert cp.returncode == 0, cp.stderr
        header, body = read_csv(out / "susceptibility.csv")
        assert header == "detuning_invps,chi_re,chi_im"
        assert np.all(body[:, 2] >= 0)  # passive: absorption only
        summary = read_summary(out / "summary.txt")
        assert float(summary["kk.reconstructed_delay_ps"]) > 0

    @pytest.mark.parametrize("n, code", [(512, 3), (1024, 0)])
    def test_records_need_32_grid_samples(self, tmp_path, capsys, n, code):
        # 19 grid samples across the KTP records put the delay at 0.1490 ps, 1.6% off its converged 0.1466
        out = tmp_path / "out"
        argv = ["kk", "--absorption-csv", str(ktp_absorption_path()), "--center-nm", "765.85", "--lambda0-nm", "765.0",
                "--length-mm", "30.0", "--force-taper", "--n", str(n), "--out-dir", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err.count("\n") == 1 and "only 19 of n = 512" in err
            assert "span 272 1/ps" in err and "-6.113 to 4.054 1/ps" in err
            assert list(out.iterdir()) == []
        else:
            delay = float(read_summary(out / "summary.txt")["kk.reconstructed_delay_ps"])
            assert delay == pytest.approx(0.1466, rel=5e-3)

    def test_synthetic_doublet_end_to_end(self, tmp_path):
        # clean, wide-coverage doublet: reconstruction matches the model
        medium = sl.from_target_depth(2.5, 1.0, 6.8, 2 * np.pi / 765e-6, 30.0)
        lam = np.linspace(600.0, 1000.0, 20001)
        nu = sl.C_NM_PER_PS / lam - sl.C_NM_PER_PS / 765.0
        depth = medium.k0 * 30.0 * sl.chi(medium, nu).imag
        csv = tmp_path / "depth.csv"
        rows = "\n".join(f"{l:.17g},{d:.17g}" for l, d in zip(lam, depth))
        csv.write_text("wavelength_nm,optical_depth\n" + rows + "\n")
        out = tmp_path / "out"
        cp = run_cli(
            "kk", "--absorption-csv", csv, "--center-nm", 765.0, "--lambda0-nm", 765.0,
            "--length-mm", 30.0, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["kk.reconstructed_delay_ps"]) == pytest.approx(
            sl.group_delay(medium), rel=0.02
        )


class TestXcorr:
    def test_gate_finer_than_the_envelope_step_reads_the_signal_width(self, tmp_path):
        # the gate enters by its closed form, so a 0.001-ps gate needs no grid of dt <= 6.25e-5 ps
        from slowlight import io as sio

        path = tmp_path / "signal.csv"
        sio.write_envelope_csv(path, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**14, 0.06), duration=3.0))
        out = tmp_path / "out"
        assert main(["xcorr", "--signal-csv", str(path), "--ref-duration-ps", "0.001", "--out-dir", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.xcorr_fwhm_ps"]) == pytest.approx(3.0, abs=1e-6)
        assert float(summary["metrics.deconvolved_duration_ps"]) == pytest.approx(3.0, abs=1e-6)

    def test_window_not_centred_on_zero_reads_the_signal_where_it_is(self, tmp_path):
        # a window from t = 0: the curve lies on the envelope's own times, and the gate is not split by the period
        from slowlight import io as sio

        grid = sl.TimeGrid(t_start=0.0, dt=0.06, n=1024)
        field = np.exp(-2.0 * np.log(2.0) * ((grid.times - 45.0) / 2.0) ** 2)  # a 2-ps intensity FWHM at 45 ps
        path = tmp_path / "signal.csv"
        sio.write_envelope_csv(path, sl.ComplexEnvelope(grid=grid, samples=field.astype(complex)))
        out = tmp_path / "out"
        assert main(["xcorr", "--signal-csv", str(path), "--ref-duration-ps", "1.0", "--out-dir", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.deconvolved_duration_ps"]) == pytest.approx(2.0, abs=1e-3)
        delays, intensity = np.loadtxt(out / "xcorr_on.csv", delimiter=",", skiprows=1, unpack=True)
        assert abs(delays[np.argmax(intensity)] - 45.0) <= grid.dt

    def test_reference_past_the_float_range_exits_3_without_a_warning(self, tmp_path, capsys):
        # the reference's Gaussian exponent overflows off its centre: exp(-inf) = 0 with no RuntimeWarning, which
        # the suite turns into an error, before the one line that refuses a reference wider than the correlation
        from slowlight import io as sio

        path = tmp_path / "signal.csv"
        sio.write_envelope_csv(path, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, 0.06), duration=3.0))
        argv = ["xcorr", "--signal-csv", str(path), "--ref-duration-ps", "1e300", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must exceed the reference width 1e+300" in err

    def test_one_row_envelope_exits_2(self, tmp_path, capsys):
        path = tmp_path / "signal.csv"
        path.write_text("time_ps,re,im\n0,1,0\n")
        assert main(["xcorr", "--signal-csv", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: time axis of {path} needs at least 2 samples\n"

    def test_off_csv_on_another_grid_exits_2_writing_nothing(self, tmp_path, capsys):
        from slowlight import io as sio

        paths = {dt: tmp_path / f"dt-{dt}.csv" for dt in (0.06, 0.05)}
        for dt, path in paths.items():
            sio.write_envelope_csv(path, sl.synthesize_pulse("gaussian", sl.TimeGrid.centered(2**10, dt), duration=3.0))
        out = tmp_path / "out"
        argv = ["xcorr", "--signal-csv", str(paths[0.06]), "--off-csv", str(paths[0.05]), "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: on and off envelope CSVs must share a time grid\n"
        assert list(out.iterdir()) == []

    def test_metrics_and_delay(self, tmp_path):
        from slowlight import io as sio

        grid = sl.TimeGrid.centered(2**12, 0.01)
        signal = sl.synthesize_pulse("gaussian", grid, duration=0.650)
        spec = sl.forward_transform(signal)
        spec.samples = spec.samples * np.exp(1j * spec.grid.omegas * 0.140)
        delayed = sl.inverse_transform(spec)
        on_path, off_path = tmp_path / "on.csv", tmp_path / "off.csv"
        sio.write_envelope_csv(on_path, delayed)
        sio.write_envelope_csv(off_path, signal)
        out = tmp_path / "out"
        cp = run_cli(
            "xcorr", "--signal-csv", on_path, "--off-csv", off_path,
            "--ref-duration-ps", 0.160, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.xcorr_fwhm_ps"]) == pytest.approx(
            np.hypot(0.650, 0.160), rel=0.01
        )
        assert float(summary["metrics.deconvolved_duration_ps"]) == pytest.approx(0.650, rel=0.01)
        assert float(summary["metrics.first_moment_delay_ps"]) == pytest.approx(0.140, abs=1e-4)
        assert (out / "xcorr_on.csv").exists() and (out / "xcorr_off.csv").exists()

    def test_default_reference_on_propagate_output(self, tmp_path):
        # the 0.16-ps default gate is a third of a dt = 0.06 ps step: the curves stay on the envelopes' 16384 times
        cfg = write_config(tmp_path)
        fd = tmp_path / "fd"
        assert main(["propagate", "--config", str(cfg), "--domain", "fd", "--out-dir", str(fd)]) == 0
        out = tmp_path / "out"
        argv = ["xcorr", "--signal-csv", fd / "output_envelope.csv", "--off-csv", fd / "input_envelope.csv"]
        assert main([*map(str, argv), "--out-dir", str(out)]) == 0
        summary = read_summary(out / "summary.txt")
        assert list(summary) == SUMMARY_KEYS["xcorr"]
        assert len((out / "xcorr_on.csv").read_text().splitlines()) == 16385
        envelope_delay = float(read_summary(fd / "summary.txt")["metrics.first_moment_delay_ps"])
        delay = float(summary["metrics.first_moment_delay_ps"])
        assert delay == pytest.approx(envelope_delay, rel=1e-5)

    def test_identical_inputs_zero_delay(self, tmp_path):
        from slowlight import io as sio

        grid = sl.TimeGrid.centered(2**11, 0.01)
        signal = sl.synthesize_pulse("gaussian", grid, duration=0.5)
        path = tmp_path / "sig.csv"
        sio.write_envelope_csv(path, signal)
        out = tmp_path / "out"
        cp = run_cli(
            "xcorr", "--signal-csv", path, "--off-csv", path, "--out-dir", out,
        )
        assert cp.returncode == 0, cp.stderr
        summary = read_summary(out / "summary.txt")
        assert float(summary["metrics.first_moment_delay_ps"]) == 0.0


def _config_keys(*control):
    return [
        "config.medium.gamma_invps", "config.medium.delta_invps", "config.medium.g_per_intensity",
        "config.medium.length_mm", "config.medium.lambda0_nm",
        "config.signal.shape", "config.signal.bandwidth_invps", "config.signal.gdd_ps2",
        "config.control.kind", *control,
        "config.grid.n", "config.grid.dt_ps",
    ]


_PROPAGATE_KEYS = [
    "run.command", "run.chi_source", "metrics.first_moment_delay_ps", "metrics.loss_db",
    "metrics.output_fwhm_ps", "metrics.center_transmission", "grid.n", "grid.dt_ps",
    "figures.d0", "figures.group_delay_ps", "figures.loss_db", "figures.delay_per_loss_ps_per_db",
    "figures.delay_bandwidth_product",
]

# a TD run also reports its substeps, the z steps it needed, its z error estimate and its peak coherence
_TD_PROPAGATE_KEYS = [
    *_PROPAGATE_KEYS[: _PROPAGATE_KEYS.index("grid.dt_ps") + 1], "solver.nz", "solver.nz_needed",
    "solver.z_error_estimate", "solver.peak_coherence",
    *_PROPAGATE_KEYS[_PROPAGATE_KEYS.index("grid.dt_ps") + 1 :],
]

_SWEEP_KEYS = [
    "run.command", "sweep.points", "linearity.slope_ps_per_intensity", "linearity.residual_ratio",
    "metrics.max_delay_ps", "warnings", *_config_keys("config.control.intensity_list"),
]

# a TD sweep also checks its top point against FD
_SWEEP_TD_KEYS = [*_SWEEP_KEYS[: _SWEEP_KEYS.index("warnings")], "metrics.td_fd_l2_error",
                  *_SWEEP_KEYS[_SWEEP_KEYS.index("warnings") :]]

# summary.txt key order is part of its format: a subcommand's own keys, then config.*
SUMMARY_KEYS = {
    "analytic": [
        "run.command", "sweep.d0_max", "sweep.d0_step", "figures.delay_per_loss_ps_per_db",
        "figures.d0_at_unit_dbp", "figures.loss_db_at_unit_dbp", "run.seconds",
        *_config_keys("config.control.intensity"),
    ],
    "kk": [
        "run.command", "input.absorption_csv", "input.kind", "input.center_nm", "input.lambda0_nm",
        "input.length_mm", "input.force_taper", "grid.n", "grid.span_invps", "kk.peak_depth",
        "kk.reconstructed_delay_ps",
    ],
    "propagate_fd": [*_PROPAGATE_KEYS, "warnings", *_config_keys("config.control.intensity")],
    "propagate_td": [
        *_TD_PROPAGATE_KEYS, "metrics.td_fd_l2_error", "warnings",
        *_config_keys("config.control.intensity"),
    ],
    "propagate_td_gaussian": [
        *_TD_PROPAGATE_KEYS, "warnings",
        *_config_keys("config.control.intensity", "config.control.fwhm_ps"),
    ],
    "sweep_fd": _SWEEP_KEYS,
    "sweep_td": _SWEEP_TD_KEYS,
    # the off envelope a first-moment delay is measured against is named only when given
    "xcorr": [
        "run.command", "input.signal_csv", "input.off_csv", "input.ref_duration_ps", "metrics.xcorr_fwhm_ps",
        "metrics.deconvolved_duration_ps", "metrics.first_moment_delay_ps",
    ],
    "xcorr_signal_only": [
        "run.command", "input.signal_csv", "input.ref_duration_ps", "metrics.xcorr_fwhm_ps",
        "metrics.deconvolved_duration_ps",
    ],
}


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_summary_key_order(tmp_path):
    # in-process on a small grid: the key sequence, not the numbers, is pinned
    base = CONFIG.replace("n = 16384", "n = 4096")
    configs = {
        "const": base,
        "gauss": base.replace("kind = constant", "kind = gaussian\nfwhm_ps = 60.0"),
        "sweep": base.replace("intensity = 1.0", "intensity_list = 0, 0.5, 1.0"),
    }
    paths = {name: str(write_config(tmp_path, text, name=f"{name}.ini")) for name, text in configs.items()}
    fd_dir = tmp_path / "propagate_fd"
    runs = {
        "analytic": ["analytic", "--config", paths["const"]],
        "kk": [
            "kk", "--absorption-csv", ktp_absorption_path(), "--center-nm", "765.85",
            "--lambda0-nm", "765", "--length-mm", "30", "--force-taper",
        ],
        "propagate_fd": ["propagate", "--config", paths["const"], "--domain", "fd"],
        "propagate_td": ["propagate", "--config", paths["const"], "--domain", "td"],
        "propagate_td_gaussian": ["propagate", "--config", paths["gauss"], "--domain", "td"],
        "sweep_fd": ["sweep", "--config", paths["sweep"], "--domain", "fd"],
        "sweep_td": ["sweep", "--config", paths["sweep"], "--domain", "td"],
        "xcorr": [
            "xcorr", "--signal-csv", str(fd_dir / "output_envelope.csv"),
            "--off-csv", str(fd_dir / "input_envelope.csv"), "--ref-duration-ps", "1.0",
        ],
        "xcorr_signal_only": ["xcorr", "--signal-csv", str(fd_dir / "output_envelope.csv"), "--ref-duration-ps", "1.0"],
        # the default 0.16-ps gate, a third of this grid's dt, adds no key
        "xcorr_default_gate": [
            "xcorr", "--signal-csv", str(fd_dir / "output_envelope.csv"),
            "--off-csv", str(fd_dir / "input_envelope.csv"),
        ],
    }
    keys = {}
    for name, argv in runs.items():
        assert main([*argv, "--out-dir", str(tmp_path / name)]) == 0, name
        summary = read_summary(tmp_path / name / "summary.txt")
        keys[name] = list(summary)
        # perfbench compares every numeric value between repeated runs, and nan != nan
        numbers = [float(value) for value in summary.values() if _parses_as_float(value)]
        assert np.all(np.isfinite(numbers)), name
    assert keys.pop("xcorr_default_gate") == SUMMARY_KEYS["xcorr"]
    assert keys == SUMMARY_KEYS

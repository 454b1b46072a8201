import ast
import inspect
import os
import textwrap
from pathlib import Path

import slowlight as sl
from slowlight import errors

# The names `import slowlight` exports are an external contract: a change
# that adds or drops one edits this list and says so.
PUBLIC_NAMES = """
AmbiguousWidthError C_MM_PER_PS C_NM_PER_PS ComplexEnvelope ConfigError
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


def _public_functions():
    """(name, function) of every public function, and of every method, classmethod,
    staticmethod and property getter written in a public class's body."""
    package = os.path.dirname(sl.__file__)
    for name in PUBLIC_NAMES:
        value = getattr(sl, name)
        members = vars(value).items() if inspect.isclass(value) else [(None, value)]
        for attr, member in members:
            func = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
            # dataclass-made methods have no source file in the package
            if inspect.isfunction(func) and func.__code__.co_filename.startswith(package):
                yield name if attr is None else f"{name}.{attr}", func


def _reads_outside_require(node, names):
    """The ``names`` that ``node`` loads anywhere but inside a ``_require(...)`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_require":
        return set()
    found = {node.id} & names if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        found |= _reads_outside_require(child, names)
    return found


def test_every_public_parameter_changes_the_result():
    # a parameter that is only validated, or not read at all, is a knob with no effect
    unread = []
    for name, func in _public_functions():
        tree = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
        params = {p.arg for p in (*tree.args.posonlyargs, *tree.args.args, *tree.args.kwonlyargs)} - {"self", "cls"}
        params |= {p.arg for p in (tree.args.vararg, tree.args.kwarg) if p is not None}
        unread += [f"{name}({p})" for p in sorted(params - _reads_outside_require(ast.Module(tree.body, []), params))]
    assert unread == []


def _raised_or_subclassed():
    """The names the package's ``raise`` statements raise, and the names its classes take as a base."""
    found = set()
    for path in Path(sl.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.add(getattr(raised, "id", getattr(raised, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                found |= {base.id for base in node.bases if isinstance(base, ast.Name)}
    return found


def test_every_public_error_is_raised_or_subclassed():
    # an exported error that nothing raises is a name callers catch in vain
    public_errors = {name for name in PUBLIC_NAMES if getattr(getattr(sl, name), "__module__", None) == errors.__name__}
    assert public_errors == {"AmbiguousWidthError", "ConfigError", "GridResolutionError", "SlowLightError",
                             "TruncationRiskError"}
    assert sorted(public_errors - _raised_or_subclassed()) == []

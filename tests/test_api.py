import ast
from pathlib import Path

import pytest

import longmem as lm

PUBLIC_NAMES = [
    "CertifiedValue", "CoefficientTable", "CovarianceReport", "ExponentFit",
    "InnovationModel", "LimitKernel", "MemoryFunction", "NormalityReport",
    "NormalizationPlan", "PathEnsemble", "ProcessSpec", "RegimeError", "SpaceGrid",
    "TailBudgetError", "ValidationError", "ValidationReport", "__version__",
    "classify_summability", "cross_covariance_asymptotic", "cross_covariance_matrix",
    "dominating_bound", "fit_variance_exponent", "generate_paths",
    "innovation_block", "l2_membership", "limit_kernel", "load_spec",
    "normality_diagnostics", "normalization_plan",
    "partial_sum_covariance_asymptotic", "partial_sum_covariance_series",
    "partial_sum_weights", "partial_sums_via_z",
    "run_clt_experiment", "scale_integral", "scale_integral_closed_form",
    "spec_from_dict", "truncation_length", "validate",
]

# removed in 0.4.0 (the pointwise routes) and in 0.9.0 (two routes with no
# library caller); they live on as test oracles (tests/oracles.py)
REMOVED_NAMES = ["cross_covariance_exact", "partial_sum_covariance_exact",
                 "partial_sums_direct", "scale_integral_upper_bound"]


def test_public_names_are_pinned_and_resolve():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(lm.__all__) == PUBLIC_NAMES
    assert [name for name in lm.__all__ if not hasattr(lm, name)] == []
    assert [name for name in REMOVED_NAMES
            if any(hasattr(module, name)
                   for module in (lm, lm.analytics, lm.simulate))] == []


def test_pyproject_version_is_the_package_version():
    # a release bumps both by hand
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lm.__version__


def _scipy_imports(source: str, module: str, on_import: bool = False) -> list[int]:
    """Line numbers of the statements in ``source`` that import ``module``
    (a scipy submodule); with ``on_import``, only those that run when the
    source is imported, outside every function body."""
    lines = []
    nodes = [ast.parse(source)]
    while nodes:
        node = nodes.pop()
        if on_import and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source", [
    "import scipy.integrate", "import scipy.integrate as si",
    "from scipy.integrate import quad", "from scipy import integrate",
    "def f():\n    from scipy.integrate import quad",
])
def test_guard_sees_every_form_of_the_import(source):
    assert _scipy_imports(source, "scipy.integrate") == [source.count("\n") + 1]


def test_library_never_imports_scipy_integrate():
    # QUADPACK routes live in tests/oracles.py; the library's quadratures
    # are series and a fixed numpy rule, so no command pays for scipy.integrate
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _scipy_imports(path.read_text(), "scipy.integrate")
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, lines", [
    ("import scipy.special", [1]), ("from scipy.special import zeta", [1]),
    ("from scipy import special", [1]), ("import scipy", []),
    ("try:\n    from scipy.special import ndtr\nexcept ImportError:\n    pass", [2]),
    ("class A:\n    from scipy.special import ndtri", [2]),
    ("def f():\n    from scipy.special import ndtri", []),
    ("class A:\n    def f(self):\n        from scipy.special import ndtri", []),
])
def test_guard_sees_the_imports_that_run_on_import(source, lines):
    assert _scipy_imports(source, "scipy.special", on_import=True) == lines


def test_library_loads_scipy_special_on_first_use_only():
    # scipy.special costs a process about 25 MB and 0.3 s; only the sampler,
    # the normality statistics and the truncation window need it, so they
    # import it inside the function that uses it, and analyze never does
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _scipy_imports(path.read_text(), "scipy.special", on_import=True)
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}

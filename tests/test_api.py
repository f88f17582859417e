import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import longmem as lm

PUBLIC_NAMES = [
    "CovarianceReport", "ExponentFit",
    "InnovationModel", "MemoryFunction", "NormalityReport",
    "ProcessSpec", "RegimeError", "SpaceGrid",
    "TailBudgetError", "ValidationError", "ValidationReport", "__version__",
    "classify_summability", "cross_covariance_asymptotic", "cross_covariance_matrix",
    "fit_variance_exponent", "generate_paths",
    "innovation_block", "l2_membership", "limit_kernel", "load_spec",
    "normality_diagnostics", "normalization_plan", "partial_sum_covariance_series",
    "partial_sum_weights", "partial_sums_via_z",
    "run_clt_experiment", "scale_integral", "scale_integral_closed_form",
    "spec_from_dict", "truncation_length", "validate",
]

# removed in 0.4.0 (the pointwise routes), in 0.9.0 (two routes with no
# library caller), in 0.12.0 (the pointwise limit law, which lives on as
# a test oracle like the others in tests/oracles.py, and the two wrappers
# whose arrays limit_kernel and normalization_plan now return), in 0.14.0
# (the batch-means standard error, which the fourth-cumulant formula replaces,
# and the threshold behind a yes/no L2 verdict that no grid can decide) and
# in 0.17.0 (the second shape of a certified result, which is now the tuple
# (value, error_bound) everywhere, and a one-line wrapper of _binomial_tail)
# and in 0.19.0 (the paths record, which generate_paths now returns as the
# tuple (values, truncation_tail_var)) and in 0.22.0 (a bound that no library
# code called, now a test oracle) and in 0.23.0 (the weight-table record, whose
# weights partial_sum_weights now returns as an array; run_clt_experiment
# computes the truncation certificate it reports)
REMOVED_NAMES = ["cross_covariance_exact", "partial_sum_covariance_exact",
                 "partial_sums_direct", "scale_integral_upper_bound",
                 "partial_sum_covariance_asymptotic", "LimitKernel", "NormalizationPlan",
                 "BATCH_COUNT", "L2_FINITE_THRESHOLD", "CertifiedValue", "_window_tail",
                 "PathEnsemble", "dominating_bound", "CoefficientTable"]


def test_public_names_are_pinned_and_resolve():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(lm.__all__) == PUBLIC_NAMES
    assert [name for name in lm.__all__ if not hasattr(lm, name)] == []
    assert [name for name in REMOVED_NAMES
            if any(hasattr(module, name)
                   for module in (lm, lm.analytics, lm.simulate, lm.mcverify))] == []


def test_result_records_hold_only_what_their_call_computed():
    # a record does not echo its inputs (spec hash, n, seed, window, ...):
    # the caller has them already
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (lm.CovarianceReport, lm.NormalityReport,
                          lm.ExponentFit, lm.analytics.L2Report, lm.ValidationReport)}
    assert fields == {
        "CovarianceReport": ["regime", "empirical", "finite_n_exact", "limit", "se",
                             "verdicts", "gap_rel", "samples", "truncation_tail_var",
                             "innovations_drawn"],
        "NormalityReport": ["skewness", "excess_kurtosis", "ks_distance",
                            "skew_band", "kurt_band"],
        "ExponentFit": ["slopes", "theoretical", "corrected", "max_residual"],
        "L2Report": ["integral_sigma2", "integral_weighted", "min_d_minus_half",
                     "min_d_point"],
        "ValidationReport": ["regime", "fatal"],
    }
    assert not hasattr(lm.analytics.L2Report, "verdict")


def test_process_parts_hold_only_their_arrays():
    # a spec is its grid, exponent field, sigma and law: how a config spelled
    # them ("kind", step breakpoints and levels) is known only to the loaders,
    # and spec_hash hashes the arrays, not a config dictionary
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (lm.MemoryFunction, lm.InnovationModel)}
    assert fields == {"MemoryFunction": ["values"],
                      "InnovationModel": ["sigma", "factor", "law", "pareto_alpha"]}
    removed = [(lm.MemoryFunction, "table"), (lm.InnovationModel, "custom"),
               (lm.ProcessSpec, "to_dict")]
    assert [name for cls, name in removed if hasattr(cls, name)] == []


def _parameters(fn) -> list[tuple[str, str]]:
    return [(p.name, p.kind.name) for p in inspect.signature(fn).parameters.values()]


def test_signatures_take_no_one_valued_options():
    # the series runs at unit sigma and past_terms is keyword-only, so a call
    # that still passes sigma 1.0 third raises TypeError instead of reading
    # it as n; generate_paths draws replication 0, the only one it was asked for
    assert _parameters(lm.partial_sum_covariance_series) == [
        ("d_s", "POSITIONAL_OR_KEYWORD"), ("d_t", "POSITIONAL_OR_KEYWORD"),
        ("n", "POSITIONAL_OR_KEYWORD"), ("past_terms", "KEYWORD_ONLY")]
    with pytest.raises(TypeError):
        lm.partial_sum_covariance_series(0.7, 0.7, 1.0, 8)
    assert _parameters(lm.generate_paths) == [
        ("spec", "POSITIONAL_OR_KEYWORD"), ("n", "POSITIONAL_OR_KEYWORD"),
        ("seed", "POSITIONAL_OR_KEYWORD")]


def _called_names(source: str) -> set[str]:
    """Names called anywhere in ``source``, as ``f(...)`` or ``obj.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_guard_sees_plain_and_attribute_calls():
    assert _called_names("f(g)\nm.h()\nx = k\ndef j(): pass") == {"f", "h"}


def test_public_functions_without_a_library_caller_are_the_listed_ones():
    # a public function that nothing in the library calls is either an entry
    # point kept on purpose, listed here with its reason, or a test oracle
    # that belongs in tests/oracles.py
    package = Path(lm.__file__).resolve().parent
    called = set().union(*(_called_names(path.read_text())
                           for path in package.glob("*.py")))
    uncalled = {name for name in lm.__all__
                if inspect.isfunction(getattr(lm, name)) and name not in called}
    assert uncalled == {
        # the benchmark harness loads and validates its configs with these
        "load_spec", "validate",
        # the benchmark checks the simulated paths against this route
        "partial_sums_via_z",
    }


def test_exponents_are_decomposed_only_by_memory_distinct():
    # MemoryFunction.distinct is the one map from grid points to exponents:
    # the coefficient table has a row per distinct exponent, and its
    # consumers reach grid points through that index, never a second np.unique
    package = Path(lm.__file__).resolve().parent
    assert {name for name in ("analytics", "simulate", "mcverify")
            if "unique" in _called_names((package / f"{name}.py").read_text())} == set()
    # the command line reaches exponent pairs through analytics' pair blocks
    # and reads no index of its own
    cli = ast.parse((package / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(cli)
            if isinstance(node, ast.Attribute) and node.attr == "distinct"] == []


def test_pyproject_version_is_the_package_version():
    # a release bumps both by hand
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lm.__version__


def _module_imports(source: str, module: str, on_import: bool = False) -> list[int]:
    """Line numbers of the statements in ``source`` that import ``module``
    (a dotted module name); with ``on_import``, only those that run when the
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
    assert _module_imports(source, "scipy.integrate") == [source.count("\n") + 1]


def test_library_never_imports_scipy():
    # scipy is a test dependency only.  QUADPACK routes live in
    # tests/oracles.py; the library's quadratures are series and a fixed numpy
    # rule, and its normal CDF and zeta are in-house ports
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _module_imports(path.read_text(), "scipy")
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_library_never_imports_scipy_integrate():
    # QUADPACK routes live in tests/oracles.py; the library's quadratures
    # are series and a fixed numpy rule, so no command pays for scipy.integrate
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _module_imports(path.read_text(), "scipy.integrate")
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
    assert _module_imports(source, "scipy.special", on_import=True) == lines


def test_library_loads_scipy_special_on_first_use_only():
    # scipy.special costs a process about 25 MB and 0.3 s; nothing the
    # library runs on import may load it
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _module_imports(path.read_text(), "scipy.special", on_import=True)
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source, lines", [
    ("import concurrent.futures", [1]), ("from concurrent import futures", [1]),
    ("from concurrent.futures import ThreadPoolExecutor", [1]),
    ("def f():\n    from concurrent.futures import ThreadPoolExecutor", []),
])
def test_guard_sees_concurrent_futures_imports(source, lines):
    assert _module_imports(source, "concurrent.futures", on_import=True) == lines


def test_library_loads_concurrent_futures_on_first_use_only():
    # concurrent.futures brings in logging (about 8 ms); only a sharded
    # Monte Carlo run needs its thread pool, so analyze and a serial
    # verify-clt never load it
    package = Path(lm.__file__).resolve().parent
    found = {path.name: _module_imports(path.read_text(), "concurrent.futures",
                                        on_import=True)
             for path in package.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}

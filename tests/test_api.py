import ast
import dataclasses
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longmem as lm
from longmem.cli import main as cli_main

PUBLIC_NAMES = [
    "CovarianceReport", "ExponentFit",
    "InnovationModel", "MemoryFunction", "NormalityReport",
    "ProcessSpec", "RegimeError", "SpaceGrid",
    "ValidationError", "ValidationReport", "__version__",
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
# computes the truncation certificate it reports) and in 0.32.0 (the second
# refusal type of truncation_length, which raises ValidationError)
REMOVED_NAMES = ["cross_covariance_exact", "partial_sum_covariance_exact",
                 "partial_sums_direct", "scale_integral_upper_bound",
                 "partial_sum_covariance_asymptotic", "LimitKernel", "NormalizationPlan",
                 "BATCH_COUNT", "L2_FINITE_THRESHOLD", "CertifiedValue", "_window_tail",
                 "PathEnsemble", "dominating_bound", "CoefficientTable", "TailBudgetError"]


def test_public_names_are_pinned_and_resolve():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(lm.__all__) == PUBLIC_NAMES
    assert [name for name in lm.__all__ if not hasattr(lm, name)] == []
    assert [name for name in REMOVED_NAMES
            if any(hasattr(module, name)
                   for module in (lm, lm.model, lm.analytics, lm.simulate, lm.mcverify))] == []


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
        "ValidationReport": ["regime"],
    }
    assert not hasattr(lm.analytics.L2Report, "verdict")


def test_process_parts_hold_only_their_arrays():
    # a spec is its grid, exponent field, sigma and law: how a config spelled
    # them ("kind", step breakpoints and levels) is known only to the loaders,
    # and spec_hash hashes the arrays, not a config dictionary
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (lm.MemoryFunction, lm.InnovationModel)}
    assert fields == {"MemoryFunction": ["values"],
                      "InnovationModel": ["sigma", "law", "pareto_alpha"]}
    removed = [(lm.MemoryFunction, "table"), (lm.InnovationModel, "custom"),
               (lm.ProcessSpec, "to_dict")]
    assert [name for cls, name in removed if hasattr(cls, name)] == []


def _parameters(fn) -> list[tuple[str, str]]:
    return [(p.name, p.kind.name) for p in inspect.signature(fn).parameters.values()]


def test_signatures_take_no_one_valued_options():
    # the series runs at unit sigma over max(4096, 8n) past terms, so a call
    # that still passes sigma 1.0 third raises TypeError instead of reading
    # it as n; the weights use the spec's window, the one every caller used;
    # generate_paths draws replication 0, the only one it was asked for
    assert _parameters(lm.partial_sum_covariance_series) == [
        ("d_s", "POSITIONAL_OR_KEYWORD"), ("d_t", "POSITIONAL_OR_KEYWORD"),
        ("n", "POSITIONAL_OR_KEYWORD")]
    with pytest.raises(TypeError):
        lm.partial_sum_covariance_series(0.7, 0.7, 1.0, 8)
    assert _parameters(lm.partial_sum_weights) == [
        ("spec", "POSITIONAL_OR_KEYWORD"), ("n", "POSITIONAL_OR_KEYWORD")]
    assert _parameters(lm.generate_paths) == [
        ("spec", "POSITIONAL_OR_KEYWORD"), ("n", "POSITIONAL_OR_KEYWORD"),
        ("seed", "POSITIONAL_OR_KEYWORD")]
    # the KS distance is taken against variances the caller gives
    assert inspect.signature(lm.normality_diagnostics).parameters["variances"].default \
        is inspect.Parameter.empty


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


def test_benchmark_setup_runs_on_the_bundled_configs():
    # bench/run.py times SETUP_CODE in a child on its configs and stops on a
    # nonzero exit; the code reads validate(spec).ok, so that read must hold
    root = Path(__file__).resolve().parent.parent
    code, = [ast.literal_eval(node.value)
             for node in ast.parse((root / "bench" / "run.py").read_text()).body
             if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    configs = sorted(map(str, (root / "src" / "longmem" / "configs").glob("*.json")))
    assert len(configs) == 4
    run = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert run.returncode == 0, run.stderr


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


# one call per argument refusal of the library, on long_spec (s) and
# boundary_spec (b); RegimeError is one of them
ARGUMENT_REFUSALS = {
    "lag-negative": (lambda s, b: lm.cross_covariance_matrix(s, -1), "nonnegative"),
    "lag-max": (lambda s, b: lm.cross_covariance_matrix(s, lm.analytics.MAX_LAG + 1),
                "exceeds MAX_LAG"),
    "asymptotic-h": (lambda s, b: lm.cross_covariance_asymptotic(0.7, 0.7, 1.0, 1),
                     "needs h >= 2"),
    "regime": (lambda s, b: lm.scale_integral(0.4, 0.9), "requires 1/2 < d_s < 1"),
    "weights-n": (lambda s, b: lm.partial_sum_weights(s, 1), "n >= 2"),
    "series-n": (lambda s, b: lm.partial_sum_covariance_series(0.7, 0.7, 0), "n must be >= 1"),
    "normalization-n": (lambda s, b: lm.normalization_plan(b, 1), "needs n >= 2"),
    "paths-n": (lambda s, b: lm.generate_paths(s, 0, 0), "n must be >= 1"),
    "via-z-n": (lambda s, b: lm.partial_sums_via_z(s, 1, 0), "stated for n >= 2"),
    "clt-N": (lambda s, b: lm.run_clt_experiment(s, 8, 99, 0), "N must be >= 100"),
    "clt-n": (lambda s, b: lm.run_clt_experiment(s, 1, 600, 0), "n must be >= 2; got 1"),
    "clt-shards": (lambda s, b: lm.run_clt_experiment(s, 8, 600, 0, shards=0),
                   "shards must be at least 1"),
    "clt-z-star": (lambda s, b: lm.run_clt_experiment(s, 8, 600, 0, z_star=0.0),
                   "z_star must be positive"),
    "normality-N": (lambda s, b: lm.normality_diagnostics(np.zeros((499, 2)), np.ones(2)),
                    "need N >= 500"),
    # the variances the KS distance is taken against: None, NaN, negative,
    # infinite, or of another length
    **{f"normality-variances-{name}": (
        lambda s, b, v=v: lm.normality_diagnostics(np.zeros((500, 2)), v),
        "finite, non-negative scalar or 2-vector")
       for name, v in (("none", None), ("nan", [1.0, np.nan]), ("negative", [1.0, -1.0]),
                       ("inf", np.inf), ("length", np.ones(3)))},
    # every draw passes the seed and the count through simulate._standard_draws,
    # which reads them by the config's integer rule, and the replication
    # through simulate._seek
    "draw-seed-negative": (lambda s, b: lm.innovation_block(s.innovations, -1, 0, 4),
                           "seed must be an integer >= 0; got -1"),
    "draw-seed-fraction": (lambda s, b: lm.generate_paths(s, 4, 1.5),
                           "seed must be an integer >= 0; got 1.5"),
    "draw-seed-bool": (lambda s, b: lm.partial_sums_via_z(s, 4, True),
                       "seed must be an integer >= 0; got True"),
    "clt-seed-negative": (lambda s, b: lm.run_clt_experiment(b, 8, 100, -1),
                          "seed must be an integer >= 0; got -1"),
    "draw-count": (lambda s, b: lm.innovation_block(s.innovations, 0, 0, 0),
                   "count must be an integer >= 1; got 0"),
    **{f"draw-rep-{name}": (lambda s, b, rep=rep: lm.innovation_block(s.innovations, 0, 0, 4,
                                                                     rep=rep),
                            r"replication -?\d+, .* own 2\*\*64-word region")
       for name, rep in (("negative", -1), ("2^64", 2 ** 64))},
    "fit-distinct": (lambda s, b: lm.fit_variance_exponent(s, [64] * 5), "5 distinct"),
    "fit-dyadic": (lambda s, b: lm.fit_variance_exponent(s, [3, 8, 16, 32, 64]), "dyadic"),
    "tail-budget": (lambda s, b: lm.truncation_length(0.5000001, 1e-3), "unreachable"),
}


@pytest.mark.parametrize("name", ARGUMENT_REFUSALS)
def test_argument_refusals_are_validation_errors(long_spec, boundary_spec, name):
    # the one type that means refused input, which the command line exits 2 on
    call, message = ARGUMENT_REFUSALS[name]
    with pytest.raises(lm.ValidationError, match=message):
        call(long_spec, boundary_spec)


def _plain_value_errors(source: str) -> list[str]:
    """The functions of ``source`` that raise a plain ``ValueError``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            found += [func.name for node in ast.walk(func) if isinstance(node, ast.Raise)
                      and getattr(getattr(node.exc, "func", node.exc), "id", None)
                      == "ValueError"]
    return found


def test_plain_value_errors_are_internal_invariants_only():
    # every refused input raises ValidationError (exit 2); a plain
    # ValueError is an internal fault (exit 3)
    package = Path(lm.__file__).resolve().parent
    found = {path.stem: _plain_value_errors(path.read_text()) for path in package.glob("*.py")}
    assert {name: funcs for name, funcs in found.items() if funcs} == {
        "io": ["write_table_csv"],                   # columns of unequal length
        "model": ["_integer"],                       # which _cast refuses as input
    }


def test_pyproject_version_is_the_package_version():
    # a release bumps both by hand
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == lm.__version__


def test_readme_library_example_runs(capsys):
    # the python block under "## Library example", run as a user would paste it
    code = _readme_block("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    regime, verdict = capsys.readouterr().out.splitlines()
    assert regime == "long"   # as the example's comment says
    assert verdict.split()[0] in ("True", "False")


ROOT = Path(__file__).resolve().parents[1]


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``## heading`` in README.md."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


# a test function cited by name (not a test file), and a module-level name
# cited as module.NAME, bare or as longmem.module.NAME
CITED_TEST = re.compile(r"(?<![\w/])(test_\w+)(?!\w|\.py)")
CITED_NAME = re.compile(r"(?<![\w/.])(?:longmem\.)?(model|analytics|simulate|mcverify|io|cli)"
                        r"\.([A-Za-z_]\w*)")


def _defined_tests() -> set[str]:
    tests = Path(__file__).resolve().parent
    return {node.name for path in tests.glob("**/*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_readme_cites_only_tests_and_names_that_exist():
    # every promise names the test that pins it, and every module.NAME it
    # cites resolves: a renamed test or constant fails here, not in a reader
    readme = (ROOT / "README.md").read_text()
    cited_tests = set(CITED_TEST.findall(readme))
    cited_names = set(CITED_NAME.findall(readme))
    assert "test_readme_library_example_runs" in _defined_tests()
    assert ("simulate", "REPLICATION_BLOCK") in cited_names
    assert len(cited_tests) >= 50
    assert sorted(cited_tests - _defined_tests()) == []
    assert sorted(f"{module}.{name}" for module, name in cited_names
                  if not hasattr(importlib.import_module(f"longmem.{module}"), name)) == []


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # the sh block under "## CLI", each line run from a checkout: its
    # configs are read from the repository and its outputs land in tmp_path
    monkeypatch.chdir(tmp_path)
    statuses = {}
    for line in _readme_block("CLI", "sh").splitlines():
        program, command, *args = shlex.split(line)
        assert program == "longmem"
        statuses[command] = cli_main([command, *(str(ROOT / arg) if arg.startswith("src/")
                                                 else arg for arg in args)])
    assert sorted(statuses) == ["analyze", "simulate", "verify-clt"]
    # a verdict may move with numpy's SIMD dispatch, so verify-clt may exit 1
    assert statuses["simulate"] == statuses["analyze"] == 0
    assert statuses["verify-clt"] in (0, 1)


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

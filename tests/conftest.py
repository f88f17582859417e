import numpy as np
import pytest

import longmem as lm


@pytest.fixture
def long_spec():
    """Constant d = 0.7 on a 4-point grid with Wiener innovations."""
    return lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "constant", "values": 0.7},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.3,
        "horizon": 8,
    })


@pytest.fixture
def boundary_spec():
    """Constant d = 1 with unit white innovations."""
    return lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "constant", "values": 1.0},
        "innovations": {"kind": "white", "sigma2": 1.0},
        "tail_tol": 0.01,
        "horizon": 8,
    })


@pytest.fixture
def mixed_spec():
    """Mixed regimes: long, long, boundary, short on one grid."""
    return lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "table", "values": [0.6, 0.75, 1.0, 2.0]},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.3,
        "horizon": 8,
    })


@pytest.fixture
def repeated_spec():
    """Long regime with a repeated exponent: 3 distinct values on 4 points."""
    return lm.spec_from_dict({
        "grid": {"points": [0.25, 0.5, 0.75, 1.0]},
        "memory": {"kind": "table", "values": [0.75, 0.8, 0.75, 0.9]},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.05,
    })


@pytest.fixture
def constant8_spec():
    """Constant d = 0.7 on an 8-point grid: one distinct exponent."""
    return lm.spec_from_dict({
        "grid": {"linspace": [0.125, 1.0, 8]},
        "memory": {"kind": "constant", "values": 0.7},
        "innovations": {"kind": "wiener"},
        "tail_tol": 0.3,
    })


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list the wrapper appends each call's arguments to."""
    def wrap(module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
        return calls
    return wrap


@pytest.fixture
def rel():
    def _rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)
    return _rel

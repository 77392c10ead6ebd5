import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cnoidal_kdv import elliptic as el
from cnoidal_kdv import tau as tu


@pytest.fixture(scope="session")
def curve():
    """The reference curve of all figure captions: (e1, e2, e3) = (2, 1, -3)."""
    return el.half_periods(2.0, 1.0, -3.0)


@pytest.fixture(scope="session")
def dim_point(curve):
    """Cool soliton of the 'dim' figure: beta = 0.24 + tau/2, c ~ 1.50356."""
    return el.JacobianPoint(beta=0.24 + curve.tau / 2.0, chi=1)


@pytest.fixture(scope="session")
def bright_point():
    """Hot soliton of the 'bright' figure: beta = 0.30, b ~ -5.3595."""
    return el.JacobianPoint(beta=0.30 + 0j, chi=0)


@pytest.fixture(scope="session")
def ctx_cnoidal(curve):
    return tu.build_context(curve, tu.build_spectrum(curve, []))


@pytest.fixture(scope="session")
def ctx_dim(curve, dim_point):
    return tu.build_context(curve, tu.spectrum_from_points(curve, [(dim_point, 0.0)]))


@pytest.fixture(scope="session")
def ctx_bright(curve, bright_point):
    return tu.build_context(curve, tu.spectrum_from_points(curve, [(bright_point, 0.0)]))


@pytest.fixture(scope="session")
def ctx_dimbright(curve, dim_point, bright_point):
    spectrum = tu.spectrum_from_points(curve, [(dim_point, 0.0), (bright_point, 0.0)])
    return tu.build_context(curve, spectrum)


@pytest.fixture
def theta_calls(monkeypatch):
    """Names of the theta1/theta3 calls made from any package module, in order."""
    calls = []
    for name in ("theta1", "theta3"):
        original = getattr(el, name)

        def counting(*args, _fn=original, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cnoidal_kdv") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls

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


def _count_calls(monkeypatch, names, entry=None):
    """One entry per call to the elliptic functions `names` from any package module.

    The entry is the function's name, or entry(name, args, kwargs).
    """
    calls = []
    for name in names:
        original = getattr(el, name)

        def counting(*args, _fn=original, _name=name, **kwargs):
            calls.append(_name if entry is None else entry(_name, args, kwargs))
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cnoidal_kdv") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def theta_calls(monkeypatch):
    """Names of the theta1/theta3 calls made from any package module, in order."""
    return _count_calls(monkeypatch, ("theta1", "theta3"))


@pytest.fixture
def series_calls(monkeypatch):
    """One entry per theta series pass (_theta_sum), behind theta1/theta3 or not."""
    return _count_calls(monkeypatch, ("_theta_sum",))


@pytest.fixture
def series_orders(monkeypatch):
    """The order argument of each theta series pass (_theta_sum), a tuple of orders or one order."""
    return _count_calls(monkeypatch, ("_theta_sum",),
                        lambda name, args, kwargs: args[3] if len(args) > 3 else kwargs["order"])


@pytest.fixture
def grid_calls(monkeypatch):
    """One entry per theta table grid (_theta_grid) call made from any package module."""
    return _count_calls(monkeypatch, ("_theta_grid",))


@pytest.fixture
def weierstrass_calls(monkeypatch):
    """One entry per weierstrass call made from any package module."""
    return _count_calls(monkeypatch, ("weierstrass",))


@pytest.fixture
def wp_calls(monkeypatch):
    """One entry per wp_on_segment or weierstrass call made from any package module."""
    return _count_calls(monkeypatch, ("wp_on_segment", "weierstrass"))

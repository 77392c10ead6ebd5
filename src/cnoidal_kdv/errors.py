"""Exception hierarchy for the cnoidal-kdv package.

Every numerical failure mode raises a named subclass of CnoidalKdvError so
callers (and the CLI exit-code contract) can distinguish bad input from a
violated numerical precondition.
"""


class CnoidalKdvError(Exception):
    """Base class for all package errors."""


# -- elliptic curve / special functions ------------------------------------

class NonDistinctBranchPoints(CnoidalKdvError):
    """Two of e1, e2, e3 coincide within tolerance."""


class TraceNotZero(CnoidalKdvError):
    """e1 + e2 + e3 is not zero within tolerance."""


class ThetaConvergenceError(CnoidalKdvError):
    """Im(tau) too small for the q-series to be practical."""


class LatticePoint(CnoidalKdvError):
    """Weierstrass function evaluated on (or too close to) the period lattice."""


class SpectrumInGap(CnoidalKdvError):
    """Spectral point b lies in a band [e3, e2] or beyond e1."""


class TooCloseToBranchPoint(CnoidalKdvError):
    """Spectral point b within tolerance of a branch point."""


# -- period matrices / theta sums -------------------------------------------

class CoincidentSolitons(CnoidalKdvError):
    """Two Jacobian points beta_j closer than tolerance."""


class TruncationInsufficient(CnoidalKdvError):
    """Lattice-sum tail bound exceeds the requested tolerance."""


class SingularConfiguration(CnoidalKdvError):
    """A theta_1 denominator in the Fay identity vanishes."""


class FactorizationMismatch(CnoidalKdvError):
    """Determinant factorization disagrees with the restricted lattice sum.

    Raised by the degeneration residual when the Fredholm-determinant side
    fails to reproduce the {0,1}-restricted part of the theta sum; indicates
    an inconsistent sign or norming convention rather than truncation error.
    """


# -- tau function -------------------------------------------------------------

class DuplicateSpectralPoint(CnoidalKdvError):
    """Two requested soliton spectral points coincide."""


class BackgroundThetaZero(CnoidalKdvError):
    """theta_3 of the background phase vanished (numerical misuse guard)."""


class NonRealTau(CnoidalKdvError):
    """Imaginary part of tau(x, t) above the reality tolerance."""


class GridTooCoarse(CnoidalKdvError):
    """PDE-residual grid under-resolves the cnoidal period."""


class PhaseOverflow(CnoidalKdvError):
    """Soliton phase exponent too large for double precision."""


# -- dynamics -----------------------------------------------------------------

class BranchPointLimit(CnoidalKdvError):
    """beta too close to a half-period where velocity formulas degenerate."""


class UnorderedVelocities(CnoidalKdvError):
    """pair_shifts requires V(beta1) > V(beta2)."""


class EqualVelocities(CnoidalKdvError):
    """Two solitons in a shift schedule share a group velocity."""


class BracketFailure(CnoidalKdvError):
    """Bisection bracket for the tracker equation failed (should not occur)."""


class InvalidNorming(CnoidalKdvError):
    """Tracker norming constant is not a finite positive number."""


class FitDiverged(CnoidalKdvError):
    """Background-phase fit residual above tolerance."""


# -- soliton gas --------------------------------------------------------------

class DiagonalSingularity(CnoidalKdvError):
    """Interaction kernel evaluated at eta == beta."""


class SingularSystem(CnoidalKdvError):
    """Discretized dispersion-relation system is numerically singular."""


class ZeroDensityNode(CnoidalKdvError):
    """Effective speed s = -v/u requested where u vanishes."""


class NegativeDensityWarning(UserWarning):
    """Solved density of states dipped below -1e-8."""

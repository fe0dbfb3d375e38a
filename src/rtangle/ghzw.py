"""Closed-form residual tangle for mixtures of generalized GHZ and W states.

The mixture family is

    rho(p) = p |gGHZ_ab><gGHZ_ab| + (1 - p) |gW_cdf><gW_cdf|,

with ``gGHZ = a|000> + b|111>`` and ``gW = c|001> + d|010> + f|100>``.
The hyperdeterminant of their superpositions has two terms,

    Det(x gGHZ + y gW) = A x^4 + D x y^3,   A = a^2 b^2,  D = 4 b c d f,

and the closed form reads the mixture only through them and ``p``:
``2|ab| = 2 sqrt|A|``, ``s = |D/A|`` and ``phi~ = arg(D/A)``.  The residual
tangle is piecewise linear in ``p``: zero up to the branch point
``p0 = s^(2/3) / (1 + s^(2/3))``, then ``2|ab| (p - p0) / (1 - p0)``.

The optimal decompositions are built from the one-parameter superposition
family ``|p, phi>``; note the relative sign convention in
:func:`family_state`, which is fixed by requiring that the closed form of
:func:`family_sqrt_tau` and the zero states ``|p0, 2 pi n / 3>`` come out
exactly.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .states import (
    NORM_TOL,
    DensityMatrix,
    PureState,
    ValidationError,
    WeightedEnsemble,
    ensemble_to_density,
)

ZERO_BRANCH = "zero_branch"
LINEAR_BRANCH = "linear_branch"


def generalized_ghz(a: complex, b: complex) -> PureState:
    """a|000> + b|111> (requires |a|^2 + |b|^2 = 1)."""
    amp = np.zeros(8, dtype=np.complex128)
    amp[0], amp[7] = a, b
    return PureState(amp)


def generalized_w(c: complex, d: complex, f: complex) -> PureState:
    """c|001> + d|010> + f|100> (requires |c|^2 + |d|^2 + |f|^2 = 1)."""
    amp = np.zeros(8, dtype=np.complex128)
    amp[1], amp[2], amp[4] = c, d, f
    return PureState(amp)


class MixtureNormalizationError(ValidationError):
    """The gGHZ or gW amplitudes of a :class:`GhzWMixture` are not normalized."""


@dataclass(frozen=True)
class GhzWMixture:
    """Parameters (a, b, c, d, f, p) of the GHZ/W mixture family."""

    a: complex
    b: complex
    c: complex
    d: complex
    f: complex
    p: float

    def __post_init__(self):
        for name in "abcdf":
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValidationError(f"GhzWMixture: parameter {name} must be finite")
            object.__setattr__(self, name, v)
        n_ghz = abs(self.a) ** 2 + abs(self.b) ** 2
        n_w = abs(self.c) ** 2 + abs(self.d) ** 2 + abs(self.f) ** 2
        if abs(n_ghz - 1.0) > NORM_TOL:
            raise MixtureNormalizationError(f"GhzWMixture: |a|^2+|b|^2 = {n_ghz!r}, expected 1")
        if abs(n_w - 1.0) > NORM_TOL:
            raise MixtureNormalizationError(
                f"GhzWMixture: |c|^2+|d|^2+|f|^2 = {n_w!r}, expected 1")
        p = float(self.p)
        if not (0.0 <= p <= 1.0) or not np.isfinite(p):
            raise ValidationError(f"GhzWMixture: p = {p!r} outside [0, 1]")
        object.__setattr__(self, "p", p)

    def ghz_state(self) -> PureState:
        return generalized_ghz(self.a, self.b)

    def w_state(self) -> PureState:
        return generalized_w(self.c, self.d, self.f)

    def ensemble(self) -> WeightedEnsemble:
        members = []
        if self.p > 0:
            members.append((self.p, self.ghz_state()))
        if self.p < 1:
            members.append((1.0 - self.p, self.w_state()))
        return WeightedEnsemble(tuple(members))

    def density(self) -> DensityMatrix:
        return ensemble_to_density(self.ensemble())


@dataclass(frozen=True)
class MixtureAnalysis:
    """Branch data and residual tangle of a GHZ/W mixture."""

    s: float
    tilde_phi: float
    p0: float
    rtangle: float
    branch: str
    limit_case: str | None = None


def _det_core(mix: GhzWMixture) -> tuple[float, complex | None]:
    """(|ab|, D/A) of Det(x gGHZ + y gW) = A x^4 + D x y^3.

    This is all the closed form reads of a mixture besides p:
    2|ab| = 2 sqrt|A|, s = |D/A| and phi~ = arg(D/A).  D/A = 4 c d f / (a^2 b)
    is None where a^2 b = 0 and exactly 0.0 where c d f = 0 (the quotient
    there can be a negative zero, whose phase is -pi).
    """
    num = 4.0 * mix.c * mix.d * mix.f
    den = mix.a * mix.a * mix.b
    if abs(den) == 0.0:
        ratio = None
    elif abs(num) == 0.0:
        ratio = 0.0
    else:
        ratio = num / den
    return abs(mix.a * mix.b), ratio


def _stable_modulus(s: float, p: float, phi: float) -> float:
    """|p^2 - s sqrt(p (1-p)^3) e^{3 i phi}|, evaluated in factored form.

    The naive difference cancels catastrophically at the branch point; here
    p^2 - s g(p) is rationalized into an explicit (p - p0) factor so the
    zero is exact in floating point.
    """
    g = np.sqrt(p * (1.0 - p) ** 3)
    if s == 0.0:
        return p * p
    u = s ** (2.0 / 3.0)
    p0 = u / (1.0 + u)
    if p == 0.0:
        radial = 0.0
    else:
        quad = p * p + u * p * (1.0 - p) + u * u * (1.0 - p) ** 2
        radial = p * (1.0 + u) * (p - p0) * quad / (p * p + s * g)
    half = 1.5 * phi
    delta = half - np.pi * np.round(half / np.pi)
    cross = 4.0 * p * p * s * g * np.sin(delta) ** 2
    return float(np.sqrt(radial * radial + cross))


def analyze(mix: GhzWMixture) -> MixtureAnalysis:
    """Branch point and residual tangle of rho(p).

    Degenerate parameter choices (``a b = 0`` or ``c d f = 0``) fall
    outside the closed form's stated hypothesis; they are returned as the
    corresponding limits and flagged via ``limit_case``.
    """
    ab, ratio = _det_core(mix)
    if ratio is None:
        # gGHZ is a product state: the spectral ensemble is already
        # tangle-free, so the roof vanishes for every p.
        return MixtureAnalysis(s=float("inf"), tilde_phi=0.0, p0=1.0, rtangle=0.0,
                               branch=ZERO_BRANCH, limit_case="degenerate_ghz")
    s, tilde_phi = abs(ratio), cmath.phase(ratio)
    limit = "degenerate_w" if s == 0.0 else None
    u = s ** (2.0 / 3.0)
    p0 = u / (1.0 + u)
    if mix.p <= p0:
        branch, rt = ZERO_BRANCH, 0.0
    else:
        branch, rt = LINEAR_BRANCH, 2.0 * ab * (mix.p - p0) / (1.0 - p0)
    return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=p0, rtangle=rt,
                           branch=branch, limit_case=limit)


def family_state(mix: GhzWMixture, p: float, phi: float) -> PureState:
    """The superposition sqrt(p) gGHZ - sqrt(1-p) e^{i(phi - phi~/3)} gW.

    The relative minus sign (equivalently a pi/3 shift of phi) is the
    convention under which :func:`family_sqrt_tau` holds exactly and the
    states ``|p0, 2 pi n / 3>`` are tangle-free.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"family_state: p = {p!r} outside [0, 1]")
    _, ratio = _det_core(mix)
    tilde_phi = 0.0 if ratio is None else cmath.phase(ratio)
    w = -np.sqrt(1.0 - p) * cmath.exp(1j * (phi - tilde_phi / 3.0))
    amp = np.sqrt(p) * mix.ghz_state().amp + w * mix.w_state().amp
    return PureState(amp)


def family_sqrt_tau(mix: GhzWMixture, p: float, phi: float) -> float:
    """Closed-form sqrt(tau) of the family state,

        2 |ab| sqrt| p^2 - s sqrt(p (1-p)^3) e^{3 i phi} |.

    Evaluated through :func:`_stable_modulus` so that branch-point zeros
    come out exact.  In the ``a^2 b = 0`` limit A = 0 and s is undefined;
    there Det = D x y^3 alone, and ``2 sqrt(|D| sqrt(p (1-p)^3))`` with
    ``D = 4 b c d f`` stays the true value (such family states can carry
    tangle even though the mixture roof vanishes).
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"family_sqrt_tau: p = {p!r} outside [0, 1]")
    ab, ratio = _det_core(mix)
    if ratio is None:
        d_abs = 4.0 * abs(mix.b * mix.c * mix.d * mix.f)
        return float(2.0 * np.sqrt(d_abs * np.sqrt(p * (1.0 - p) ** 3)))
    return float(2.0 * ab * np.sqrt(_stable_modulus(abs(ratio), p, phi)))


def _members(mix: GhzWMixture) -> list[tuple[float, float, float]]:
    """(weight, p, phi) of each member of the optimal decomposition."""
    ana = analyze(mix)
    p, p0 = mix.p, ana.p0
    if ana.branch == LINEAR_BRANCH:
        rows = [((p - p0) / (1.0 - p0), 1.0, 0.0)]
        base = (1.0 - p) / (3.0 * (1.0 - p0))
    elif p0 > 0:
        rows = [((p0 - p) / p0, 0.0, 0.0)]
        base = p / (3.0 * p0)
    else:  # p == p0 == 0
        rows = [(1.0, 0.0, 0.0)]
        base = 0.0
    return rows + [(base, p0, 2.0 * np.pi * n / 3.0) for n in range(3)]


def optimal_ensemble(mix: GhzWMixture) -> WeightedEnsemble:
    """A decomposition of rho(p) attaining the closed-form residual tangle.

    Zero branch: ``{(p0-p)/p0, |0,0>}`` plus the three states
    ``|p0, 2 pi n / 3>`` with weight ``p/(3 p0)`` each; linear branch:
    ``{(p-p0)/(1-p0), |1,0>}`` plus the same three states with weight
    ``(1-p)/(3(1-p0))``.  Zero-weight members are dropped.
    """
    return WeightedEnsemble(tuple((w, family_state(mix, pv, phi))
                                  for w, pv, phi in _members(mix) if w > 1e-15))


def optimal_objective(mix: GhzWMixture) -> float:
    """Weighted closed-form value of :func:`optimal_ensemble`.

    The ensemble members sit at phases that are exact multiples of
    2 pi / 3, where the phase term of the closed form vanishes
    identically, so this evaluates the objective without the
    double-precision cancellation the amplitude-level route incurs.
    Equals ``analyze(mix).rtangle`` up to roundoff.
    """
    return float(sum(w * family_sqrt_tau(mix, pv, phi) for w, pv, phi in _members(mix)))


@dataclass(frozen=True)
class ConcavityReport:
    """Numerical certificate that the linear branch is the convex hull."""

    quartic_min: float
    quartic_argmin: float
    quartic_positive: bool
    second_difference_max: float
    concave_on_linear_branch: bool

    @property
    def passed(self) -> bool:
        return self.quartic_positive and self.concave_on_linear_branch


def concavity_certificate(mix: GhzWMixture, grid_n: int = 10001) -> ConcavityReport:
    """Check the two ingredients of the branch argument on a grid.

    The quartic ``-4p^4 + 20p^3 - 3p^2 - 2p + 1`` (which controls the sign
    of the second derivative of the family value at phi = 0) must be
    positive on [0, 1], and the sampled second difference of
    ``family_sqrt_tau(., 0)`` on [p0, 1] must be <= 1e-8.
    """
    if grid_n < 2:
        raise ValidationError("concavity_certificate: grid_n must be >= 2")
    ps = np.linspace(0.0, 1.0, grid_n)
    q = -4.0 * ps ** 4 + 20.0 * ps ** 3 - 3.0 * ps ** 2 - 2.0 * ps + 1.0
    k = int(np.argmin(q))
    p0 = analyze(mix).p0
    grid = np.linspace(p0, 1.0, grid_n)
    vals = np.array([family_sqrt_tau(mix, float(p), 0.0) for p in grid])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    sd_max = float(second.max()) if len(second) else 0.0
    return ConcavityReport(
        quartic_min=float(q[k]),
        quartic_argmin=float(ps[k]),
        quartic_positive=bool(q[k] > 0.0),
        second_difference_max=sd_max,
        concave_on_linear_branch=bool(sd_max <= 1e-8),
    )


_GHZ_SUPPORT = (0, 7)
_W_SUPPORT = (1, 2, 4)


def as_mixture(e: WeightedEnsemble, tol: float = 1e-12) -> GhzWMixture | None:
    """Recognize a two-member {gGHZ, gW} ensemble; None if it is not one.

    Useful after a diagonal measurement, which preserves the family form.
    """
    ghz = w = None
    p = 0.0
    for weight, psi in e.members:
        off_ghz = sum(abs(psi.amp[k]) for k in range(8) if k not in _GHZ_SUPPORT)
        off_w = sum(abs(psi.amp[k]) for k in range(8) if k not in _W_SUPPORT)
        if off_ghz <= tol and ghz is None:
            ghz, p = psi, weight
        elif off_w <= tol and w is None:
            w = psi
        else:
            return None
    if ghz is None or w is None:
        return None
    return GhzWMixture(a=complex(ghz.amp[0]), b=complex(ghz.amp[7]),
                       c=complex(w.amp[1]), d=complex(w.amp[2]), f=complex(w.amp[4]),
                       p=p)

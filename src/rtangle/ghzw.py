"""Closed-form residual tangle for mixtures of generalized GHZ and W states.

The mixture family is

    rho(p) = p |gGHZ_ab><gGHZ_ab| + (1 - p) |gW_cdf><gW_cdf|,

with ``gGHZ = a|000> + b|111>`` and ``gW = c|001> + d|010> + f|100>``.
Its residual tangle is piecewise linear in ``p``: zero up to the branch
point ``p0 = s^(2/3) / (1 + s^(2/3))`` with ``s = |4 c d f / (a^2 b)|``,
then ``2|ab| (p - p0) / (1 - p0)``.

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

from .invariants import invariants
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


def _s_and_phase(mix: GhzWMixture):
    num = 4.0 * mix.c * mix.d * mix.f
    den = mix.a * mix.a * mix.b
    if abs(den) == 0.0:
        return float("inf"), 0.0, "degenerate_ghz"
    if abs(num) == 0.0:
        return 0.0, 0.0, "degenerate_w"
    ratio = num / den
    return abs(ratio), cmath.phase(ratio), None


def _stable_modulus(s: float, p: float, phi: float | None) -> float:
    """|p^2 - s sqrt(p (1-p)^3) e^{3 i phi}|, evaluated in factored form.

    The naive difference cancels catastrophically at the branch point; here
    p^2 - s g(p) is rationalized into an explicit (p - p0) factor so the
    zero is exact in floating point.  ``phi=None`` means phi is a multiple
    of 2 pi / 3 by construction and the phase term vanishes identically.
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
    if phi is None:
        return abs(radial)
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
    s, tilde_phi, limit = _s_and_phase(mix)
    p = mix.p
    two_ab = 2.0 * abs(mix.a * mix.b)
    if limit == "degenerate_ghz":
        # gGHZ is a product state: the spectral ensemble is already
        # tangle-free, so the roof vanishes for every p.
        return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=1.0, rtangle=0.0,
                               branch=ZERO_BRANCH, limit_case=limit)
    if limit == "degenerate_w":
        p0 = 0.0
        branch = ZERO_BRANCH if p <= p0 else LINEAR_BRANCH
        return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=p0, rtangle=two_ab * p,
                               branch=branch, limit_case=limit)
    u = s ** (2.0 / 3.0)
    p0 = u / (1.0 + u)
    if p <= p0:
        return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=p0, rtangle=0.0, branch=ZERO_BRANCH)
    rt = two_ab * (p - p0) / (1.0 - p0)
    return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=p0, rtangle=rt, branch=LINEAR_BRANCH)


def family_state(mix: GhzWMixture, p: float, phi: float) -> PureState:
    """The superposition sqrt(p) gGHZ - sqrt(1-p) e^{i(phi - phi~/3)} gW.

    The relative minus sign (equivalently a pi/3 shift of phi) is the
    convention under which :func:`family_sqrt_tau` holds exactly and the
    states ``|p0, 2 pi n / 3>`` are tangle-free.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"family_state: p = {p!r} outside [0, 1]")
    _, tilde_phi, _ = _s_and_phase(mix)
    w = -np.sqrt(1.0 - p) * cmath.exp(1j * (phi - tilde_phi / 3.0))
    amp = np.sqrt(p) * mix.ghz_state().amp + w * mix.w_state().amp
    return PureState(amp)


def family_sqrt_tau(mix: GhzWMixture, p: float, phi: float) -> float:
    """Closed-form sqrt(tau) of the family state,

        2 |ab| sqrt| p^2 - s sqrt(p (1-p)^3) e^{3 i phi} |.

    Evaluated through :func:`_stable_modulus` so that branch-point zeros
    come out exact.  In the ``a^2 b = 0`` limit the prefactored form is
    undefined; the denominator-cleared expression
    ``2 sqrt|a^2 b^2 p^2 - 4 b c d f sqrt(p (1-p)^3) e^{i (3 phi - phi~)}|``
    is used instead, which stays the true value there (such family states
    can carry tangle even though the mixture roof vanishes).
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"family_sqrt_tau: p = {p!r} outside [0, 1]")
    s, tilde_phi, limit = _s_and_phase(mix)
    if limit == "degenerate_ghz":
        a, b, c, d, f = mix.a, mix.b, mix.c, mix.d, mix.f
        cross = (4.0 * b * c * d * f * np.sqrt(p * (1.0 - p) ** 3)
                 * cmath.exp(1j * (3.0 * phi - tilde_phi)))
        det = a * a * b * b * p * p - cross
        return float(2.0 * np.sqrt(abs(det)))
    two_ab = 2.0 * abs(mix.a * mix.b)
    return float(two_ab * np.sqrt(_stable_modulus(s, p, phi)))


def optimal_ensemble(mix: GhzWMixture) -> WeightedEnsemble:
    """A decomposition of rho(p) attaining the closed-form residual tangle.

    Zero branch: ``{(p0-p)/p0, |0,0>}`` plus the three states
    ``|p0, 2 pi n / 3>`` with weight ``p/(3 p0)`` each; linear branch:
    ``{(p-p0)/(1-p0), |1,0>}`` plus the same three states with weight
    ``(1-p)/(3(1-p0))``.  Zero-weight members are dropped.
    """
    ana = analyze(mix)
    p, p0 = mix.p, ana.p0
    members = []
    if ana.branch == ZERO_BRANCH:
        if p0 > 0:
            members.append(((p0 - p) / p0, family_state(mix, 0.0, 0.0)))
            base = p / (3.0 * p0)
        else:  # p == p0 == 0
            members.append((1.0, family_state(mix, 0.0, 0.0)))
            base = 0.0
    else:
        members.append(((p - p0) / (1.0 - p0), family_state(mix, 1.0, 0.0)))
        base = (1.0 - p) / (3.0 * (1.0 - p0))
    for n in range(3):
        members.append((base, family_state(mix, p0, 2.0 * np.pi * n / 3.0)))
    kept = tuple((w, psi) for w, psi in members if w > 1e-15)
    return WeightedEnsemble(kept)


def optimal_objective(mix: GhzWMixture) -> float:
    """Weighted closed-form value of :func:`optimal_ensemble`.

    The ensemble members sit at phases that are exact multiples of
    2 pi / 3, where the phase term of the closed form vanishes
    identically, so this evaluates the objective without the
    double-precision cancellation the amplitude-level route incurs.
    Equals ``analyze(mix).rtangle`` up to roundoff.
    """
    ana = analyze(mix)
    two_ab = 2.0 * abs(mix.a * mix.b)
    if two_ab == 0.0:
        return 0.0
    p, p0 = mix.p, ana.p0

    def member(pv: float) -> float:
        return two_ab * np.sqrt(_stable_modulus(ana.s, pv, None))

    if ana.branch == ZERO_BRANCH:
        if p0 > 0:
            return ((p0 - p) / p0) * member(0.0) + (p / p0) * member(p0)
        return member(0.0)
    return ((p - p0) / (1.0 - p0)) * member(1.0) + ((1.0 - p) / (1.0 - p0)) * member(p0)


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


def _family_tau_direct(mix: GhzWMixture, p: float, phi: float) -> float:
    """tau of the constructed family state via the d-invariants (test hook)."""
    return invariants(family_state(mix, p, phi)).tau


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

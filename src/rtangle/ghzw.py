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

Because the closed form reads only (A, D, p), it extends to every SLOCC
image of a mixture: :func:`orbit_analysis` finds the image of gW among the
tangle-free range states of a rank-2 density matrix and the image of gGHZ
beside it, reads their (A, D) and weight, and feeds the same core,
:func:`_closed_form`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quartic import eigen_factor, pair_quartic, zero_directions
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


# largest s = |D/A| for which family_sqrt_tau uses the factored form.  Its
# numerator grows like s^2 and overflows near s = 1e154; above s = 1e24 p0
# rounds to 1, and at every double p < 1 the term |A| p^2 is negligible
# beside |D| sqrt(p (1-p)^3), so the unfactored form cancels nothing there.
_S_FACTORED = 1e100


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


def _closed_form(ab: float, ratio: complex | None, p: float) -> MixtureAnalysis:
    """Branch point and residual tangle from |ab| = sqrt|A|, D/A and p.

    This is the closed form's one core: :func:`analyze` feeds it a
    mixture's parameters and :func:`orbit_analysis` the coefficients read
    off a density matrix.  ``ratio`` None (A = 0) is the degenerate-GHZ
    limit, s = 0 the degenerate-W one.  It returns no NaN: s overflows to
    inf where A is subnormal, and p0 = 1, its limit, is taken there.
    """
    if ratio is None:
        # gGHZ is a product state: the spectral ensemble is already
        # tangle-free, so the roof vanishes for every p.
        return MixtureAnalysis(s=float("inf"), tilde_phi=0.0, p0=1.0, rtangle=0.0,
                               branch=ZERO_BRANCH, limit_case="degenerate_ghz")
    s, tilde_phi = abs(ratio), cmath.phase(ratio)
    limit = "degenerate_w" if s == 0.0 else None
    u = s ** (2.0 / 3.0)
    p0 = u / (1.0 + u) if u < math.inf else 1.0
    if p <= p0:
        branch, rt = ZERO_BRANCH, 0.0
    else:
        branch, rt = LINEAR_BRANCH, 2.0 * ab * (p - p0) / (1.0 - p0)
    return MixtureAnalysis(s=s, tilde_phi=tilde_phi, p0=p0, rtangle=rt,
                           branch=branch, limit_case=limit)


def analyze(mix: GhzWMixture) -> MixtureAnalysis:
    """Branch point and residual tangle of rho(p).

    Degenerate parameter choices (``a b = 0`` or ``c d f = 0``) fall
    outside the closed form's stated hypothesis; they are returned as the
    corresponding limits and flagged via ``limit_case``.
    """
    ab, ratio = _det_core(mix)
    return _closed_form(ab, ratio, mix.p)


def _superposition(g: np.ndarray, w: np.ndarray, p: float, phi: float,
                   tilde_phi: float) -> np.ndarray:
    """sqrt(p) g - sqrt(1-p) e^{i(phi - phi~/3)} w, the family state's amplitudes."""
    w_coef = -np.sqrt(1.0 - p) * cmath.exp(1j * (phi - tilde_phi / 3.0))
    return np.sqrt(p) * g + w_coef * w


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
    return PureState(_superposition(mix.ghz_state().amp, mix.w_state().amp, p, phi, tilde_phi))


def family_sqrt_tau(mix: GhzWMixture, p: float, phi: float) -> float:
    """Closed-form sqrt(tau) of the family state,

        2 |ab| sqrt| p^2 - s sqrt(p (1-p)^3) e^{3 i phi} |.

    Evaluated through :func:`_stable_modulus` so that branch-point zeros
    come out exact.  Where s is undefined (the ``a^2 b = 0`` limit, A = 0)
    or above ``_S_FACTORED``, it is evaluated unfactored instead, as
    ``2 sqrt| |A| p^2 - |D| sqrt(p (1-p)^3) e^{3 i phi} |`` with
    ``A = a^2 b^2`` and ``D = 4 b c d f`` (at A = 0 such family states can
    carry tangle even though the mixture roof vanishes).
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"family_sqrt_tau: p = {p!r} outside [0, 1]")
    ab, ratio = _det_core(mix)
    if ratio is not None and abs(ratio) <= _S_FACTORED:
        return float(2.0 * ab * np.sqrt(_stable_modulus(abs(ratio), p, phi)))
    g = math.sqrt(p * (1.0 - p) ** 3)
    d_abs = 4.0 * abs(mix.b * mix.c * mix.d * mix.f)
    return 2.0 * math.sqrt(abs(ab * ab * p * p - d_abs * g * cmath.exp(3j * phi)))


def _members(p: float, ana: MixtureAnalysis) -> list[tuple[float, float, float]]:
    """(weight, p, phi) of each member of the optimal decomposition at p."""
    p0 = ana.p0
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
    ``(1-p)/(3(1-p0))``.  Zero-weight members are dropped.  The members are
    :func:`family_state`'s, from one reading of the core and of the gGHZ
    and gW amplitudes.
    """
    ana = analyze(mix)
    g, w = mix.ghz_state().amp, mix.w_state().amp
    return WeightedEnsemble(tuple(
        (wt, PureState(_superposition(g, w, pv, phi, ana.tilde_phi)))
        for wt, pv, phi in _members(mix.p, ana) if wt > 1e-15))


def optimal_objective(mix: GhzWMixture) -> float:
    """Weighted closed-form value of :func:`optimal_ensemble`.

    The ensemble members sit at phases that are exact multiples of
    2 pi / 3, where the phase term of the closed form vanishes
    identically, so this evaluates the objective without the
    double-precision cancellation the amplitude-level route incurs.
    Equals ``analyze(mix).rtangle`` up to roundoff.
    """
    return float(sum(w * family_sqrt_tau(mix, pv, phi)
                     for w, pv, phi in _members(mix.p, analyze(mix))))


# --------------------------------------------------------------------------
# SLOCC images of the mixtures, recognized from the density matrix alone

# largest |q_0|, |q_2|, |q_3| of a root frame's quartic, relative to its
# largest coefficient, up to which the frame counts as a GHZ/W frame: SLOCC
# images of the mixtures leave below 1e-12, random rank-2 states above 0.1
_ORBIT_TOL = 1e-10
# largest |D/A| of the unit frame read as D = 0: the rounding of D/A on a
# degenerate-W image (about 5e-17), and no more, since t_r moves by about
# 2 sqrt|A| (1 - p) |D/A|^(2/3) where a true D is read as 0
_D_ROUNDING = 1e-15


@dataclass(frozen=True, eq=False)
class OrbitAnalysis:
    """A rank-2 rho recognized as an SLOCC image of a GHZ/W mixture.

    rho = p |g><g| + (1 - p) |w><w| with unit range vectors g and w, in
    general not orthogonal, whose superpositions have the two-term
    hyperdeterminant Det(x g + y w) = A x^4 + D x y^3: up to norm and
    phase, the images of gGHZ and gW.  ``analysis`` is the closed form with
    2|ab| -> 2 sqrt|A| and D/A in place of the mixture's, and its
    ``rtangle`` is the residual tangle of rho.
    """

    g: np.ndarray
    w: np.ndarray
    p: float
    A: complex
    D: complex
    analysis: MixtureAnalysis

    def rows(self) -> np.ndarray:
        """Sub-normalized members of the optimal decomposition, (4, 8).

        They are the members of :func:`optimal_ensemble`, with (g, w) in
        place of (gGHZ, gW) and the weights folded in; they mix back to rho,
        and their weighted sqrt-tau is ``analysis.rtangle``.
        """
        tilde_phi = self.analysis.tilde_phi
        return np.array([np.sqrt(wt) * _superposition(self.g, self.w, pv, phi, tilde_phi)
                         for wt, pv, phi in _members(self.p, self.analysis)])


def range_orbit(B: np.ndarray, dirs: np.ndarray) -> OrbitAnalysis | None:
    """:func:`orbit_analysis` of the rank-2 rho = B^T conj(B), given the
    roots ``dirs`` of :func:`quartic.zero_directions`, unit rows of U.

    A root d is a tangle-free range state w = d B.  With d' orthogonal to d
    in C^2 and g = d' B, rho = g g^H + w w^H, and Det(x g + y w) =
    sum_k q_k x^k y^(4-k) has q_0 = Det(w) = 0.  The frames of this root
    whose quartic has no x^2 y^2 term are g + t w with t = -q_2 / (3 q_1),
    and rho is diagonal in such a frame only at t = 0.  So rho is a GHZ/W
    image in the frame of d exactly when q_0, q_2 and q_3 vanish, which is
    tested to ``_ORBIT_TOL`` of the largest q_k; every root's quartic is
    read in one call.  At most one root can pass; if none or more than one
    does, this returns None.

    The frame's A and D are read off the unit g and w, where D/A is the
    mixture's, and D is taken as 0 where |D| <= ``_D_ROUNDING`` |A|.  On the
    quartic of g and w themselves q_1 / q_4 = (|w| / |g|)^3 D / A, so a test
    of q_1 against the largest q_k would read every |D/A| below about 3e-3
    as 0 at a W weight |w|^2 of 1e-5.
    """
    # a multiple root at infinity is listed once per multiplicity
    roots = dirs[~np.tril((dirs[:, None] == dirs).all(-1), -1).any(-1)]
    G = np.stack((-np.conj(roots[:, 1]), np.conj(roots[:, 0])), axis=-1) @ B
    W = roots @ B
    q = pair_quartic(G, W)
    scale = np.abs(q).max(-1)
    found = np.flatnonzero((scale > 0.0) & (np.abs(q[:, [0, 2, 3]]).max(-1) <= _ORBIT_TOL * scale))
    if len(found) != 1:
        return None
    g, w, q = G[found[0]], W[found[0]], q[found[0]]
    p = float(np.vdot(g, g).real)
    ng, nw = math.sqrt(p), math.sqrt(float(np.vdot(w, w).real))
    A, D = complex(q[4]) / ng ** 4, complex(q[1]) / (ng * nw ** 3)
    # D at rounding is D = 0: p0 = s^(2/3) / (1 + s^(2/3)) would turn its
    # rounding into p0 ~ 1e-11
    if abs(D) <= _D_ROUNDING * abs(A):
        D = 0.0
    ana = _closed_form(math.sqrt(abs(A)), None if A == 0 else D / A, p)
    return OrbitAnalysis(g=g / ng, w=w / nw, p=p, A=A, D=D, analysis=ana)


def orbit_analysis(rho: DensityMatrix) -> OrbitAnalysis | None:
    """Recognize rho as an SLOCC image of a GHZ/W mixture; None if it is not.

    An image (A x B x C) rho(p) (A x B x C)^H / N under invertible local
    operators has t_r = alpha t_r(rho(p)), alpha = |det A det B det C| / N
    (Lohmayer et al., PRL 97, 260502 (2006)).  This reads it from rho
    alone, with no (A, B, C) and no mixture parameters: the image of gW is
    a root of the hyperdeterminant on the range, and the image of gGHZ is
    fixed by it (see :func:`range_orbit`).  Only rank-2 inputs can be
    recognized.
    """
    B = eigen_factor(rho)
    return range_orbit(B, zero_directions(B)) if len(B) == 2 else None


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


# points of each grid of concavity_certificate
_CONCAVITY_GRID = 10001


def concavity_certificate(mix: GhzWMixture) -> ConcavityReport:
    """Check the two ingredients of the branch argument on a grid.

    The quartic ``-4p^4 + 20p^3 - 3p^2 - 2p + 1`` (which controls the sign
    of the second derivative of the family value at phi = 0) must be
    positive on [0, 1], and the sampled second difference of
    ``family_sqrt_tau(., 0)`` on [p0, 1] must be <= 1e-8; each grid has
    ``_CONCAVITY_GRID`` points.
    """
    ps = np.linspace(0.0, 1.0, _CONCAVITY_GRID)
    q = -4.0 * ps ** 4 + 20.0 * ps ** 3 - 3.0 * ps ** 2 - 2.0 * ps + 1.0
    k = int(np.argmin(q))
    p0 = analyze(mix).p0
    grid = np.linspace(p0, 1.0, _CONCAVITY_GRID)
    vals = np.array([family_sqrt_tau(mix, float(p), 0.0) for p in grid])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    sd_max = float(second.max())
    return ConcavityReport(
        quartic_min=float(q[k]),
        quartic_argmin=float(ps[k]),
        quartic_positive=bool(q[k] > 0.0),
        second_difference_max=sd_max,
        concave_on_linear_branch=bool(sd_max <= 1e-8),
    )


_GHZ_SUPPORT = (0, 7)
_W_SUPPORT = (1, 2, 4)


def as_mixture(e: WeightedEnsemble) -> GhzWMixture | None:
    """Recognize a two-member {gGHZ, gW} ensemble; None if it is not one.

    A member is gGHZ (gW) when its amplitudes off that support sum to at
    most 1e-12 in modulus.  Useful after a diagonal measurement, which
    preserves the family form.
    """
    ghz = w = None
    p = 0.0
    for weight, psi in e.members:
        off_ghz = sum(abs(psi.amp[k]) for k in range(8) if k not in _GHZ_SUPPORT)
        off_w = sum(abs(psi.amp[k]) for k in range(8) if k not in _W_SUPPORT)
        if off_ghz <= 1e-12 and ghz is None:
            ghz, p = psi, weight
        elif off_w <= 1e-12 and w is None:
            w = psi
        else:
            return None
    if ghz is None or w is None:
        return None
    return GhzWMixture(a=complex(ghz.amp[0]), b=complex(ghz.amp[7]),
                       c=complex(w.amp[1]), d=complex(w.amp[2]), f=complex(w.amp[4]),
                       p=p)

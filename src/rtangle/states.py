"""Value types for three-qubit states and single-qubit operators.

Conventions used throughout the package:

* A pure state is a vector of 8 complex amplitudes indexed by the binary
  string ``pqr`` in ascending binary order, with qubit A the most
  significant bit (``amp[0] = C_000``, ``amp[1] = C_001``, ...,
  ``amp[7] = C_111``).
* All types are immutable values; every operation here is a pure function
  and safe to call concurrently.
* States that differ only by a global phase are considered equal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUBITS = ("A", "B", "C")

NORM_TOL = 1e-9            # normalization tolerance at API boundaries
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
EIG_CUTOFF = 1e-12         # eigenvalues at or below this are outside the range
ANNIHILATION_EPS = 1e-30   # squared norm below which a state counts as annihilated


class ValidationError(ValueError):
    """An input violates a documented invariant of a value type."""


def _complex_array(data, shape, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what}: amplitudes must be finite (no NaN/Inf)")
    arr = arr.copy()  # private, C-contiguous
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Three-qubit pure state given by 8 complex amplitudes.

    ``normalized=False`` marks an intermediate unnormalized vector (for
    example the raw result of applying a measurement operator).
    """

    amp: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = _complex_array(self.amp, (8,), "PureState")
        object.__setattr__(self, "amp", arr)
        if self.normalized:
            n = self.norm_sq()
            if abs(n - 1.0) > NORM_TOL:
                raise ValidationError(
                    f"PureState: squared norm {n!r} differs from 1 by more than {NORM_TOL}"
                )

    @classmethod
    def from_amplitudes(cls, amplitudes, renormalize: bool = False) -> "PureState":
        arr = _complex_array(amplitudes, (8,), "PureState")
        if renormalize:
            n = float(np.vdot(arr, arr).real)
            if n < ANNIHILATION_EPS:
                raise ValidationError("PureState: cannot renormalize a (near-)zero vector")
            arr = arr / np.sqrt(n)
        return cls(arr)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amp, self.amp).real)

    def unit(self) -> "PureState":
        """Normalized copy of this state."""
        if self.normalized:
            return self
        n = self.norm_sq()
        if n < ANNIHILATION_EPS:
            raise ValidationError("PureState: cannot normalize an annihilated state")
        return PureState(self.amp / np.sqrt(n))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amp, other.amp))

    def equal_up_to_phase(self, other: "PureState") -> bool:
        """Equality modulo a global phase (both states normalized): |<psi|phi>|
        within 1e-10 of 1."""
        return abs(abs(self.overlap(other)) - 1.0) <= 1e-10

    def projector(self) -> np.ndarray:
        return np.outer(self.amp, self.amp.conj())


@dataclass(frozen=True)
class WeightedEnsemble:
    """Pure-state decomposition {(q_i, |psi_i>)} of a mixed state."""

    members: tuple

    def __post_init__(self):
        members = tuple((float(w), psi) for w, psi in self.members)
        if not members:
            raise ValidationError("WeightedEnsemble: at least one member required")
        total = 0.0
        for k, (w, psi) in enumerate(members):
            if not np.isfinite(w) or w < -NORM_TOL:
                raise ValidationError(f"WeightedEnsemble: member {k} has invalid weight {w!r}")
            if not isinstance(psi, PureState):
                raise ValidationError(f"WeightedEnsemble: member {k} is not a PureState")
            if not psi.normalized or abs(psi.norm_sq() - 1.0) > NORM_TOL:
                raise ValidationError(f"WeightedEnsemble: member {k} state is not normalized")
            total += w
        if abs(total - 1.0) > NORM_TOL:
            raise ValidationError(
                f"WeightedEnsemble: weights sum to {total!r}, expected 1 within {NORM_TOL}"
            )
        object.__setattr__(self, "members", members)

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.members])

    def states(self) -> list:
        return [psi for _, psi in self.members]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DensityMatrix:
    """8x8 Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_array(self.matrix, (8, 8), "DensityMatrix")
        dev = np.abs(mat - mat.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"DensityMatrix: not Hermitian (max deviation {dev:.3e})")
        tr = mat.trace()
        if abs(tr - 1.0) > NORM_TOL:
            raise ValidationError(f"DensityMatrix: trace {tr!r} differs from 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -PSD_TOL:
            raise ValidationError(f"DensityMatrix: negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", mat)


def _expansion(k: int) -> tuple:
    """Row bit, column bit and identity factors of qubit k's 8x8 expansion."""
    bits = np.arange(8)
    bit = (bits >> (2 - k)) & 1
    agree = [(((bits[:, None] ^ bits[None, :]) >> (2 - j)) & 1 == 0).astype(np.complex128)
             for j in range(3) if j != k]
    # np.kron(np.kron(f1, f2), f3) multiplies m by the identities after it one
    # at a time, but multiplies the two identities before it together first
    factors = (agree[0] * agree[1],) if k == 2 else tuple(agree)
    return bit[:, None], bit[None, :], factors


_EXPANSION = {q: _expansion(k) for k, q in enumerate(QUBITS)}


@dataclass(frozen=True)
class LocalOperator:
    """2x2 operator acting on one named qubit of a three-qubit state."""

    m: np.ndarray
    target: str = "A"

    def __post_init__(self):
        mat = _complex_array(self.m, (2, 2), "LocalOperator")
        object.__setattr__(self, "m", mat)
        if self.target not in QUBITS:
            raise ValidationError(f"LocalOperator: target must be one of {QUBITS}")

    def expanded(self) -> np.ndarray:
        """The operator as an 8x8 matrix on the full three-qubit space.

        Entry (i, j) is ``m[i_k, j_k]``, with i_k and j_k the target qubit's
        bits of i and j, where the other two bits of i and j agree, and zero
        elsewhere.  A table built once per qubit holds the row bit, the
        column bit and, for each other qubit, whether its bits agree, as a
        complex 0/1 factor.  The matrix is one gather of ``m`` and one or
        two products with those factors, taken in the order in which
        ``np.kron`` takes them, so it equals the Kronecker product
        bit for bit, signed zeros included.
        """
        rows, cols, factors = _EXPANSION[self.target]
        full = self.m[rows, cols]
        for f in factors:
            full *= f
        return full

    def det_abs(self) -> float:
        """|det M|, which equals sqrt(det M^dag M) for a 2x2 operator."""
        return abs(complex(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0]))


@dataclass(frozen=True)
class MeasurementSet:
    """Kraus operators {M_j} of a generalized measurement on one qubit.

    Completeness (sum of M^dag M equal to the identity) is *not* enforced
    at construction so that defective sets can be built and diagnosed;
    use :func:`validate_measurement` or let :func:`rtangle.slocc.measure`
    reject incomplete sets.
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValidationError("MeasurementSet: at least one operator required")
        if not all(isinstance(op, LocalOperator) for op in ops):
            raise ValidationError("MeasurementSet: entries must be LocalOperator")
        targets = {op.target for op in ops}
        if len(targets) != 1:
            raise ValidationError(f"MeasurementSet: operators target different qubits {targets}")
        object.__setattr__(self, "operators", ops)

    @property
    def target(self) -> str:
        return self.operators[0].target

    def completeness_deviation(self) -> float:
        total = sum(op.m.conj().T @ op.m for op in self.operators)
        return float(np.abs(total - np.eye(2)).max())


@dataclass(frozen=True)
class MeasurementReport:
    deviation: float
    passed: bool


def validate_measurement(ms: MeasurementSet) -> MeasurementReport:
    """Report how far sum_j M_j^dag M_j is from the identity (pass at 1e-9)."""
    dev = ms.completeness_deviation()
    return MeasurementReport(deviation=dev, passed=dev <= NORM_TOL)


def ensemble_to_density(e: WeightedEnsemble) -> DensityMatrix:
    """Mix an ensemble into its density matrix sum_i q_i |psi_i><psi_i|."""
    rho = np.zeros((8, 8), dtype=np.complex128)
    for w, psi in e.members:
        rho += w * psi.projector()
    return DensityMatrix(rho)


def spectrum(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of rho above ``EIG_CUTOFF``, ascending, and their unit
    eigenvectors as the columns of an 8 x rank array."""
    lam, vec = np.linalg.eigh(rho.matrix)
    keep = lam > EIG_CUTOFF
    return lam[keep], vec[:, keep]


def density_eigendecomposition(rho: DensityMatrix) -> WeightedEnsemble:
    """Spectral ensemble of a density matrix: its eigenvalues above
    ``EIG_CUTOFF``, largest first, with their eigenvectors."""
    lam, vec = spectrum(rho)
    return WeightedEnsemble(tuple((float(lam[k]), PureState(vec[:, k]))
                                  for k in range(len(lam) - 1, -1, -1)))


def apply_local(op: LocalOperator, psi: PureState):
    """Apply a single-qubit operator; return (M|psi> unnormalized, <psi|M^dag M|psi>).

    The normalized post-state is ``M|psi> / sqrt(norm_sq)``.  A ``norm_sq``
    below ``ANNIHILATION_EPS`` means the operator annihilated the state and
    no post-state exists; the caller decides how to handle that.
    """
    out = op.expanded() @ psi.amp
    norm_sq = float(np.vdot(out, out).real)
    return PureState(out, normalized=False), norm_sq


def permute_qubits(psi: PureState, order: tuple) -> PureState:
    """Relabel qubits: ``order`` gives the source qubit placed at each position.

    ``order=(0, 1, 2)`` is the identity; ``order=(1, 0, 2)`` swaps A and B.
    """
    if sorted(order) != [0, 1, 2]:
        raise ValidationError(f"permute_qubits: {order!r} is not a permutation of (0, 1, 2)")
    tensor = psi.amp.reshape(2, 2, 2).transpose(order)
    return PureState(np.ascontiguousarray(tensor.reshape(8)), normalized=psi.normalized)

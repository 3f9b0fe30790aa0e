"""Dense state-vector core for small registers of polarization qubits.

Basis convention: |H> = 0, |V> = 1, qubit 0 is the most significant bit of
the amplitude index.  All values are immutable after construction; every
operation returns a fresh object.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections.abc import Mapping, Set
from dataclasses import dataclass

import numpy as np

# Tolerance for exact algebraic identities (unitarity, idempotence, norms).
ATOL = 1e-12

_SQRT2 = math.sqrt(2.0)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / _SQRT2
KET_A = np.array([1.0, -1.0], dtype=complex) / _SQRT2
KET_R = np.array([1.0, -1.0j], dtype=complex) / _SQRT2
KET_L = np.array([1.0, 1.0j], dtype=complex) / _SQRT2


# complex numbers, numpy's included, which no input rule converts to float
_COMPLEX = (complex, np.complexfloating)


# The package's input rules, each raising a ValueError that starts with the argument's name:
# ``_finite`` and ``_unit_interval`` check each scalar, ``_numbers`` each array (``_finite_grid``
# each grid of finite floats), ``_qubits`` each sequence of qubit indices, ``_instance`` each
# object and ``_probabilities`` each distribution.  Text is never a number, though ``float``,
# ``complex`` and numpy would parse it.
def _finite(name: str, value, kind: str = "angle") -> float:
    """``float(value)`` if it is a finite real number; else a ValueError that names ``name``."""
    try:  # math.isfinite rejects a str or None, and overflows on an int too large
        if not isinstance(value, _COMPLEX) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be a finite {kind}, got {value!r}")


def _unit_interval(name: str, value):
    """``value`` if it is a real number in [0, 1]; else a ValueError that names ``name``."""
    try:  # an array with an axis, or of complex dtype, is no number; a list fails the comparison
        if (not isinstance(value, _COMPLEX) and getattr(value, "ndim", 0) == 0
                and getattr(getattr(value, "dtype", None), "kind", "") != "c"
                and 0.0 <= value <= 1.0):
            return value
    except (TypeError, ValueError):  # a str or None
        pass
    raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _entry(value, dtype):
    """``dtype(value)``; a TypeError for text, and for a complex number read as a float."""
    if isinstance(value, (str, bytes)) or dtype is float and isinstance(value, _COMPLEX):
        raise TypeError(f"not a number: {value!r}")
    return dtype(value)


def _numbers(name: str, values, kind: str, dtype=float) -> np.ndarray:
    """``values`` as a ``dtype`` array of any shape; else a ValueError that starts with ``name``.

    numpy infers the dtype of an array, or of the tuple of any other
    iterable: bool, int and float (and complex, for a complex ``dtype``)
    are cast whole, and an object array one entry at a time.  Text, whole,
    as an entry or as an array, is refused, and so is complex for a float.
    A set or a mapping is refused too: it has no order of its own, and a
    mapping would be read as its keys.
    """
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError(f"not a number: {values!r}")
        if isinstance(values, (Set, Mapping)):
            raise TypeError(f"not a sequence: {reprlib.repr(values)}")
        array = np.asarray(values if isinstance(values, np.ndarray) else tuple(values))
        if array.dtype.kind not in ("fiubc" if dtype is complex else "fiub"):
            if array.dtype != object:  # text, complex, dates
                raise TypeError(f"not numbers: {reprlib.repr(values)}")
            array = np.array([_entry(v, dtype) for v in array.flat], dtype).reshape(array.shape)
        return array.astype(dtype, copy=False)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} must hold finite {kind} only") from None
    except (TypeError, ValueError) as exc:  # also a ragged nesting
        raise ValueError(f"{name} must be a sequence of {kind}: {exc}") from None


def _finite_grid(name: str, values, kind: str = "angles", width: int = 0) -> np.ndarray:
    """``values`` as a nonempty 1-D array of finite floats, or with ``width`` an (n, width)
    one; else a ValueError that starts with ``name``."""
    grid = _numbers(name, values, kind)
    if grid.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if grid.ndim == 0 or grid.shape[1:] != ((width,) if width else ()):
        raise ValueError(f"{name} must be a sequence of {kind}, got shape {grid.shape}" if width
                         else f"{name} must be one-dimensional, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} must hold finite {kind} only")
    return grid


def _probabilities(name: str, values, slack=0.0, sum_tol=1e-9) -> list:
    """``values`` as one probability distribution; else a ValueError that starts with ``name``.

    Fractions and ints come back as Fractions of Python ints (numpy ones
    cannot hash), in [0, 1] and summing to 1 exactly.  Other real numbers
    come back as floats: finite, within ``slack`` of [0, 1] and clamped into
    it, and summing to 1 within ``sum_tol`` with only their negatives clamped.
    """
    from fractions import Fraction  # here, not at import: most commands never read a Fraction

    exact = all(isinstance(v, (Fraction, int)) for v in values)
    if not (exact or all(isinstance(v, numbers.Real) for v in values)):  # a str, None or complex
        raise ValueError(f"{name} must be real numbers, got {reprlib.repr(values)}")
    try:  # float overflows on an int too large for it
        probs = [Fraction(int(v.numerator), int(v.denominator)) if exact else float(v) for v in values]
        if not (exact or all(map(math.isfinite, probs))):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {reprlib.repr(values)}") from None
    slack = 0 if exact else slack
    if not all(-slack <= p <= 1 + slack for p in probs):
        raise ValueError(f"{name} must lie in [0, 1], got {reprlib.repr(values)}")
    if not exact:
        probs = [max(0.0, p) for p in probs]
    total = sum(probs)
    if not (total == 1 if exact else abs(total - 1.0) <= sum_tol):
        within = "" if exact else f" within {sum_tol:g}"
        raise ValueError(f"{name} must sum to 1{within}, got {total}")
    return probs if exact else [min(p, 1.0) for p in probs]


def _qubits(name: str, values, num_qubits: int, distinct: bool = True) -> tuple:
    """``values`` as a tuple of int qubit indices below ``num_qubits``, each once if
    ``distinct``; else a ValueError that starts with ``name``."""
    try:  # text is no index, and bytes would iterate as ints
        indices = (None,) if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:  # not iterable
        indices = (None,)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in indices):
        must = "a sequence of qubit indices"
    elif not all(0 <= i < num_qubits for i in indices):
        must = f"qubit indices below {num_qubits}"
    elif distinct and len(set(indices)) != len(indices):
        must = "distinct qubit indices"
    else:
        return tuple(map(int, indices))
    raise ValueError(f"{name} must be {must}, got {reprlib.repr(values)}")


def _instance(name: str, value, cls):
    """``value`` if it is a ``cls``; else a ValueError that names ``name``."""
    if isinstance(value, cls):
        return value
    raise ValueError(f"{name} must be of type {cls.__name__}, got {reprlib.repr(value)}")


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


_SIZES = (2, 4, 8, 16)  # one to four qubits


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of one to four qubits, sized by its amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numbers("amplitudes", self.amplitudes, "numbers", complex).reshape(-1)
        if amps.size not in _SIZES:
            raise ValueError(f"amplitude length {amps.size} is not 2^n for n in 1..4")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= 1e-8:  # NaN fails too
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
        object.__setattr__(self, "amplitudes", _frozen_array(amps))

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2; the global-phase-free comparison."""
        if self.num_qubits != _instance("other", other, StateVector).num_qubits:
            raise ValueError("fidelity requires equal register sizes")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


class _Operator:
    """A square operator whose size is read from its matrix."""

    @staticmethod
    def _square(matrix, sizes) -> np.ndarray:
        """``matrix`` as a complex array of shape (d, d) with d in ``sizes``."""
        mat = _numbers("matrix", matrix, "numbers", complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or len(mat) not in sizes:
            raise ValueError(f"matrix shape {mat.shape} is not d x d for d in {sizes}")
        return mat

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1


@dataclass(frozen=True)
class GateOp(_Operator):
    """Unitary acting on one or two qubits; its size comes from the matrix."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        mat = self._square(self.matrix, (2, 4))
        dev = np.max(np.abs(mat @ mat.conj().T - np.eye(len(mat))))
        if not dev <= ATOL:
            raise ValueError(f"matrix is not unitary ({self.label!r}): |UU+ - I| = {dev}")
        object.__setattr__(self, "matrix", _frozen_array(mat))


@dataclass(frozen=True)
class Projector(_Operator):
    """Hermitian idempotent operator on one to four qubits; sized by its matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = self._square(self.matrix, _SIZES)
        if not np.max(np.abs(mat - mat.conj().T)) <= ATOL:
            raise ValueError("projector is not Hermitian")
        if not np.max(np.abs(mat @ mat - mat)) <= ATOL:
            raise ValueError("projector is not idempotent")
        object.__setattr__(self, "matrix", _frozen_array(mat))


def _unit_ket(ket) -> np.ndarray:
    """``ket`` as a complex vector divided by its ``np.linalg.norm``."""
    vec = np.asarray(ket, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if not 1e-12 <= norm < math.inf:
        raise ValueError("cannot project onto a zero or non-finite vector")
    return vec / norm


def _apply_matrix(amplitudes: np.ndarray, num_qubits: int, matrix: np.ndarray,
                  targets: tuple) -> np.ndarray:
    """Apply a (possibly non-unitary) operator on the target qubits.

    ``targets`` are distinct qubit indices below ``num_qubits``, as
    ``_qubits`` returns them, and are not checked again here.  The matrix
    rows/columns are ordered with ``targets[0]`` as the most significant
    target bit.  ``amplitudes`` may be a stack (..., 2**n) and
    ``matrix`` a stack (..., 2**k, 2**k); the stacks broadcast, and each
    state in them sees the same matmul, on the same memory layout, as it
    would alone.
    """
    k = len(targets)
    if matrix.shape[-2:] != (2**k, 2**k):
        raise ValueError(f"operator dimension {matrix.shape[-1]} does not match {k} target(s)")
    order = list(targets) + [i for i in range(num_qubits) if i not in targets]
    stack = amplitudes.shape[:-1]  # leading axes, left in place
    psi = amplitudes.reshape(stack + (2,) * num_qubits)
    psi = np.transpose(psi, _behind(len(stack), order))
    psi = matrix @ psi.reshape(stack + (2**k, -1))
    stack = psi.shape[:-2]  # a stack of matrices may add axes
    psi = psi.reshape(stack + (2,) * num_qubits)
    psi = np.transpose(psi, _behind(len(stack), np.argsort(order)))
    return psi.reshape(stack + (-1,))


def _behind(lead: int, axes):
    """``axes`` shifted past ``lead`` untouched leading axes."""
    return [*range(lead), *(lead + int(a) for a in axes)] if lead else axes


def apply_gate(state: StateVector, gate: GateOp, targets) -> StateVector:
    """Apply a unitary gate to the given ordered target qubits."""
    n = _instance("state", state, StateVector).num_qubits
    matrix = _instance("gate", gate, GateOp).matrix
    amps = _apply_matrix(state.amplitudes, n, matrix, _qubits("targets", targets, n))
    return StateVector(amps)


def waveplate(kind: str, angle: float) -> GateOp:
    """Jones matrix of a half- or quarter-wave plate at the given angle.

    half(t)    = [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    quarter(0) = diag(1, i), rotated by conjugation for t != 0.
    """
    angle = _finite("angle", angle, "number")
    if kind == "half":
        c, s = math.cos(2 * angle), math.sin(2 * angle)
        mat = np.array([[c, s], [s, -c]], dtype=complex)
    elif kind == "quarter":
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)],
             [math.sin(angle), math.cos(angle)]]
        )
        mat = rot @ np.diag([1.0, 1.0j]) @ rot.T
    else:
        raise ValueError(f"unknown waveplate kind {kind!r}")
    return GateOp(mat, label=f"{kind}({angle:.6g})")


def phase_shifter(phi: float) -> GateOp:
    """diag(1, e^{i phi}) on {|H>, |V>}."""
    phi = _finite("phi", phi)
    return GateOp(np.diag([1.0, np.exp(1j * phi)]), label=f"phase({phi:.6g})")


def hadamard() -> GateOp:
    return GateOp(np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2, label="H")


def w_gate() -> GateOp:
    """Rotation by pi/8; conjugates Z into the Hadamard."""
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    return GateOp(np.array([[c, -s], [s, c]], dtype=complex), label="W")


def cz_gate() -> GateOp:
    return GateOp(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), label="CZ")


def controlled_hadamard() -> GateOp:
    """Hadamard on the target iff the control is |V>; qubit order (control, target)."""
    mat = np.eye(4, dtype=complex)
    mat[2:, 2:] = hadamard().matrix
    return GateOp(mat, label="CH")


_BELL_KETS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
}


def bell_ket(label: str) -> np.ndarray:
    """Raw amplitude array of the named Bell state."""
    try:
        return _BELL_KETS[label].copy()
    except (KeyError, TypeError):  # a TypeError for an unhashable label
        raise ValueError(f"unknown Bell state label {label!r}") from None


def bell_state(label: str) -> StateVector:
    """Two-qubit Bell state: psi+- = (|HV> +- |VH>)/sqrt2, phi+- = (|HH> +- |VV>)/sqrt2."""
    return StateVector(bell_ket(label))


def outcome_probability(state: StateVector, projector: Projector, targets) -> float:
    """Born-rule probability <psi|P|psi> for a projector on the target qubits."""
    n = _instance("state", state, StateVector).num_qubits
    matrix = _instance("projector", projector, Projector).matrix
    projected = _apply_matrix(state.amplitudes, n, matrix, _qubits("targets", targets, n))
    prob = float(np.real(np.vdot(state.amplitudes, projected)))
    if not -ATOL <= prob <= 1.0 + ATOL:
        raise ValueError(f"probability {prob} outside [0, 1]")
    return min(max(prob, 0.0), 1.0)


def schmidt_coefficients(state: StateVector, partition) -> np.ndarray:
    """Singular values of the bipartition (partition | rest), descending."""
    n = _instance("state", state, StateVector).num_qubits
    part = tuple(sorted(set(_qubits("partition", partition, n, distinct=False))))
    if not part or len(part) >= n:
        raise ValueError(f"partition {partition} must be a nonempty proper subset")
    rest = [q for q in range(n) if q not in part]
    psi = state.amplitudes.reshape([2] * n)
    psi = np.transpose(psi, list(part) + rest).reshape(2 ** len(part), -1)
    return np.linalg.svd(psi, compute_uv=False)

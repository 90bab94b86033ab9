"""Scalar algebra: quaternions, dual numbers, and dual quaternions.

Quaternion components are ordered (w, x, y, z) over the basis (1, i, j, k).
A dual quaternion is ``s + d*eps`` with quaternion parts ``s`` (standard) and
``d`` (dual), where the infinitesimal unit satisfies ``eps != 0``,
``eps**2 == 0``.  All types here are immutable values; every operation is
pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for the unit dual quaternion validation (on |s| - 1 and on the
# scalar 2*Re(s * conj(d)) relative to the 8-component norm |w|); two orders
# looser than the accumulation noise observed for chains of ~500 products.
UNIT_TOL = 1e-9

# Standard parts with norm below this floor are treated as zero when
# inverting; inverses of such values are numerically meaningless.
APPRECIABLE_TOL = 1e-12


class NotAppreciableError(ValueError):
    """Raised when inverting a dual quaternion with (near-)zero standard part."""


class NotUnitError(ValueError):
    """Raised when a value fails unit validation."""


class NotPureError(ValueError):
    """Raised when a translation quaternion has a nonzero scalar part."""


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k``."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """Hamilton product (or scaling by a real number)."""
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def dot(self, other: "Quaternion") -> float:
        """Euclidean inner product of the component vectors; equals Re(self * conj(other))."""
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def inverse(self) -> "Quaternion":
        n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        if n2 < APPRECIABLE_TOL ** 2:
            raise NotAppreciableError("cannot invert a (near-)zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def is_zero(self) -> bool:
        return self.w == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)

    @classmethod
    def from_real(cls, r: float) -> "Quaternion":
        return cls(float(r), 0.0, 0.0, 0.0)


Q_ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
Q_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
Q_I = Quaternion(0.0, 1.0, 0.0, 0.0)
Q_J = Quaternion(0.0, 0.0, 1.0, 0.0)
Q_K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class DualNumber:
    """A dual number ``s + d*eps`` with real parts and nilpotent eps."""

    s: float
    d: float

    def __add__(self, other: "DualNumber") -> "DualNumber":
        return DualNumber(self.s + other.s, self.d + other.d)

    def __sub__(self, other: "DualNumber") -> "DualNumber":
        return DualNumber(self.s - other.s, self.d - other.d)

    def __mul__(self, other):
        if isinstance(other, DualNumber):
            return DualNumber(self.s * other.s, self.s * other.d + self.d * other.s)
        if isinstance(other, (int, float)):
            return DualNumber(self.s * other, self.d * other)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True, slots=True, eq=False)
class DualQuaternion:
    """A dual quaternion ``s + d*eps`` with quaternion parts.

    Equality is by value across the whole hierarchy, so a validated unit
    compares equal to a plain dual quaternion with the same components.
    """

    s: Quaternion
    d: Quaternion

    def __eq__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return self.s == other.s and self.d == other.d

    def __hash__(self):
        return hash((self.s, self.d))

    def __add__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.s + other.s, self.d + other.d)

    def __sub__(self, other: "DualQuaternion") -> "DualQuaternion":
        return DualQuaternion(self.s - other.s, self.d - other.d)

    def __neg__(self) -> "DualQuaternion":
        return DualQuaternion(-self.s, -self.d)

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            # eps**2 == 0 kills the d*d term.
            return DualQuaternion(self.s * other.s,
                                  self.s * other.d + self.d * other.s)
        if isinstance(other, (int, float)):
            return DualQuaternion(self.s * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "DualQuaternion":
        return DualQuaternion(self.s.conjugate(), self.d.conjugate())

    def magnitude(self) -> DualNumber:
        """Magnitude as a dual number.

        For an appreciable value this is ``|s| + Re(s*conj(d))/|s| * eps``;
        when the standard part vanishes it degenerates to ``|d|*eps``.
        """
        if self.s.is_zero():
            return DualNumber(0.0, self.d.norm())
        ns = self.s.norm()
        # s*conj(d) + d*conj(s) is the real scalar 2*dot(s, d).
        return DualNumber(ns, self.s.dot(self.d) / ns)

    def is_appreciable(self, tol: float = APPRECIABLE_TOL) -> bool:
        return self.s.norm() > tol

    def inverse(self) -> "DualQuaternion":
        """Multiplicative inverse; only appreciable values are invertible."""
        if not self.is_appreciable():
            raise NotAppreciableError("dual quaternion has no appreciable part")
        si = self.s.inverse()
        return DualQuaternion(si, -1.0 * (si * self.d * si))

    def unit_defect(self) -> tuple[float, float]:
        """Deviations from the unit conditions: | |s| - 1 |, and |2*Re(s*conj(d))|
        relative to the 8-component norm |w|, since its rounding grows with |d|."""
        ns = self.s.norm()
        norm = math.hypot(ns, self.d.norm()) or 1.0
        return abs(ns - 1.0), abs(2.0 * self.s.dot(self.d)) / norm

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        a, b = self.unit_defect()
        return a <= tol and b <= tol

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.s.to_array(), self.d.to_array()])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.to_array(), dtype=dtype)

    @classmethod
    def from_array(cls, a) -> "DualQuaternion":
        a = np.asarray(a, dtype=np.float64)
        return cls(Quaternion.from_array(a[:4]), Quaternion.from_array(a[4:8]))

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "DualQuaternion":
        return cls(q, Q_ZERO)

    @classmethod
    def from_real(cls, r: float) -> "DualQuaternion":
        return cls(Quaternion.from_real(r), Q_ZERO)


@dataclass(frozen=True, slots=True, eq=False)
class UnitDualQuaternion(DualQuaternion):
    """A dual quaternion validated to have magnitude one.

    Closed under multiplication and conjugation; the inverse of a unit is
    its conjugate.
    """

    def __post_init__(self):
        a, b = self.unit_defect()
        if a > UNIT_TOL or b > UNIT_TOL:
            raise NotUnitError(
                f"unit validation failed: | |s|-1 | = {a:.3g}, |2 Re(s d*)| / |w| = {b:.3g}")

    def __mul__(self, other):
        prod = DualQuaternion.__mul__(self, other)
        if isinstance(other, UnitDualQuaternion):
            return UnitDualQuaternion(prod.s, prod.d)
        return prod

    def conjugate(self) -> "UnitDualQuaternion":
        return UnitDualQuaternion(self.s.conjugate(), self.d.conjugate())

    def inverse(self) -> "UnitDualQuaternion":
        return self.conjugate()


def udq_from_motion(rotation: Quaternion, translation: Quaternion) -> UnitDualQuaternion:
    """Unit dual quaternion for a rigid motion: ``rotation + (eps/2) * rotation * translation``.

    Args:
        rotation: unit quaternion (the attitude).
        translation: pure quaternion ``[0, px, py, pz]`` (body-frame position).

    Raises:
        NotUnitError: rotation is not unit within tolerance.
        NotPureError: translation has a nonzero scalar part.
    """
    if abs(rotation.norm() - 1.0) > UNIT_TOL:
        raise NotUnitError(f"rotation norm {rotation.norm():.12g} != 1")
    if abs(translation.w) > UNIT_TOL:
        raise NotPureError(f"translation scalar part {translation.w:.12g} != 0")
    return UnitDualQuaternion(rotation, 0.5 * (rotation * translation))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_udq(seed) -> UnitDualQuaternion:
    """Random unit dual quaternion, deterministic per seed.

    The rotation is a normalized 4-component Gaussian sample and the
    translation a Gaussian pure quaternion, composed via `udq_from_motion`.
    `seed` may be an integer or a `numpy.random.Generator`.
    """
    rng = _as_rng(seed)
    r = rng.normal(size=4)
    r /= np.linalg.norm(r)
    t = rng.normal(size=3)
    return udq_from_motion(Quaternion.from_array(r),
                           Quaternion(0.0, t[0], t[1], t[2]))

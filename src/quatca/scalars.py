"""Exact quaternions over the rationals, centralizers, and linear solvers.

This is the one module that turns quaternion-linear problems into rational
matrices for `linalg`; every other module goes through `rational_solve`,
`rational_nullspace`, `solve_combination`, `first_dependence` or
`left_rank`.

Every value is immutable and every operation is a pure function, so values
may be shared freely between threads.  Rationals are `fractions.Fraction`
and are therefore always in lowest terms with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .errors import InvalidInput

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fmt_rat_coeff(r: Fraction, unit: str) -> str:
    mag = -r if r < 0 else r
    body = unit if (mag == 1 and unit) else f"{mag}{unit}"
    return body


class Quat:
    """A quaternion w + x*i + y*j + z*k with exact rational coordinates.

    The basis multiplication follows i*j = k, j*k = i, k*i = j and
    i^2 = j^2 = k^2 = -1.  Coordinates are kept in the fixed ordered basis
    (1, i, j, k) everywhere, including serialization.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        object.__setattr__(self, "w", w if isinstance(w, Fraction) else Fraction(w))
        object.__setattr__(self, "x", x if isinstance(x, Fraction) else Fraction(x))
        object.__setattr__(self, "y", y if isinstance(y, Fraction) else Fraction(y))
        object.__setattr__(self, "z", z if isinstance(z, Fraction) else Fraction(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quat is immutable")

    # -- structure ---------------------------------------------------------

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    @classmethod
    def from_coords(cls, coords: Sequence[Fraction]) -> "Quat":
        w, x, y, z = coords
        return cls(w, x, y, z)

    @classmethod
    def scalar(cls, r) -> "Quat":
        return cls(r, 0, 0, 0)

    def scalar_part(self) -> Fraction:
        return self.w

    def pure_part(self) -> "Quat":
        return Quat(0, self.x, self.y, self.z)

    def is_central(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def is_pure(self) -> bool:
        return self.w == 0

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def __eq__(self, other) -> bool:
        if isinstance(other, Quat):
            return (
                self.w == other.w
                and self.x == other.x
                and self.y == other.y
                and self.z == other.z
            )
        if isinstance(other, (int, Fraction)):
            return self.is_central() and self.w == other
        return NotImplemented

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quat(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quat(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quat(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quat(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, Quat):
            return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quat(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quat":
        return Quat(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> Fraction:
        """Reduced norm w^2 + x^2 + y^2 + z^2; zero iff the quaternion is zero."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quat":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quat(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def __pow__(self, exp: int) -> "Quat":
        if exp < 0:
            return self.inverse() ** (-exp)
        result = ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def commutes_with(self, other: "Quat") -> bool:
        return self * other == other * self

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for value, unit in zip(self.coords(), ("", "i", "j", "k")):
            if value == 0:
                continue
            body = _fmt_rat_coeff(value, unit)
            if not parts:
                parts.append(body if value > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if value > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Quat({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def _coerce(value) -> Quat | None:
    if isinstance(value, Quat):
        return value
    if isinstance(value, (int, Fraction)):
        return Quat.scalar(value)
    return None


ZERO = Quat(0)
ONE = Quat(1)
I = Quat(0, 1)
J = Quat(0, 0, 1)
K = Quat(0, 0, 0, 1)

BASIS = (ONE, I, J, K)


def commutator(a: Quat, b: Quat) -> Quat:
    """a*b - b*a."""
    return a * b - b * a


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------

FULL = "full"
QUADRATIC = "quadratic"
CENTER = "center"


class Centralizer:
    """Description of a centralizer subring of the rational quaternions.

    Exactly three shapes occur: the whole ring, a quadratic subfield
    generated over the rationals by a nonzero pure quaternion u, and the
    rational center.  `quadratic(u)` is the set {p + q*u : p, q rational}.
    """

    __slots__ = ("kind", "u")

    def __init__(self, kind: str, u: Quat | None = None):
        if kind not in (FULL, QUADRATIC, CENTER):
            raise InvalidInput(f"unknown centralizer kind {kind!r}")
        if kind == QUADRATIC:
            if u is None or not u or not u.is_pure():
                raise InvalidInput("quadratic centralizer needs a nonzero pure generator")
        elif u is not None:
            raise InvalidInput(f"{kind} centralizer takes no generator")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "u", u)

    def __setattr__(self, name, value):
        raise AttributeError("Centralizer is immutable")

    @classmethod
    def full(cls) -> "Centralizer":
        return cls(FULL)

    @classmethod
    def center(cls) -> "Centralizer":
        return cls(CENTER)

    @classmethod
    def quadratic(cls, u: Quat) -> "Centralizer":
        return cls(QUADRATIC, u)

    def basis(self) -> tuple[Quat, ...]:
        if self.kind == FULL:
            return BASIS
        if self.kind == QUADRATIC:
            return (ONE, self.u)
        return (ONE,)

    @property
    def dim(self) -> int:
        """Dimension over the rationals."""
        return {FULL: 4, QUADRATIC: 2, CENTER: 1}[self.kind]

    def coords(self, q: Quat) -> list[Fraction] | None:
        """Coordinates of q in the basis of this subring, or None if q is outside."""
        if self.kind == FULL:
            return list(q.coords())
        if self.kind == CENTER:
            return [q.w] if q.is_central() else None
        u = self.u
        # q = p + s*u needs the pure part of q to be a rational multiple of u.
        for uc, qc in ((u.x, q.x), (u.y, q.y), (u.z, q.z)):
            if uc != 0:
                s = qc / uc
                break
        if Quat.scalar(q.w) + u * s == q:
            return [q.w, s]
        return None

    def contains(self, q: Quat) -> bool:
        return self.coords(q) is not None

    def __eq__(self, other):
        if not isinstance(other, Centralizer):
            return NotImplemented
        return self.kind == other.kind and self.u == other.u

    def __hash__(self):
        return hash((self.kind, self.u))

    def describe(self) -> str:
        if self.kind == FULL:
            return "the full quaternion ring"
        if self.kind == CENTER:
            return "the rational center"
        return f"the quadratic field generated by {self.u}"

    def __repr__(self):
        if self.kind == QUADRATIC:
            return f"Centralizer.quadratic({self.u!r})"
        return f"Centralizer.{self.kind}()"


def centralizer_of_set(elements: Iterable[Quat]) -> Centralizer:
    """Exact description of everything commuting with all given elements."""
    noncentral = [q for q in elements if not q.is_central()]
    if not noncentral:
        return Centralizer.full()
    candidate = Centralizer.quadratic(noncentral[0].pure_part())
    if all(candidate.contains(q) for q in noncentral):
        return candidate
    return Centralizer.center()


# ---------------------------------------------------------------------------
# Quaternion-linear problems as rational matrices
# ---------------------------------------------------------------------------

def _rows(columns: Sequence[Sequence[Quat]], height: int) -> list[list[Fraction]]:
    """Rational rows of the columns: entry t, axis m becomes row 4t+m."""
    coords = [[q.coords() for q in col] for col in columns]
    return [[cs[t][m] for cs in coords] for t in range(height) for m in range(4)]


def rational_solve(
    columns: Sequence[Sequence[Quat]], target: Sequence[Quat]
) -> list[Fraction] | None:
    """Rationals s with sum_c s_c * columns[c] = target entry by entry, or
    None; free unknowns are zero, so the answer is deterministic."""
    rhs = [value for q in target for value in q.coords()]
    return linalg.solve(_rows(columns, len(target)), rhs, len(columns))


def rational_nullspace(columns: Sequence[Sequence[Quat]]) -> list[list[Fraction]]:
    """Basis of the rational s with sum_c s_c * columns[c] = 0."""
    if not columns:
        return []
    return linalg.nullspace(_rows(columns, len(columns[0])), len(columns))


def _unit_multiples(q: Quat, c: Centralizer, left: bool) -> tuple[Quat, ...]:
    # e*q (q*e when not `left`) for each basis unit e of c.  For e in
    # 1, i, j, k these are signed permutations of q's coordinates; only a
    # quadratic generator u takes a product.
    if c.kind == QUADRATIC:
        return (q, c.u * q if left else q * c.u)
    if c.kind == CENTER:
        return (q,)
    w, x, y, z = q.w, q.x, q.y, q.z
    if left:
        return (q, Quat(-x, w, -z, y), Quat(-y, z, w, -x), Quat(-z, -y, x, w))
    return (q, Quat(-x, w, z, -y), Quat(-y, -z, w, x), Quat(-z, y, -x, w))


def _expand(
    vectors: Sequence[Sequence[Quat]], c: Centralizer, left: bool
) -> list[list[Quat]]:
    # One column per (vector, basis unit e of c): e*v, or v*e on the right.
    # These are the columns of L(v) or R(v) restricted to the basis of c.
    # Entries left as the shared ZERO, most of a certificate system, stay
    # ZERO; an identity test costs nothing on dense scalar solves.
    d = c.dim
    zeros = (ZERO,) * d
    columns = []
    for vec in vectors:
        multiples = [zeros if q is ZERO else _unit_multiples(q, c, left) for q in vec]
        columns.extend([m[e] for m in multiples] for e in range(d))
    return columns


def solve_combination(
    vectors: Sequence[Sequence[Quat]],
    target: Sequence[Quat],
    c: Centralizer,
    left: bool = True,
) -> list[Quat] | None:
    """Coefficients k_t in the subring c with sum_t k_t * vectors[t] = target
    entry by entry (vectors[t] * k_t when `left` is False), or None.

    Each unknown coefficient is expanded in the rational basis of c.
    """
    if not vectors:
        return [] if not any(target) else None
    sol = rational_solve(_expand(vectors, c, left), target)
    if sol is None:
        return None
    basis = c.basis()
    d = len(basis)
    out = []
    for t in range(len(vectors)):
        coeff = ZERO
        for m, e in enumerate(basis):
            coeff = coeff + e * sol[t * d + m]
        out.append(coeff)
    return out


def left_linear_solve(
    vectors: Sequence[Quat], target: Quat, c: Centralizer
) -> list[Quat] | None:
    """Coefficients k_i in the subring c with sum k_i * v_i = target, or None."""
    return solve_combination([(v,) for v in vectors], (target,), c)


def right_linear_solve(
    vectors: Sequence[Quat], target: Quat, c: Centralizer
) -> list[Quat] | None:
    """Coefficients k_i in the subring c with sum v_i * k_i = target, or None."""
    return solve_combination([(v,) for v in vectors], (target,), c, left=False)


def first_dependence(
    vectors: Iterable[Sequence[Quat]], c: Centralizer, left: bool = True
) -> list[Quat] | None:
    """Coefficients k_t in c with v_n = sum_t k_t * v_t (v_t * k_t when
    `left` is False) for the first vector v_n that is such a combination of
    the vectors before it, or None.  The vectors are read one at a time, so
    a generator is advanced only as far as that v_n."""
    before: list[Sequence[Quat]] = []
    for v in vectors:
        sol = solve_combination(before, v, c, left)
        if sol is not None:
            return sol
        before.append(v)
    return None


def left_rank(vectors: Sequence[Quat], c: Centralizer) -> int:
    """Rank of the vectors as elements of a left vector space over c: the
    rational rank of their c-multiples over dim c, from one elimination."""
    columns = _expand([(v,) for v in vectors], c, True)
    _, pivots = linalg.rref(_rows(columns, 1), len(columns))
    return len(pivots) // c.dim


def find_conjugator(a: Quat, b: Quat) -> Quat | None:
    """A nonzero r with r*a*r^-1 = b, or None when a and b are not conjugate.

    Conjugacy in the rational quaternions holds exactly when the scalar
    parts and norms agree; the witness is a nonzero solution of the rational
    linear system r*a = b*r.
    """
    basis = rational_nullspace([(e * a - b * e,) for e in BASIS])
    if not basis:
        return None
    return Quat.from_coords(basis[0])

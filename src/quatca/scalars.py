"""Exact quaternions over the rationals, centralizers, and linear solvers.

`solve_combination` and `left_rank` turn quaternion-linear problems into
rational matrices for `linalg`, reached through `linalg.solve` and
`linalg.rref` only.  Right-handed problems are conjugates of left-handed
ones.

Every value is immutable and every operation is a pure function, so values
may be shared freely between threads.  Every value type and result record
is a `_Record`, with one `__setattr__` guard, `_immutable`, one copy rule
(`copy` and `pickle` restore the saved slots past the guard) and one
equality and hash unless it states its own; equal values hash equal, so a
central `Quat` hashes as its rational.  `Quat`, `MPoly` and `UPoly`
powers share one repeated squaring, `_power`.
`fractions.Fraction` appears only at the surface (coordinates, norms,
solutions), always in lowest terms with a positive denominator.  Inside, a
`Quat` keeps four integer numerators over one denominator: centralizer
membership and the growth of a power are read from those integers, and the
rational rows built here for `linalg` hold a plain `int` wherever that
denominator is 1.  The product of two such integer 4-tuples, `_qmul`, is
shared by the parser, the linear root search and the elimination of
`modules.annihilator_minpoly`; `Quat.__mul__` and the integer sums
(`_left_horner`, `_dot`) keep the same product inline, since a call per
product slows them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log2
from typing import Iterable, Sequence

from . import linalg
from .errors import InvalidInput, _too_many_digits


_UNIT_NAMES = ("", "i", "j", "k")


def _immutable(self, name, value):
    """The `__setattr__` of every `_Record`, whose constructors set each
    field once through `object.__setattr__`."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Record:
    """A value or result record: the fields named in its class's
    `__slots__`, each set once by its constructor through
    `object.__setattr__`.  Two records of one class are equal when their
    `_key`s are: every field, unless the class narrows it or states it in
    one line where equality is hot.  The hash is that of `_key`, the repr
    is `Name(field=value, ...)`, and `copy` and `pickle` restore every slot.
    """

    __slots__ = ()
    __setattr__ = _immutable

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Every slot, not only what `_key` compares, set past the guard.
        return object.__new__, (type(self),), tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


def _power(base, n: int, one):
    """base^n for n >= 0 by repeated squaring, and one for n = 0: the
    result starts from the power of the lowest set bit, so it takes
    n.bit_length() - 1 squarings and one product per further set bit, at
    most 2 * n.bit_length() - 1 products and none by one."""
    if not n:
        return one
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            result = result * base
        n >>= 1
    return result


def _signed_sum(pairs) -> str:
    """The text `a - b + c` of (value, text) terms: zero values are skipped,
    and a magnitude 1 is dropped before nonempty text.  A value past the
    interpreter's int<->str digit limit is InvalidInput naming it."""
    parts = []
    try:
        for value, text in pairs:
            if not value:
                continue
            mag = -value if value < 0 else value
            body = text if mag == 1 and text else f"{mag}{text}"
            if parts:
                parts.append(f"- {body}" if value < 0 else f"+ {body}")
            else:
                parts.append(f"-{body}" if value < 0 else body)
    except ValueError:
        raise _too_many_digits("number") from None
    return " ".join(parts) if parts else "0"


def _term_text(c: Quat, monomial: str) -> tuple:
    """The (value, text) pair of the nonzero term c*monomial: one coordinate
    and its unit, or (1, "(c)monomial") for more than one nonzero coordinate."""
    nonzero = [(v, unit) for v, unit in zip(c._n, _UNIT_NAMES) if v]
    if len(nonzero) > 1:
        return 1, f"({c}){monomial}"
    (v, unit), m = nonzero[0], c._d
    return (v if m == 1 else Fraction(v, m)), unit + monomial


class Quat(_Record):
    """A quaternion w + x*i + y*j + z*k with exact rational coordinates.

    The basis multiplication follows i*j = k, j*k = i, k*i = j and
    i^2 = j^2 = k^2 = -1.  Coordinates are kept in the fixed ordered basis
    (1, i, j, k) everywhere, including serialization.

    A value is stored as four integer numerators `_n` over one common
    denominator `_d`, in canonical form: `_d > 0` and the gcd of the five
    integers is 1, so zero is (0, 0, 0, 0)/1 and equal quaternions have
    equal pairs.  Arithmetic works on the integers and reduces by one
    five-way gcd at most (the content/primitive-part representation of
    Knuth, TAOCP vol. 2, 4.5.1).  `.w/.x/.y/.z` and `coords()` give the
    coordinates as `Fraction`.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, w=0, x=0, y=0, z=0):
        coords = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (w, x, y, z)]
        # Lowest-terms coordinates over the lcm of their denominators are
        # already canonical: no prime divides that lcm and every numerator.
        m = lcm(*(v.denominator for v in coords))
        object.__setattr__(self, "_n", tuple(v.numerator * (m // v.denominator) for v in coords))
        object.__setattr__(self, "_d", m)

    # -- structure ---------------------------------------------------------

    @property
    def w(self) -> Fraction:
        return Fraction(self._n[0], self._d)

    @property
    def x(self) -> Fraction:
        return Fraction(self._n[1], self._d)

    @property
    def y(self) -> Fraction:
        return Fraction(self._n[2], self._d)

    @property
    def z(self) -> Fraction:
        return Fraction(self._n[3], self._d)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        m = self._d
        return tuple(Fraction(v, m) for v in self._n)

    @classmethod
    def scalar(cls, r) -> "Quat":
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        return _quat((r.numerator, 0, 0, 0), r.denominator)

    def scalar_part(self) -> Fraction:
        return self.w

    def pure_part(self) -> "Quat":
        _, b, c, d = self._n
        return _reduced(0, b, c, d, self._d)

    def is_central(self) -> bool:
        n = self._n
        return not (n[1] or n[2] or n[3])

    def is_pure(self) -> bool:
        return not self._n[0]

    def __bool__(self) -> bool:
        return self._n != (0, 0, 0, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Quat):
            return self._n == other._n and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._n == (other.numerator, 0, 0, 0) and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # A central quaternion equals its rational, so it hashes as one.
        n, m = self._n, self._d
        if n[1] or n[2] or n[3]:
            return hash((n, m))
        return hash(n[0]) if m == 1 else hash(Fraction(n[0], m))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        (a, b, c, d), m = self._n, self._d
        (e, f, g, h), p = other._n, other._d
        if m == p:
            return _reduced(a + e, b + f, c + g, d + h, m)
        return _reduced(a * p + e * m, b * p + f * m, c * p + g * m, d * p + h * m, m * p)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        (a, b, c, d), m = self._n, self._d
        (e, f, g, h), p = other._n, other._d
        if m == p:
            return _reduced(a - e, b - f, c - g, d - h, m)
        return _reduced(a * p - e * m, b * p - f * m, c * p - g * m, d * p - h * m, m * p)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        a, b, c, d = self._n
        return _quat((-a, -b, -c, -d), self._d)

    def __mul__(self, other):
        # The exact type test first: Quat by Quat is the common product, and
        # isinstance against Fraction, whose metaclass is ABCMeta, costs a
        # fifth of it.
        if type(other) is not Quat:
            if isinstance(other, (int, Fraction)):
                (a, b, c, d), r, s = self._n, other.numerator, other.denominator
                return _reduced(a * r, b * r, c * r, d * r, self._d * s)
            if not isinstance(other, Quat):
                return NotImplemented
        (a, b, c, d), (e, f, g, h) = self._n, other._n
        return _reduced(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
            self._d * other._d,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "Quat":
        a, b, c, d = self._n
        return _quat((a, -b, -c, -d), self._d)

    def norm(self) -> Fraction:
        """Reduced norm w^2 + x^2 + y^2 + z^2; zero iff the quaternion is zero."""
        a, b, c, d = self._n
        return Fraction(a * a + b * b + c * c + d * d, self._d * self._d)

    def inverse(self) -> "Quat":
        # conj(n/m) / N(n/m) = conj(n) * m / (sum of the squares of n).
        (a, b, c, d), m = self._n, self._d
        s = a * a + b * b + c * c + d * d
        if s == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return _reduced(a * m, -b * m, -c * m, -d * m, s)

    def __pow__(self, exp: int) -> "Quat":
        if exp < 0:
            return self.inverse() ** (-exp)
        return _power(self, exp, ONE)

    def commutes_with(self, other: "Quat") -> bool:
        return self * other == other * self

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        m = self._d
        return _signed_sum(
            (Fraction(v, m) if v and m != 1 else v, unit)
            for v, unit in zip(self._n, _UNIT_NAMES)
        )

    def __repr__(self) -> str:
        try:
            return f"Quat({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"
        except ValueError:
            raise _too_many_digits("number") from None


_new_quat = object.__new__
_set_n = Quat._n.__set__
_set_d = Quat._d.__set__


def _quat(n: tuple[int, int, int, int], m: int) -> Quat:
    """The Quat with numerators n over m, which must already be canonical."""
    q = _new_quat(Quat)
    _set_n(q, n)
    _set_d(q, m)
    return q


def _reduced(a: int, b: int, c: int, d: int, m: int) -> Quat:
    """The Quat (a, b, c, d)/m for m > 0, divided by the gcd of all five."""
    g = gcd(a, b, c, d, m)
    if g == 1:
        return _quat((a, b, c, d), m)
    return _quat((a // g, b // g, c // g, d // g), m // g)


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


def _integer_rows(coeffs: Sequence[Quat]) -> tuple[list[list[int]], int]:
    """(rows, D) for the coefficients of a quaternion polynomial, low to
    high: D is their least common denominator, and rows[m] lists D times
    coordinate m of each coefficient, high to low.  These are the four
    central coordinate polynomials of D times the polynomial."""
    den = lcm(*(c._d for c in coeffs))
    scaled = [c._n if c._d == den else tuple(v * (den // c._d) for v in c._n) for c in reversed(coeffs)]
    return [list(row) for row in zip(*scaled)] or [[], [], [], []], den


def _qmul(x: tuple, y: tuple) -> tuple:
    """The product of two quaternions given as integer 4-tuples."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _left_horner(coeffs: Sequence[Quat], a: Quat) -> Quat:
    """sum_k coeffs[k] * a^k, each coefficient left of its power of a, in
    integers and reduced once.  With a = A/m and coeffs[k] = C_k/D over
    their least common denominator D, the Horner steps
    H <- H*A + m^(deg-k)*C_k give H = sum_k C_k A^k m^(deg-k), and the
    value is H/(D*m^deg)."""
    if not coeffs:
        return ZERO
    den = lcm(*(c._d for c in coeffs))
    (e, f, g, h), m = a._n, a._d
    w = x = y = z = 0
    scale = den  # D*m^(deg-k), over which C_k/D_k becomes an integer
    for c in reversed(coeffs):
        w, x, y, z = (
            w * e - x * f - y * g - z * h,
            w * f + x * e + y * h - z * g,
            w * g - x * h + y * e + z * f,
            w * h + x * g - y * f + z * e,
        )
        (n0, n1, n2, n3), d = c._n, c._d
        if n0 or n1 or n2 or n3:
            s = scale // d
            w, x, y, z = w + n0 * s, x + n1 * s, y + n2 * s, z + n3 * s
        scale *= m
    return _reduced(w, x, y, z, scale // m)


def _dot(left: Sequence[Quat], right: Sequence[Quat]) -> Quat:
    """sum_r left[r] * right[r], each left entry left of its right one, in
    integers and reduced once.  With the entries over the least common
    denominators L of left and R of right, left[r] = A_r/L and
    right[r] = B_r/R, the sum is (sum_r A_r*B_r)/(L*R)."""
    dl = lcm(*(q._d for q in left))
    dr = lcm(*(q._d for q in right))
    w = x = y = z = 0
    for p, q in zip(left, right):
        (a, b, c, d), m = p._n, p._d
        (e, f, g, h), n = q._n, q._d
        if m != dl or n != dr:
            s = dl // m * (dr // n)
            a, b, c, d = a * s, b * s, c * s, d * s
        w += a * e - b * f - c * g - d * h
        x += a * f + b * e + c * h - d * g
        y += a * g - b * h + c * e + d * f
        z += a * h + b * g - c * f + d * e
    return _reduced(w, x, y, z, dl * dr)


def commutator(a: Quat, b: Quat) -> Quat:
    """a*b - b*a."""
    return a * b - b * a


def _growth(c: Quat) -> float:
    """The bits one more factor of c can add to a power of it: with c = v/m
    for an integer vector v over the common denominator m, the numerators
    of c^n are at most |v|^n and its denominator at most m^n."""
    if not c:
        return 0.0
    (a, b, e, f), m = c._n, c._d
    return max(log2(a * a + b * b + e * e + f * f) / 2, log2(m))


def _words(c: Quat) -> int:
    """The 64-bit words of the largest of c's five integers: about the
    factor by which a product with c costs more than one of small ones."""
    return 1 + max(c._d.bit_length(), *(v.bit_length() for v in c._n)) // 64


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------

FULL = "full"
QUADRATIC = "quadratic"
CENTER = "center"


class Centralizer(_Record):
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

    def element(self, coords: Sequence[Fraction]) -> Quat:
        """The member of this subring with the given coordinates in its
        basis."""
        if self.kind == FULL:
            return Quat(*coords)
        if self.kind == QUADRATIC:
            return self.u * coords[1] + coords[0]
        return Quat.scalar(coords[0])

    def contains(self, q: Quat) -> bool:
        if self.kind == FULL:
            return True
        if self.kind == CENTER:
            return q.is_central()
        # q = p + s*u needs the pure part of q to be a rational multiple of
        # u: every 2x2 minor of the two pure numerator triples vanishes.
        (_, b, c, d), (_, e, f, g) = q._n, self.u._n
        return b * f == c * e and b * g == d * e and c * g == d * f

    def __eq__(self, other):
        """Equal as subrings: quadratic ones when their generators are
        rational multiples of each other."""
        if not isinstance(other, Centralizer):
            return NotImplemented
        return self.kind == other.kind and (self.kind != QUADRATIC or self.contains(other.u))

    def __hash__(self):
        if self.kind != QUADRATIC:
            return hash(self.kind)
        # The primitive integer direction of u with its first nonzero entry
        # positive, shared by every rational multiple of u.
        direction = self.u._n[1:]
        g = gcd(*direction) * (1 if next(t for t in direction if t) > 0 else -1)
        return hash((self.kind, *(t // g for t in direction)))

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

def _rationals(q: Quat) -> tuple:
    # The coordinates of q for a rational row: ints when q's denominator
    # is 1, else a Fraction for each nonzero numerator.
    m = q._d
    if m == 1:
        return q._n
    return tuple(Fraction(v, m) if v else 0 for v in q._n)


def _rows(columns: Sequence[Sequence[Quat]], height: int) -> list[list]:
    """Rational rows of the columns: entry t, axis m becomes row 4t+m."""
    coords = [[_rationals(q) for q in col] for col in columns]
    return [[cs[t][m] for cs in coords] for t in range(height) for m in range(4)]


def _unit_multiples(q: Quat, c: Centralizer) -> tuple[Quat, ...]:
    # e*q for each basis unit e of c.  For e in 1, i, j, k these are signed
    # permutations of q's numerators over the same denominator; only a
    # quadratic generator u takes a product.
    if c.kind == QUADRATIC:
        return (q, c.u * q)
    if c.kind == CENTER:
        return (q,)
    (w, x, y, z), m = q._n, q._d
    return (q, _quat((-x, w, -z, y), m), _quat((-y, z, w, -x), m), _quat((-z, -y, x, w), m))


def _expand(vectors: Sequence[Sequence[Quat]], c: Centralizer) -> list[list[Quat]]:
    # One column per (vector, basis unit e of c): e*v, the columns of L(v)
    # restricted to the basis of c.  Entries left as the shared ZERO, most
    # of a certificate system, stay ZERO; an identity test costs nothing on
    # dense scalar solves.
    d = c.dim
    zeros = (ZERO,) * d
    columns = []
    for vec in vectors:
        multiples = [zeros if q is ZERO else _unit_multiples(q, c) for q in vec]
        columns.extend([m[e] for m in multiples] for e in range(d))
    return columns


def solve_combination(
    vectors: Sequence[Sequence[Quat]], target: Sequence[Quat], c: Centralizer
) -> list[Quat] | None:
    """Coefficients k_t in the subring c with sum_t k_t * vectors[t] = target
    entry by entry, or None; free unknowns are zero, so the answer is
    deterministic.

    Each unknown coefficient is expanded in the rational basis of c.
    """
    if not vectors:
        return [] if not any(target) else None
    columns = _expand(vectors, c)
    rhs = [value for q in target for value in _rationals(q)]
    sol = linalg.solve(_rows(columns, len(target)), rhs, len(columns))
    if sol is None:
        return None
    d = c.dim
    return [c.element(sol[t : t + d]) for t in range(0, len(sol), d)]


def left_linear_solve(
    vectors: Sequence[Quat], target: Quat, c: Centralizer
) -> list[Quat] | None:
    """Coefficients k_i in the subring c with sum k_i * v_i = target, or None."""
    return solve_combination([(v,) for v in vectors], (target,), c)


def left_rank(vectors: Sequence[Quat], c: Centralizer) -> int:
    """Rank of the vectors as elements of a left vector space over c: the
    rational rank of their c-multiples over dim c, from one elimination."""
    columns = _expand([(v,) for v in vectors], c)
    _, pivots = linalg.rref(_rows(columns, 1), len(columns))
    return len(pivots) // c.dim


def find_conjugator(a: Quat, b: Quat) -> Quat | None:
    """A nonzero r with r*a*r^-1 = b, or None when a and b are not conjugate.

    Conjugacy holds exactly when the scalar parts and norms agree
    (Gordon-Motzkin); the pure parts u, v then have u^2 = v^2, so u + v is
    a witness, (u + v)*u = v*(u + v), unless v = -u: then 1 if u = 0, else
    the pure part of e*u for a unit e outside C(u), which anticommutes with u.
    """
    if a.w != b.w or a.norm() != b.norm():
        return None
    u, v = a.pure_part(), b.pure_part()
    if u + v:
        return u + v
    if not u:
        return ONE
    return next((e * u).pure_part() for e in BASIS[1:] if not e.commutes_with(u))

"""Univariate polynomials over the rational quaternions with a central x.

Coefficients sit on the left of the powers of x.  Because x commutes with
everything while the coefficients do not, left evaluation p(a) (coefficients
kept left of the powers of a) and right evaluation (powers left of the
coefficients) genuinely differ, and division comes in a right and a left
flavor.  A value a is a *right root* of p when the left evaluation p(a)
vanishes, equivalently when x - a divides p on the right.  Each right-handed
operation is conj . left . conj, as conjugation reverses products and fixes x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from . import ratfactor
from .errors import InternalError, InvalidInput
from .intmath import rational_sqrt, three_squares
from .scalars import (
    BASIS,
    Centralizer,
    ONE,
    Quat,
    ZERO,
    centralizer_of_set,
    first_dependence,
)


class UPoly:
    """Polynomial sum of coeff_k * x^k; coeffs run low to high, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Quat] = ()):
        cs = [c if isinstance(c, Quat) else Quat.scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def constant(cls, q) -> "UPoly":
        return cls([q])

    @classmethod
    def x(cls) -> "UPoly":
        return cls([ZERO, ONE])

    @classmethod
    def monomial(cls, coeff: Quat, k: int) -> "UPoly":
        return cls([ZERO] * k + [coeff])

    @classmethod
    def linear(cls, a: Quat) -> "UPoly":
        """x - a."""
        return cls([-a, ONE])

    @classmethod
    def from_central(cls, coeffs: Sequence[Fraction]) -> "UPoly":
        return cls([Quat.scalar(c) for c in coeffs])

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Quat:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Quat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def is_central(self) -> bool:
        return all(c.is_central() for c in self.coeffs)

    def central_coeffs(self) -> list[Fraction]:
        if not self.is_central():
            raise InternalError("polynomial has noncentral coefficients")
        return [c.w for c in self.coeffs]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UPoly(out)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    def scale_left(self, q: Quat) -> "UPoly":
        return UPoly([q * c for c in self.coeffs])

    def monic(self) -> "UPoly":
        """Left-normalize: divide by the leading coefficient on the left,
        which preserves the left ideal generated by the polynomial."""
        if self.is_zero():
            raise InvalidInput("cannot normalize the zero polynomial")
        return self.scale_left(self.lead.inverse())

    # -- evaluation and division ------------------------------------------------

    def eval_left(self, a: Quat) -> Quat:
        """Evaluation with coefficients kept on the left of the powers of a."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def eval_right(self, a: Quat) -> Quat:
        """Evaluation with the powers of a on the left of the coefficients:
        the conjugate of the left evaluation of conj_poly() at conj(a)."""
        return self.conj_poly().eval_left(a.conjugate()).conjugate()

    def divmod_right(self, d: "UPoly") -> tuple["UPoly", "UPoly"]:
        """(q, r) with self = q*d + r and deg r < deg d.

        Dividing by x - a leaves remainder eval_left(self, a).
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = d.lead.inverse()
        dd = d.degree
        rem = list(self.coeffs)
        quot = [ZERO] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if not rem[k]:
                continue
            factor = rem[k] * lead_inv
            quot[k - dd] = factor
            for idx, dc in enumerate(d.coeffs):
                rem[k - dd + idx] = rem[k - dd + idx] - factor * dc
        return UPoly(quot), UPoly(rem[:dd])

    def divmod_left(self, d: "UPoly") -> tuple["UPoly", "UPoly"]:
        """(q, r) with self = d*q + r and deg r < deg d.

        Dividing by x - a leaves remainder eval_right(self, a).  (q, r) is
        unique, so it is the conjugate of conj_poly().divmod_right(d.conj_poly()).
        """
        q, r = self.conj_poly().divmod_right(d.conj_poly())
        return q.conj_poly(), r.conj_poly()

    def conj_poly(self) -> "UPoly":
        """Coefficient-wise quaternion conjugate."""
        return UPoly([c.conjugate() for c in self.coeffs])

    def shift(self, k: int) -> "UPoly":
        if self.is_zero():
            return self
        return UPoly([ZERO] * k + list(self.coeffs))

    def __str__(self) -> str:
        return format_upoly(self)

    def __repr__(self) -> str:
        return f"UPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Display (shared with the CLI grammar)
# ---------------------------------------------------------------------------

def _coeff_text(c: Quat) -> tuple[str, str]:
    """(sign, body) for a coefficient in front of a power of x."""
    nonzero = [v for v in c.coords() if v != 0]
    if len(nonzero) > 1:
        return "+", f"({c})"
    for value, unit in zip(c.coords(), ("", "i", "j", "k")):
        if value != 0:
            sign = "+" if value > 0 else "-"
            mag = value if value > 0 else -value
            if mag == 1 and unit:
                return sign, unit
            return sign, f"{mag}{unit}"
    return "+", "0"


def format_upoly(p: UPoly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        sign, body = _coeff_text(c)
        if k > 0:
            power = var if k == 1 else f"{var}^{k}"
            body = power if body == "1" else f"{body}{power}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# One-sided gcd / common multiples
# ---------------------------------------------------------------------------

def _gcrd_combination(polys: Sequence[UPoly]) -> tuple[UPoly, list[UPoly]]:
    """(d, u) with d = sum_i u[i] * polys[i], where d is the monic generator
    of the left ideal the polys generate, or zero if every input is zero.

    The right-division Euclidean algorithm, folded over the inputs, with
    left Bezout cofactors: a remainder r = a - q*b carries u_a - q*u_b.
    """
    zeros = [UPoly()] * len(polys)
    a, ua = UPoly(), zeros
    for i, p in enumerate(polys):
        b, ub = p, zeros[:i] + [UPoly.constant(ONE)] + zeros[i + 1 :]
        while not b.is_zero():
            q, r = a.divmod_right(b)
            a, ua, b, ub = b, ub, r, [x - q * y for x, y in zip(ua, ub)]
    if a.is_zero():
        return a, ua
    inv = a.lead.inverse()
    return a.scale_left(inv), [u.scale_left(inv) for u in ua]


def gcrd(p: UPoly, q: UPoly) -> UPoly:
    """Greatest common right divisor: the monic generator of the left ideal
    generated by p and q, via the right-division Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise InvalidInput("gcrd of two zero polynomials")
    return _gcrd_combination([p, q])[0]


def lclm(p: UPoly, q: UPoly) -> UPoly:
    """Least common left multiple: the monic generator of the intersection
    of the left ideals of p and q.

    u*p lies in the left ideal of q exactly when sum_k u_k * r_k = 0, where
    r_k is the right remainder of x^k * p by q; x is central, so r_{k+1} is
    the remainder of x * r_k.  The remainders live in a left space of
    dimension deg q, so the first left dependence among r_0, r_1, ... comes
    by k = deg q and gives the u of least degree.
    """
    if p.is_zero() or q.is_zero():
        raise InvalidInput("lclm requires nonzero polynomials")
    rems = accumulate(range(q.degree), lambda r, _: r.shift(1).divmod_right(q)[1],
                      initial=p.divmod_right(q)[1])
    sol = first_dependence(([r.coeff(d) for d in range(q.degree)] for r in rems), Centralizer.full())
    if sol is None:
        raise InternalError("least common left multiple search failed")  # pragma: no cover
    return (UPoly([-k for k in sol] + [ONE]) * p).monic()


# ---------------------------------------------------------------------------
# Root classes (Niven-Jacobson style search through the companion polynomial)
# ---------------------------------------------------------------------------

class RootSearchStatus(Enum):
    COMPLETE = "complete"
    POSSIBLY_INCOMPLETE = "possibly-incomplete"


@dataclass(frozen=True)
class Isolated:
    """A single right root, the only one in its conjugacy class."""

    a: Quat


@dataclass(frozen=True)
class Sphere:
    """A full conjugacy class {a : a^2 - t*a + n = 0} of right roots.

    Requires t^2 - 4n < 0.  The class may contain no point with rational
    coordinates; `sphere_member_in` decides that exactly.
    """

    t: Fraction
    n: Fraction


RootClass = Isolated | Sphere


def companion(p: UPoly) -> UPoly:
    """p times its coefficient-conjugate; always has central coefficients."""
    return p * p.conj_poly()


def _class_roots(p: UPoly, t: Fraction, n: Fraction) -> RootClass | None:
    """The right roots of p in the class {a : a^2 - t*a + n = 0}, t^2 < 4n.

    By Gordon-Motzkin a class holds only roots or at most one.  With
    p = q*f + alpha*x + beta for the central f = x^2 - t*x + n, every member
    a has p(a) = alpha*a + beta: zero remainder makes the whole class roots,
    and otherwise only -alpha^-1*beta can be one, if it lies on the class.
    """
    _, rem = p.divmod_right(UPoly.from_central([n, -t, 1]))
    if not rem:
        return Sphere(t, n)
    alpha, beta = rem.coeff(1), rem.coeff(0)
    if alpha:
        cand = -(alpha.inverse() * beta)
        if not (cand * cand - cand * t + Quat.scalar(n)):
            return Isolated(cand)
    return None


def right_roots(p: UPoly) -> tuple[list[RootClass], RootSearchStatus]:
    """All conjugacy classes of right roots discoverable over the rationals.

    The central companion polynomial is factored exactly over the
    rationals; each rational root and each quadratic factor with negative
    discriminant carries at most one candidate class, checked exactly.
    The status is POSSIBLY_INCOMPLETE only when the rationals cannot split
    a factor: an irreducible factor of degree > 2, or a quadratic with real
    irrational roots.  Roots there may exist over a larger scalar field but
    have no rational-quaternion representative.
    """
    if p.degree < 1:
        raise InvalidInput("root search needs a nonconstant polynomial")
    comp = companion(p)
    fac = ratfactor.factor_central(comp.central_coeffs())
    classes: list[RootClass] = []
    incomplete = not fac.complete
    for root, _mult in fac.linear:
        cand = Quat.scalar(root)
        if not p.eval_left(cand):
            classes.append(Isolated(cand))
    for t, n, _mult in fac.quadratics:
        if t * t - 4 * n > 0:
            # Real irrational roots: representable only over a larger field.
            incomplete = True
            continue
        cls = _class_roots(p, t, n)
        if cls is not None:
            classes.append(cls)
    status = RootSearchStatus.POSSIBLY_INCOMPLETE if incomplete else RootSearchStatus.COMPLETE
    return classes, status


def left_roots(p: UPoly) -> tuple[list[RootClass], RootSearchStatus]:
    """Conjugacy classes of left roots (zeros of the right evaluation).

    a is a left root of p exactly when conj(a) is a right root of the
    coefficient-conjugated polynomial, so the search is delegated there.
    """
    classes, status = right_roots(p.conj_poly())
    out: list[RootClass] = []
    for cls in classes:
        if isinstance(cls, Isolated):
            out.append(Isolated(cls.a.conjugate()))
        else:
            out.append(cls)  # conjugation fixes every sphere class
    return out, status


def sphere_member_in(c: Centralizer, t: Fraction, n: Fraction) -> Quat | None:
    """A point of the class {a : a^2 - t*a + n = 0} inside the subring c,
    or None; the None answer is exact.

    Members have the shape t/2 + v with v pure of norm n - t^2/4, so the
    question reduces to rational squares (quadratic subfield) or to a sum
    of three rational squares (full ring).
    """
    m = n - t * t / 4
    if m <= 0:
        raise InvalidInput("not a sphere class: nonnegative discriminant")
    if c.kind == "center":
        return None
    if c.kind == "quadratic":
        d = c.u.norm()
        s = rational_sqrt(m / d)
        if s is None:
            return None
        return Quat.scalar(t / 2) + c.u * s
    big = m.numerator * m.denominator
    triple = three_squares(big)
    if triple is None:
        return None
    a1, a2, a3 = (Fraction(v, m.denominator) for v in triple)
    return Quat(t / 2, a1, a2, a3)


def roots_in_centralizer(p: UPoly, c: Centralizer, side: str = "left") -> tuple[list[Quat], RootSearchStatus]:
    """Representatives of the roots of p lying inside the subring c.

    `side="left"` looks for left roots (zeros of the right evaluation),
    which is what splitting p = (x - a) * q requires.
    """
    classes, status = left_roots(p) if side == "left" else right_roots(p)
    found: list[Quat] = []
    for cls in classes:
        if isinstance(cls, Isolated):
            if c.contains(cls.a):
                found.append(cls.a)
        else:
            member = sphere_member_in(c, cls.t, cls.n)
            if member is not None:
                found.append(member)
    return found, status


# ---------------------------------------------------------------------------
# Root spaces E = {r : p(r a r^-1) = 0} + {0}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSpaceBasis:
    """Basis of the conjugation root space of (p, a), a right vector space
    over the centralizer of a."""

    basis: tuple[Quat, ...]
    over: Centralizer

    @property
    def dim(self) -> int:
        return len(self.basis)


def root_space(p: UPoly, a: Quat) -> RootSpaceBasis:
    """Basis over the centralizer of a of the conjugators r sending a to a
    root of p; requires a itself to be a right root.

    A central a is its own class: the whole ring, basis {1}.  Otherwise, by
    Gordon-Motzkin, the class of a holds only roots (the whole ring, basis
    {1, the first of i, j, k outside C(a)}) or no root but a (C(a), {1}).
    """
    if p.is_zero():
        raise InvalidInput("root space of the zero polynomial")
    if p.eval_left(a):
        raise InvalidInput("the base point must be a right root")
    c = centralizer_of_set([a])
    if a.is_central() or isinstance(_class_roots(p, 2 * a.w, a.norm()), Isolated):
        return RootSpaceBasis((ONE,), c)
    return RootSpaceBasis((ONE, next(e for e in BASIS[1:] if not c.contains(e))), c)


def root_space_dim(p: UPoly, a: Quat) -> int:
    """Dimension of the conjugation root space of (p, a) over the
    centralizer of a; zero when no conjugate of a is a root.

    A central a gives 1 or 0.  Otherwise, by Gordon-Motzkin, the class of a
    holds only roots (2), exactly one root (1) or none (0).
    """
    if a.is_central():
        return 0 if p.eval_left(a) else 1
    cls = _class_roots(p, 2 * a.w, a.norm())
    return 2 if isinstance(cls, Sphere) else 1 if cls else 0


# ---------------------------------------------------------------------------
# Minimal one-sided polynomials and Wedderburn polynomials
# ---------------------------------------------------------------------------

def minimal_left_poly(b: Quat, c: Centralizer) -> UPoly:
    """The monic p with coefficients in c of least degree with p(b) = 0
    under left evaluation; every annihilator in c[x] is a left multiple.

    That is x - b when b is in c, and otherwise the class quadratic
    x^2 - 2Re(b)x + N(b): being central it vanishes on the whole class of b
    (Gordon-Motzkin), no linear polynomial in c[x] does, and two monic
    quadratics in c[x] vanishing at b would differ by a linear one.
    """
    if c.contains(b):
        return UPoly.linear(b)
    return UPoly.from_central([b.norm(), -2 * b.w, 1])


def minimal_right_poly(b: Quat, c: Centralizer) -> UPoly:
    """Monic p in c[x] of least degree with zero right evaluation at b: the
    same as `minimal_left_poly`, since x - b and the central class quadratic
    vanish at b on both sides."""
    return minimal_left_poly(b, c)


_WEDDERBURN_DEGREE_CAP = 4


def wedderburn_lclm(b: Quat, generators: Sequence[Quat]) -> UPoly:
    """Monic generator of the intersection of the left ideals (x - r*b*r^-1)
    for r running over the group generated by the given conjugators.

    Computed as a fixpoint: take least common left multiples until the
    result is stable under conjugation by every generator, at which point
    its coefficients all commute with the generators.  The result is a
    Wedderburn polynomial and equals the minimal left polynomial of b over
    the centralizer of the generator set.
    """
    gens = list(generators)
    for g in gens:
        if not g:
            raise InvalidInput("conjugator generators must be nonzero")
    p = UPoly.linear(b)
    changed = True
    while changed:
        changed = False
        for g in gens:
            ginv = g.inverse()
            conjugated = UPoly([g * c * ginv for c in p.coeffs])
            if conjugated != p:
                p = lclm(p, conjugated)
                changed = True
                if p.degree > _WEDDERBURN_DEGREE_CAP:
                    raise InternalError("Wedderburn fixpoint exceeded the degree cap")
    csub = centralizer_of_set(gens)
    for coeff in p.coeffs:
        if not csub.contains(coeff):
            raise InternalError("Wedderburn polynomial has a coefficient outside the centralizer")
    return p

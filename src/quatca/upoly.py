"""Univariate polynomials over the rational quaternions with a central x.

Coefficients sit on the left of the powers of x.  Because x commutes with
everything while the coefficients do not, left evaluation p(a) (coefficients
kept left of the powers of a) and right evaluation (powers left of the
coefficients) genuinely differ, and division comes in a right and a left
flavor.  A value a is a *right root* of p when the left evaluation p(a)
vanishes, equivalently when x - a divides p on the right.  Each right-handed
operation is conj . left . conj, as conjugation reverses products and fixes x.

The root search and the companion do no quaternion polynomial arithmetic.
Over the common denominator D of its coefficients, D*p = P0 + P1*i + P2*j
+ P3*k for four central integer polynomials, its rows
(`scalars._integer_rows`), which this module hands to `ratfactor` as they
come: there the companion p * conj(p) is the sum of their squares over
D^2, and a class remainder is one pseudo-remainder per row.  Left
evaluation is one Horner sum in integers, reduced once
(`scalars._left_horner`).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from . import ratfactor
from .errors import BOUNDS, InternalError, InvalidInput, refusal
from .intmath import rational_sqrt, three_squares
from .scalars import (
    BASIS,
    CENTER,
    Centralizer,
    ONE,
    QUADRATIC,
    Quat,
    ZERO,
    _Record,
    _growth,
    _integer_rows,
    _left_horner,
    _qmul,
    _reduced,
    _signed_sum,
    _term_text,
    centralizer_of_set,
    solve_combination,
)


class UPoly(_Record):
    """Polynomial sum of coeff_k * x^k; coeffs run low to high, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Quat] = ()):
        cs = [c if isinstance(c, Quat) else Quat.scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction --------------------------------------------------------

    @classmethod
    def constant(cls, q) -> "UPoly":
        return cls([q])

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

    def __bool__(self):
        return bool(self.coeffs)

    def _key(self) -> tuple:
        return (self.coeffs,)

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

    def _bound_evaluation(self, a: Quat) -> None:
        """InvalidInput when a^deg may have more bits than the bound on a
        power in the text."""
        bits = self.degree * _growth(a)
        if bits > BOUNDS["power_bits"][0]:
            raise InvalidInput(refusal("power_bits", "evaluation", degree=self.degree, bits=bits))

    def eval_left(self, a: Quat) -> Quat:
        """Evaluation with coefficients kept on the left of the powers of a,
        by a Horner sum in integers reduced once (`scalars._left_horner`).
        A point whose power at the degree may exceed the bits of the bound
        on a power is refused (`_bound_evaluation`)."""
        self._bound_evaluation(a)
        return _left_horner(self.coeffs, a)

    def eval_right(self, a: Quat) -> Quat:
        """Evaluation with the powers of a on the left of the coefficients:
        the conjugate of the left evaluation of conj_poly() at conj(a),
        under the same bound."""
        self._bound_evaluation(a)
        return _left_horner(self.conj_poly().coeffs, a.conjugate()).conjugate()

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
        if k < 0:
            raise InvalidInput(f"negative shift {k}")
        if self.is_zero():
            return self
        return UPoly([ZERO] * k + list(self.coeffs))

    def __str__(self) -> str:
        return _signed_sum(
            _term_text(c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __repr__(self) -> str:
        return f"UPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# One-sided gcd / common multiples
# ---------------------------------------------------------------------------

def _gcrd_combination(polys: Sequence[UPoly]) -> tuple[UPoly, list[UPoly]]:
    """(d, u) with d = sum_i u[i] * polys[i], where d is the monic generator
    of the left ideal the polys generate, or zero if every input is zero.

    The right-division Euclidean algorithm, folded over the inputs, with
    left Bezout cofactors: a remainder r = a - q*b carries u_a - q*u_b.  A
    dividend of lower degree than its divisor is its own remainder (q = 0),
    so the two swap without a division.
    """
    zeros = [UPoly()] * len(polys)
    a, ua = UPoly(), zeros
    for i, p in enumerate(polys):
        b, ub = p, zeros[:i] + [UPoly.constant(ONE)] + zeros[i + 1 :]
        while not b.is_zero():
            if a.degree < b.degree:
                a, ua, b, ub = b, ub, a, ua
                continue
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
    while not q.is_zero():
        p, q = q, p.divmod_right(q)[1]
    return p.monic()


def lclm(p: UPoly, q: UPoly) -> UPoly:
    """Least common left multiple: the monic generator of the intersection
    of the left ideals of p and q.

    u*p lies in the left ideal of q exactly when sum_k u_k * r_k = 0, where
    r_k is the right remainder of x^k * p by q; x is central, so r_{k+1} is
    the remainder of x * r_k.  By Ore's formula the least such monic u has
    degree d = deg q - deg gcrd(p, q), so r_0, ..., r_{d-1} are independent
    and one solve of sum_{k<d} u_k * r_k = -r_d gives u.
    """
    if p.is_zero() or q.is_zero():
        raise InvalidInput("lclm requires nonzero polynomials")
    d = q.degree - gcrd(p, q).degree
    rems = accumulate(range(d), lambda r, _: r.shift(1).divmod_right(q)[1],
                      initial=p.divmod_right(q)[1])
    *lower, top = ([r.coeff(j) for j in range(q.degree)] for r in rems)
    sol = solve_combination(lower, [-c for c in top], Centralizer.full())
    if sol is None:
        raise InternalError("least common left multiple search failed")  # pragma: no cover
    return (UPoly(sol + [ONE]) * p).monic()


# ---------------------------------------------------------------------------
# Root classes (Niven-Jacobson style search through the companion polynomial)
# ---------------------------------------------------------------------------

class RootSearchStatus(Enum):
    COMPLETE = "complete"
    POSSIBLY_INCOMPLETE = "possibly-incomplete"


class Isolated(_Record):
    """A single right root, the only one in its conjugacy class."""

    __slots__ = ("a",)

    def __init__(self, a: Quat):
        object.__setattr__(self, "a", a)


class Sphere(_Record):
    """A full conjugacy class {a : a^2 - t*a + n = 0} of right roots.

    Requires t^2 - 4n < 0.  The class may contain no point with rational
    coordinates; `sphere_member_in` decides that exactly.
    """

    __slots__ = ("t", "n")

    def __init__(self, t: Fraction, n: Fraction):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)


RootClass = Isolated | Sphere


def _class_roots(rows: list[list[int]], quad: Sequence[int]) -> RootClass | None:
    """The right roots in the class {a : L*a^2 - T*a + N = 0} of quad =
    [L, -T, N], L > 0 and T^2 < 4LN, of the polynomial p with coordinate
    rows `rows` (`scalars._integer_rows`).

    By Gordon-Motzkin a class holds only roots or at most one.  With
    p = q*f + alpha*x + beta for the central f = x^2 - (T/L)*x + N/L, every
    member a has p(a) = alpha*a + beta: zero remainder makes the whole class
    roots, and otherwise only -alpha^-1*beta = -conj(alpha)*beta/N(alpha)
    can be one, if it lies on the class.  The remainder is taken row by row
    as two integer 4-tuples, up to one positive scalar, which cancels in the
    candidate.  A quaternion lies on the class exactly when twice its real
    part is T/L and its norm is N/L, so the test reads integers only:
    -2<alpha, beta>*L = T*N(alpha) and N(beta)*L = N*N(alpha), with <,> the
    dot product of the tuples.  Only a class that passes becomes a `Quat`
    or a `Sphere`.
    """
    (a, b, c, d), (e, f, g, h) = ratfactor._class_remainder(rows, quad)
    lead, neg_trace, norm_class = quad
    norm = a * a + b * b + c * c + d * d
    if not norm:
        return None if e or f or g or h else Sphere(Fraction(-neg_trace, lead), Fraction(norm_class, lead))
    if 2 * (a * e + b * f + c * g + d * h) * lead != neg_trace * norm:
        return None
    if (e * e + f * f + g * g + h * h) * lead != norm_class * norm:
        return None
    return Isolated(_root_of_linear((a, b, c, d), (e, f, g, h)))


def _root_of_linear(alpha: Sequence[int], beta: Sequence[int]) -> Quat:
    """-alpha^-1*beta = -conj(alpha)*beta/N(alpha), the one right root of
    alpha*x + beta, for integer 4-tuples alpha != 0 and beta."""
    a, b, c, d = alpha
    return _reduced(*_qmul((-a, b, c, d), beta), a * a + b * b + c * c + d * d)


def right_roots(p: UPoly) -> tuple[list[RootClass], RootSearchStatus]:
    """All conjugacy classes of right roots discoverable over the rationals.

    Write p = q*c with c the central content.  The companion N(p) = c^2*N(q)
    has exactly the irreducible factors of c and of N(q), so those two are
    factored exactly over the rationals instead.  Both come from p's
    integer coordinate rows (`ratfactor._content_and_norm`).  They are
    factored by `ratfactor.factor_central` (a closed form up to degree 2,
    then float-proposed factors confirmed by exact division, with sympy
    only for what they leave), which reports its factors as primitive
    integer tuples.  Each linear factor [L, B] and each quadratic factor
    [L, B, C] with B^2 < 4LC carries at most one candidate class, checked
    exactly on p: rational roots -B/L ascending by left evaluation, then
    classes by (t, n) = (-B/L, C/L) ascending on p's rows.  The status is
    POSSIBLY_INCOMPLETE only when the rationals cannot split a factor: one
    of degree > 2, or a quadratic with real irrational roots (B^2 > 4LC).  Roots there may exist over a larger
    scalar field but have no rational-quaternion representative.  It never
    hides a rational-quaternion root: a root a makes x - a a right factor,
    so N(x - a) divides N(p), and N(x - a) is (x - a)^2 for a central a and
    the class quadratic otherwise, which `factor_central` reports.  A
    `Fraction` is made only to report or order a root or class.

    All of this runs on s with p = s*x^k and s(0) != 0: x is central, so
    p(a) = s(a)*a^k, and p's roots are s's and, when k > 0, the root 0.
    A degree of s past the "root_degree" bound is refused with InvalidInput
    before the search starts.

    A linear c1*x + c0 takes none of this: its one right root -c1^-1*c0 is
    returned as an `Isolated` class with status COMPLETE, the class the
    search above finds for it (the central content x - r for a central
    root r, otherwise the class quadratic N(x - a) with B^2 < 4LC).
    """
    if p.degree < 1:
        raise InvalidInput("root search needs a nonconstant polynomial")
    if p.degree == 1:
        (beta, m), (alpha, n) = ((c._n, c._d) for c in p.coeffs)
        # c1 = alpha/n and c0 = beta/m over the common denominator m*n.
        root = _root_of_linear([v * m for v in alpha], [v * n for v in beta])
        return [Isolated(root)], RootSearchStatus.COMPLETE
    k = next(k for k, c in enumerate(p.coeffs) if c)
    s = UPoly(p.coeffs[k:]) if k else p
    if s.degree > BOUNDS["root_degree"][0]:
        raise InvalidInput(refusal("root_degree", degree=s.degree))
    rows = _integer_rows(s.coeffs)[0]
    content, norm_q = ratfactor._content_and_norm(rows)
    # q's rows have no common root, so N(q), the sum of their squares, is
    # positive at every real x.
    facs = [ratfactor.factor_central(content)] if len(content) > 1 else []
    if len(norm_q) > 1:
        facs.append(ratfactor.factor_central(norm_q, no_real_roots=True))
    factors = {g for fac in facs for g, _mult in fac.factors}
    incomplete = not all(fac.complete for fac in facs)
    # s(0) != 0, so the factor x comes only from x^k.
    linear = {g for g in factors if len(g) == 2} | ({(1, 0)} if k else set())
    classes: list[RootClass] = []
    for root in sorted(Fraction(-b, lead) for lead, b in linear):
        cand = Quat.scalar(root)
        if not root or not _left_horner(s.coeffs, cand):
            classes.append(Isolated(cand))
    quadratics = (g for g in factors if len(g) == 3)
    for quad in sorted(quadratics, key=lambda g: (Fraction(-g[1], g[0]), Fraction(g[2], g[0]))):
        lead, b, c = quad
        if b * b > 4 * lead * c:
            # Real irrational roots: representable only over a larger field.
            incomplete = True
            continue
        cls = _class_roots(rows, quad)
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
    if c.kind == CENTER:
        return None
    if c.kind == QUADRATIC:
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

class RootSpaceBasis(_Record):
    """Basis of the conjugation root space of (p, a), a right vector space
    over the centralizer of a."""

    __slots__ = ("basis", "over")

    def __init__(self, basis: tuple[Quat, ...], over: Centralizer):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "over", over)

    @property
    def dim(self) -> int:
        return len(self.basis)


def root_space(p: UPoly, a: Quat) -> RootSpaceBasis:
    """Basis over the centralizer of a of the conjugators r sending a to a
    root of p; requires a itself to be a right root.

    A central a is its own class: the whole ring, basis {1}.  Otherwise, by
    Gordon-Motzkin, the class of a holds only roots (the whole ring, basis
    {1, the first of i, j, k outside C(a)}) or no root but a (C(a), {1}).
    The conjugate of a is a second point of its class, so one evaluation
    there tells the two apart.
    """
    if p.is_zero():
        raise InvalidInput("root space of the zero polynomial")
    if p.eval_left(a):
        raise InvalidInput("the base point must be a right root")
    c = centralizer_of_set([a])
    if a.is_central() or p.eval_left(a.conjugate()):
        return RootSpaceBasis((ONE,), c)
    return RootSpaceBasis((ONE, next(e for e in BASIS[1:] if not c.contains(e))), c)


def root_space_dim(p: UPoly, a: Quat) -> int:
    """Dimension of the conjugation root space of (p, a) over the
    centralizer of a; zero when no conjugate of a is a root.

    A central a gives 1 or 0.  Otherwise, by Gordon-Motzkin, the class of a
    holds only roots (2), exactly one root (1) or none (0).  As in
    `root_space`, an a whose power at the degree may pass the bound on a
    power is refused (`_bound_evaluation`) before the class remainder.
    """
    if a.is_central():
        return 0 if p.eval_left(a) else 1
    p._bound_evaluation(a)
    (w, x, y, z), m = a._n, a._d  # a's class quadratic from its numerators
    cls = _class_roots(_integer_rows(p.coeffs)[0], (m * m, -2 * w * m, w * w + x * x + y * y + z * z))
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


def wedderburn_lclm(b: Quat, generators: Sequence[Quat]) -> UPoly:
    """Monic generator of the intersection of the left ideals (x - r*b*r^-1)
    for r running over the group generated by the given conjugators.

    The orbit of b under that group is {b} exactly when b commutes with
    every generator, giving x - b.  Otherwise the orbit holds a second point
    b' of the class of b, and the lclm of x - b and x - b' is the central
    class quadratic: it vanishes on the whole class, and no linear
    polynomial vanishes at two points.  Either way the result is the minimal
    left polynomial of b over the centralizer of the generator set.
    """
    gens = list(generators)
    for g in gens:
        if not g:
            raise InvalidInput("conjugator generators must be nonzero")
    csub = centralizer_of_set(gens)
    p = minimal_left_poly(b, csub)
    for coeff in p.coeffs:
        if not csub.contains(coeff):
            raise InternalError("Wedderburn polynomial has a coefficient outside the centralizer")
    return p

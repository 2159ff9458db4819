"""Arithmetic on central (rational-coefficient) polynomials: the central
content, companion and class remainders of a quaternion polynomial, and
factorization.

A central polynomial here is in one form: a primitive integer coefficient
list, highest degree first, with a positive leading coefficient ([] for
zero).  By Gauss's lemma it loses nothing: a nonzero rational polynomial
is a rational multiple of exactly one such list, and a product of
primitive lists is primitive.  `factor_central` takes that form and
reports its factors in it, as tuples, from which `upoly.right_roots` reads
the roots and class quadratics; no `Fraction` enters this module.

A quaternion polynomial p reaches this module as its four coordinate rows
(`scalars._integer_rows`): integer lists of one length, highest degree
first, that are the coordinate polynomials of D*p for a positive integer
D.  Only this module reads them; `upoly` passes them on as they come.  x
is central, so the rows commute with the units, and each question
`upoly` asks of p is one on the rows, answered up to a positive scalar
that does not change it:
- the companion p * conj(p), the sum of the squares of the rows over D^2
  (`_sum_of_squares`), since the cross terms cancel;
- the central content c, the gcd over the rationals of the rows and so
  the central c of greatest degree with p = q*c (`_central_content`), one
  gcd of two primitive rows at a time by GCDHEU (`_gcd`; Char, Geddes &
  Gonnet 1989): the integer gcd of the two rows' values at one large
  integer, read back as a polynomial from its digits and accepted only
  once it divides both rows exactly.  A primitive remainder sequence
  decides only the rare pair GCDHEU gives up on, under a size bound whose
  excess is InvalidInput (`_remainder_gcd`);
- with it N(q) for q = p/c, from q's rows by exact division
  (`_content_and_norm`, `_exact_quotient`);
- the remainder alpha*x + beta of p by a class quadratic [L, -T, N], one
  pseudo-remainder per row with one multiplier for all four, read by a
  two-term recurrence (`_class_remainder`).
`upoly.right_roots` factors c and N(q), not N(p) = c^2*N(q), so over its
calls a leftover factor of the content counts once, not squared.

N(q) has no real root.  q's rows have gcd 1 over the rationals, hence over
the complex numbers too, so they share no root.  At a real x each row is
real, and N(q)(x), the sum of their squares, vanishes only where all four
do.  So N(q) is positive on the real line, and its roots are deg q
conjugate pairs.  The content c can have real roots.

Root-class extraction needs the linear and quadratic factors of a central
polynomial.  Degree 1 and 2 take a closed form (the integer discriminant
and its integer square root).  Above degree 2, floats propose and exact
division confirms: the complex roots of the polynomial F in the one form,
with leading coefficient L, are approximated by Aberth-Ehrlich iteration
(sweeping only the roots not yet settled), and each near-real root and
each pair with near-real sum and product is rounded to a candidate factor
over (1/L)Z, which by Gauss's lemma holds the coefficients of every monic
rational factor of F.  For N(q), which `right_roots` states has no real
root (`factor_central(..., no_real_roots=True)`), the iteration is paired:
it moves only deg F / 2 approximations, started in the upper half-plane,
with each one's conjugate counted in the repulsion, and each approximation
z proposes the one quadratic (2*Re z, |z|^2) rather than every pair.  A
candidate counts only once it divides exactly, so a bad float costs a
trial division, never an answer.

The cofactor C that no confirmed candidate explains is proved rather than
factored where possible.  Degree <= 2 takes the closed form.  Above it, a
few small primes p try the distinct-degree stage of Cantor & Zassenhaus
(1981): if p does not divide L and C mod p is prime to x^(p^2) - x, C has
no rational factor of degree 1 or 2, since one would keep its degree mod p
and split there into factors of degree 1 or 2, each dividing x^(p^2) - x.
C is then left over whole, as one factor, which may be a product of
irreducible factors of degree > 2.
Above degree 32 the primes try this proof on F before the floats run,
since a proof then costs less than they do.
Only a cofactor that no prime proves reaches sympy's exact `factor_list`
(C is all of F when floats cannot hold it or the iteration does not
settle); a bad prime costs time, never an answer.  Factorization over the
rationals is unique, so the factors of degree <= 2 are the ones sympy
alone would give, and the rest multiply to the product of its others.

Every path runs to the end, so `complete = False` means only that some
factor has degree > 2.  Quadratic factors are reported whatever their
discriminant; one with real irrational roots cannot be split further
either, and `upoly.right_roots` counts it as incomplete too.
"""

from __future__ import annotations

import sys
from collections import Counter
from math import cos, gcd, isfinite, isqrt, pi, sin
from typing import Iterable, Sequence

from .errors import BOUNDS, InternalError, InvalidInput, refusal
from .scalars import _Record

# Primes tried, in order, to prove a cofactor free of factors of degree
# <= 2: the odd primes below 100, those = 1 mod 3 first, since mod a prime
# = 2 mod 3 every x^3 - d has a root.  Each x^3 - d with d a non-cube up to
# 50 is proved by 7, 13 or 19.
_PROOF_PRIMES = (
    7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97,
    3, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89,
)
# Above this degree the small primes try to prove a polynomial free of
# factors of degree <= 2 before the floats run.  On a shared 2-core host a
# proof took 0.5 ms on x^64 + 1, where the floats took 114 ms and failed
# (20 s on x^800 + 1, the companion of x^400 + i), and 3 and 41 ms on dense
# polynomials of degree 64 and 128, against 60 and 730 ms of floats.  When
# a small factor exists no prime proves anything and the floats run after
# all: the failed proof cost 36 ms against 15 ms of floats at degree 32,
# 116 against 76 ms at 64 and 348 against 313 ms at 128.  Every companion
# of the `roots` benchmark has degree <= 8.
_PROOF_FIRST_DEGREE = 32
# Aberth-Ehrlich sweeps before the float stage gives up and hands the whole
# polynomial to sympy.  On the `roots` benchmark's N(q) at seeds 1-3 the
# paired sweeps take a median of 6, 6 and 8 at degree 4, 6 and 8, at most
# 18; the unpaired ones 6, 7 and 8, also at most 18.
_MAX_SWEEPS = 100
# A root approximation has settled once |F(z)| is within this many rounding
# errors of the evaluation, i.e. z is an exact root of a polynomial whose
# coefficients differ from F's in the last bits.
_SETTLED_ULPS = 8
# Evaluation points GCDHEU tries before the remainder sequence decides a
# gcd, as many as sympy's heuristic gcd tries.
_HEURISTIC_TRIES = 6


class CentralFactorization(_Record):
    """factors: sorted, distinct (g, multiplicity) pairs whose product is
    the polynomial, each g a tuple in the one form.  A g of degree <= 2 is
    irreducible; one of degree > 2 has no factor of degree <= 2, and is
    irreducible unless a small prime proved that (`_free_of_small_factors`).
    `leftover_degree` sums the degrees of those of degree > 2 with their
    multiplicities; `complete`: there is none.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "factors", factors)

    @property
    def leftover_degree(self) -> int:
        return sum((len(g) - 1) * mult for g, mult in self.factors if len(g) > 3)

    @property
    def complete(self) -> bool:
        return all(len(g) <= 3 for g, _mult in self.factors)


def _factor_low_degree(f: list[int]) -> list[tuple[list[int], int]]:
    """The irreducible factors of f = [L, B] or [L, B, C] in the one form,
    with their multiplicities, in closed form: a quadratic splits exactly
    when its discriminant B^2 - 4LC is a square s^2, and then
    4L*f = (2Lx + B + s)(2Lx + B - s), so its factors are the primitive
    parts of those two, one double factor when s = 0."""
    if len(f) == 2:
        return [(f, 1)]
    lead, b, c = f
    disc = b * b - 4 * lead * c
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [(f, 1)]
    if not s:
        return [(_primitive_part([2 * lead, b]), 2)]
    return [(_primitive_part([2 * lead, b + s]), 1), (_primitive_part([2 * lead, b - s]), 1)]


def _primitive_part(f: list[int]) -> list[int]:
    """f without leading zeros, divided by its content and signed so that
    the leading coefficient is positive; [] for zero."""
    f = f[next((k for k, c in enumerate(f) if c), len(f)):]
    content = -gcd(*f) if f and f[0] < 0 else gcd(*f)
    return [v // content for v in f]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b with deg b coefficients, leading
    zeros kept, for lc(b) nonzero; a itself when deg a < deg b.  The
    dividend is walked in place, so each step costs deg b products: a
    coefficient is owed lc(b)^k when it enters the window at step k."""
    f, lead, tail, n = list(a), b[0], b[1:], len(b) - 1
    steps, owed = len(a) - n, 1
    for k in range(steps):
        f[k + n] *= owed
        c = f[k]
        f[k + 1 : k + n + 1] = [lead * v - c * w for v, w in zip(f[k + 1 : k + n + 1], tail)]
        owed *= lead
    return f[max(steps, 0) :]


def _evaluate(f: list[int], xi: int) -> int:
    """f(xi) for an integer polynomial f, high to low."""
    value = 0
    for c in f:
        value = value * xi + c
    return value


def _symmetric_digits(h: int, xi: int) -> list[int]:
    """The polynomial, high to low, whose value at xi is h and whose
    coefficients are the digits of h in base xi, each in (-xi/2, xi/2]."""
    digits, half = [], xi // 2
    while h:
        d = h % xi
        if d > half:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    return digits[::-1]


def _remainder_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) in the one form for a and b in it, by the primitive
    remainder sequence (Knuth, TAOCP vol. 2, 4.6.1; Collins 1967).  It
    makes about len(a) * len(b) coefficient steps on numbers of up to
    (len(a) + len(b)) times the input's bits, each of W words costing W^2
    word products; past the "remainder_work" bound it raises InvalidInput
    before the first step."""
    bits = max(map(abs, a + b)).bit_length()
    words = 1 + (len(a) + len(b)) * bits // 64
    work = len(a) * len(b) * words * words
    if work > BOUNDS["remainder_work"][0]:
        raise InvalidInput(refusal("remainder_work", degrees=(len(a) - 1, len(b) - 1), bits=bits, work=work))
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return a


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) in the one form for a and b nonzero in it, by GCDHEU (Char,
    Geddes & Gonnet, J. Symbolic Comput. 7, 1989): at an integer xi of at
    least twice the smaller height plus 2, the primitive part g of the
    polynomial read from the symmetric base-xi digits of gcd(a(xi), b(xi))
    is the gcd exactly when it divides a and b, so a g that divides both
    is returned and any other one only grows xi.  After _HEURISTIC_TRIES
    values of xi the primitive remainder sequence decides
    (`_remainder_gcd`)."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEURISTIC_TRIES):
        g = _primitive_part(_symmetric_digits(gcd(_evaluate(a, xi), _evaluate(b, xi)), xi))
        if g and _exact_quotient(a, g) is not None and _exact_quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011  # about 2.73 times
    return _remainder_gcd(a, b)


def _central_content(rows: Iterable[list[int]]) -> list[int]:
    """The gcd over the rationals of the integer coordinate rows of a
    nonzero quaternion polynomial p (each high to low), in the one form: the
    central c of greatest degree with p = q*c.  The fold stops at gcd 1."""
    g: list[int] = []
    for f in map(_primitive_part, rows):
        if f:
            g = _gcd(g, f) if g else f
        if len(g) == 1:
            break
    return g


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f/g for integer polynomials high to low with g primitive, or None
    when g does not divide f.  By Gauss's lemma a quotient over the
    rationals is integral, so the first inexact step rejects."""
    f = list(f)
    steps = len(f) - len(g) + 1
    quotient = []
    for k in range(steps):
        q, r = divmod(f[k], g[0])
        if r:
            return None
        quotient.append(q)
        if q:
            for idx in range(1, len(g)):
                f[k + idx] -= q * g[idx]
    return None if any(f[max(steps, 0) :]) else quotient


def _sum_of_squares(rows: Sequence[list[int]]) -> list[int]:
    """The sum of the squares of integer polynomials of one length, high to
    low.  For the coordinate rows of a quaternion polynomial p that is the
    companion p * conj(p): x is central, so the rows commute with every
    unit and the cross terms cancel."""
    n = len(rows[0])
    out = [0] * max(2 * n - 1, 0)
    for row in rows:
        for i, a in enumerate(row):
            if a:
                out[2 * i] += a * a
                for j in range(i + 1, n):
                    out[i + j] += 2 * a * row[j]
    return out


def _content_and_norm(rows: Sequence[list[int]]) -> tuple[list[int], list[int]]:
    """(c, N(q)) in the one form for the coordinate rows of a nonzero
    quaternion polynomial p = q*c, c its central content: q's rows are
    p's divided exactly by c, and N(q) is the sum of their squares."""
    content = _central_content(rows)
    if len(content) > 1:
        rows = [_exact_quotient(row, content) for row in rows]
        if None in rows:
            raise InternalError("the central content does not divide the polynomial")
    return content, _primitive_part(_sum_of_squares(rows))


def _class_remainder(
    rows: Iterable[list[int]], quad: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alpha, beta) with alpha_m*x + beta_m the pseudo-remainder of row m
    (high to low) by the integer quadratic quad = [L, -T, N], L > 0, of the
    class x^2 - (T/L)*x + N/L.  Rows of one length take one multiplier
    L^k > 0, so for the coordinate rows of a quaternion polynomial p,
    alpha*x + beta is s times the remainder of p by the class quadratic
    for one rational s > 0.

    Each row is read by Horner's rule on its remainder u*x + v: appending
    a coefficient c makes it u*x^2 + v*x + c, and L*x^2 = T*x - N mod quad,
    so L times it leaves (L*v + T*u)*x + (L*c - N*u).  Every step scales
    the remainder by L, and c enters owing the L^k of the steps before
    it, which is exactly `_pseudo_remainder`'s multiplier."""
    lead, neg_trace, norm = quad
    alpha, beta = [], []
    for row in rows:
        u, v = ([0, 0] + row[:2])[-2:]
        owed = lead
        for c in row[2:]:
            u, v = lead * v - neg_trace * u, owed * c - norm * u
            owed *= lead
        alpha.append(u)
        beta.append(v)
    return tuple(alpha), tuple(beta)


def _approximate_roots(f: list[int], paired: bool = False) -> list[complex] | None:
    """All complex roots of an integer polynomial of degree >= 1 with
    nonzero constant term, by Aberth-Ehrlich iteration in floats; None when
    the coefficients do not fit a float, a value stops being finite or the
    sweeps run out.  A settled root is never moved, and its test reads only
    itself and F, so it stays settled: each sweep visits only the roots
    still moving.

    `paired` states that f has no real root, so that its roots are deg f / 2
    conjugate pairs.  Then one root of each pair is iterated, started in the
    upper half-plane, with both counting in the repulsion, and one root of
    each pair is returned.  A conjugate settles with its partner, since F's
    value there is the conjugate of F's value at it."""
    try:
        a = [c / f[0] for c in f]  # exact int quotients, correctly rounded
        sizes = [abs(c) for c in a]
        n = len(a) - 1
        radius = max(sizes[k] ** (1 / k) for k in range(1, n + 1))
        if paired:
            # Starts on the upper half-circle, turned off its mirror image
            # in the imaginary axis.
            n //= 2
            angles = [pi * (k + 0.4) / n for k in range(n)]
        else:
            # Starts on a circle, turned so that none is real and no two conjugate.
            angles = [2 * pi * k / n + 0.4 for k in range(n)]
        z = [radius * complex(cos(t), sin(t)) for t in angles]
        moving = range(n)
        for _ in range(_MAX_SWEEPS):
            still = []
            for i in moving:
                zi = z[i]
                value = slope = 0j
                bound, size = 0.0, abs(zi)
                for c, c_size in zip(a, sizes):
                    slope = slope * zi + value
                    value = value * zi + c
                    bound = bound * size + c_size
                if not isfinite(bound):
                    return None
                if abs(value) <= _SETTLED_ULPS * sys.float_info.epsilon * bound:
                    continue
                still.append(i)
                ratio = value / slope
                repulsion = 0
                for j, zj in enumerate(z):
                    if j != i:
                        repulsion += 1 / (zi - zj)
                if paired:
                    for zj in z:
                        repulsion += 1 / (zi - zj.conjugate())
                z[i] = zi - ratio / (1 - ratio * repulsion)
                if not isfinite(abs(z[i])):
                    return None
            if not still:
                return z
            moving = still
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _candidates(f: list[int], paired: bool = False) -> list[list[int]]:
    """Primitive integer candidates for the factors of degree 1, then 2, of
    f, rounded from its approximate roots; empty when floats fail.  With
    `paired` (f has no real root, `_approximate_roots`) each approximation
    z proposes only the quadratic of z and its conjugate, (2*Re z, |z|^2):
    every rational quadratic factor of f has a conjugate pair of roots."""
    roots = _approximate_roots(f, paired)
    if roots is None:
        return []
    lead = f[0]

    def on_grid(v: complex) -> int | None:
        # v*L rounded, when v lies within 1/(2L) of a point of (1/L)Z.
        scaled = v * lead
        m = round(scaled.real)
        return m if abs(scaled - m) < 0.5 else None

    linear, quadratic = {}, {}
    try:
        if paired:
            pairs = ((2 * r.real, r.real * r.real + r.imag * r.imag) for r in roots)
        else:
            for r in roots:
                m = on_grid(r)
                if m is not None:
                    g = gcd(lead, m)
                    linear[lead // g, -m // g] = None
            pairs = ((r + s, r * s) for i, r in enumerate(roots) for s in roots[i + 1:])
        for total, product in pairs:
            t, n = on_grid(total), on_grid(product)
            if t is not None and n is not None:
                g = gcd(lead, t, n)
                quadratic[lead // g, -t // g, n // g] = None
    except OverflowError:
        pass  # a root too large to scale; the candidates so far still stand
    return [list(c) for c in (*linear, *quadratic)]


def _x_power_mod(e: int, g: list[int], p: int) -> list[int]:
    """x^e mod (g, p) by square-and-multiply, for g monic of degree d >= 2;
    the result has d coefficients."""
    d = len(g) - 1
    r = [0] * (d - 1) + [1]
    for bit in bin(e)[2:]:
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    prod[i + j] += a * b
        if bit == "1":
            prod.append(0)
        for k in range(len(prod) - d):
            if c := prod[k] % p:
                for i in range(1, d + 1):
                    prod[k + i] -= c * g[i]
        r = [c % p for c in prod[-d:]]
    return r


def _coprime_mod(a: list[int], b: list[int], p: int) -> bool:
    """Whether gcd(a, b) = 1 mod p, for a of degree >= 1 and greater than
    b's, with b's coefficients reduced mod p.  Euclid on pseudo-remainders:
    every leading coefficient is a unit mod p, and so is the content of a
    list of residues, so each step keeps the gcd mod p."""
    while len(b := _primitive_part(b)) > 1:
        a, b = b, [c % p for c in _pseudo_remainder(a, b)]
    return bool(b)


def _free_of_small_factors(f: list[int]) -> bool:
    """Whether some prime of `_PROOF_PRIMES` proves that the integer
    polynomial f (degree >= 3) has no rational factor of degree 1 or 2:
    gcd(f mod p, x^(p^2) - x) = 1 for a p not dividing the leading
    coefficient.  False says nothing."""
    for p in _PROOF_PRIMES:
        if f[0] % p:
            inv = pow(f[0], -1, p)
            g = [c * inv % p for c in f]
            h = _x_power_mod(p * p, g, p)
            h[-2] = (h[-2] - 1) % p
            if _coprime_mod(g, h, p):
                return True
    return False


def _sympy_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """The irreducible factors of an integer polynomial of degree >= 1 with
    their multiplicities, from sympy's exact factorization."""
    from sympy import Poly, Symbol, ZZ  # deliberate lazy import

    return [
        ([int(c) for c in factor.rep.to_list()], mult)
        for factor, mult in Poly(f, Symbol("x"), domain=ZZ).factor_list()[1]
    ]


def factor_central(f: list[int], *, no_real_roots: bool = False) -> CentralFactorization:
    """The factors over the rationals (`CentralFactorization`), each in
    the one form, of a nonconstant polynomial in that form (a primitive
    integer list, high to low, with a positive leading coefficient).

    Candidate factors rounded from floating-point roots are confirmed by
    exact division, repeatedly for the multiplicity, and the cofactor they
    leave takes the closed form, a small-prime proof or sympy.  The floats
    and primes only choose which exact steps to take, so the factors of
    degree <= 2 are exactly the irreducible ones.

    `no_real_roots` states that f is positive at every real x, as N(q) of a
    polynomial q without central content is (`upoly.right_roots`); the
    floats then iterate one root of each conjugate pair (`_candidates`).
    Were it false, a factor they miss would still be found by the proof or
    sympy."""
    if len(f) < 2:
        raise ValueError("constant polynomial")
    rest, found = list(f), []
    # Divide out x exactly: the floats' settling test is relative to the
    # size of F's terms, which all vanish at 0, so approximations of the
    # root 0 never settle.
    zeros = 0
    while not rest[-1]:
        rest.pop()
        zeros += 1
    if zeros:
        found.append(([1, 0], zeros))
    proved = None  # whether the small primes prove rest free, once asked
    if len(rest) > _PROOF_FIRST_DEGREE + 1:
        proved = _free_of_small_factors(rest)
    for g in _candidates(rest, no_real_roots) if len(rest) > 3 and not proved else []:
        mult = 0
        while len(rest) >= len(g) and (q := _exact_quotient(rest, g)) is not None:
            rest, mult, proved = q, mult + 1, None
        if mult:
            found.append((g, mult))
    if len(rest) > 1:
        if proved is None:
            proved = len(rest) <= 3 or _free_of_small_factors(rest)
        if proved:
            found.append((rest, 1))
        else:
            found += _sympy_factors(rest)
    factors = Counter()
    for g, mult in found:
        for h, m in _factor_low_degree(g) if len(g) <= 3 else [(g, 1)]:
            factors[tuple(h)] += m * mult
    return CentralFactorization(tuple(sorted(factors.items())))

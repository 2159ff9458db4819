"""Multivariate polynomials over the rational quaternions with central,
pairwise-commuting variables; point ideals at commuting points; and the
certificate search for one-sided ideal membership of powers.

Coefficients collect on the left of monomials.  Certificates rest on one
shift: membership of (a*p)^N in J_N = I + I*(a*p) + ... + I*(a*p)^N is
upward closed in N, and the cofactors of the least member power m, moved
up N - m rows, certify (a*p)^N, so a certificate need not grow with N.

In one variable every left ideal is principal: I = H[x]*d_0 and, since
J_(m+1) = I + J_m*(a*p), J_m = H[x]*d_m with d_(m+1) the gcrd of d_0 and
d_m*(a*p).  That chain is stable within deg d_0 steps, membership at a
power is one right division by d_m, exact at every degree bound, and no
least member power exceeds max(1, deg d_0), so `find_certificate` also
answers "no certificate at any power".  In several variables a left
Groebner basis (Buchberger's algorithm in the solvable ring H[X]) decides
membership, exact at every degree bound when it finishes within a budget
of coefficient products no larger than the system it replaces; when it
shows some power (a*p)^k with k <= N in I, the least such power is lifted
over the generators alone, and the bases g_j*(a*p)^k with k >= 1 are
formed only for the stages that read them: the basis of J_N when I holds
no such power, and the full system.  Cofactors come from the chain or
the lift when they fit within the degree bound, and otherwise from linear
algebra over rational coordinates with the graded lexicographic monomial
order, which is fixed so that certificates are reproducible.  Each such
system is solved from the least degree that can reach its target up to
the degree bound, so its cofactors have the least largest degree it
admits, and a member with low-degree cofactors never builds the system at
the full bound.  The shifted cofactors also solve the system over every
g_j*(a*p)^k at the same degree bound, and when they do not fit that
system still runs, so the shift changes no outcome.

A one-variable polynomial passed to `upoly` holds one coefficient per
degree, so the conversion refuses a degree above 1,000,000 with
InvalidInput; `x^1000000000` is cheap as a sparse `MPoly` but not dense.
Reduction modulo a point writes one quotient term per unit of exponent, so
it refuses a term whose exponents times the point's growth exceed 2,000
bits, also with InvalidInput.  A certificate system is estimated from
degrees before it is built, at each degree it is solved at, and refused
past 16,000 quaternion entries; (a*p)^N is refused past 1,000 terms in
several variables and, where the one-variable chain's cofactors fit, past
1,250 dense coefficients, estimated before any power is formed; all with
InvalidInput.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from math import comb
from operator import add, sub
from typing import Collection, Iterable, Mapping

from .errors import InternalError, InvalidInput
from .scalars import (
    Centralizer, ONE, Quat, ZERO, _Record, _growth, _power, _signed_sum, _term_text,
    _words, solve_combination,
)
from .upoly import UPoly, _gcrd_combination

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


class MPoly(_Record):
    """Finite sum of coeff * x^alpha over exponent vectors alpha."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Quat] | None = None):
        if nvars < 1:
            raise InvalidInput("need at least one variable")
        clean: dict[Exponents, Quat] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InvalidInput(f"bad exponent vector {exps} for {nvars} variables")
            if not isinstance(coeff, Quat):
                coeff = Quat.scalar(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    # -- construction ---------------------------------------------------------

    @classmethod
    def constant(cls, q, nvars: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: q})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise InvalidInput(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, coeff: Quat, exps: Exponents) -> "MPoly":
        return cls(len(exps), {tuple(exps): coeff})

    # -- structure --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Quat]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def _key(self) -> tuple:
        return (self.nvars, self.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_compatible(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise InvalidInput("variable counts differ")

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, ZERO) + coeff
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        out: dict[Exponents, Quat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return MPoly(self.nvars, out)

    def scale_left(self, q: Quat) -> "MPoly":
        return MPoly(self.nvars, {e: q * c for e, c in self.terms.items()})

    def shift(self, exps: Exponents) -> "MPoly":
        """Multiply by the (central) monomial x^exps."""
        return MPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()},
        )

    def pow(self, n: int) -> "MPoly":
        """self^n by repeated squaring: at most 2 * n.bit_length() products."""
        return _power(self, n, MPoly.constant(ONE, self.nvars))

    def __str__(self) -> str:
        return _signed_sum(
            _term_text(c, "".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in enumerate(exps, 1) if e))
            for exps, c in reversed(self.sorted_terms())
        )

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())!r})"


def _mpoly(nvars: int, terms: dict[Exponents, Quat]) -> MPoly:
    """The MPoly of terms already keyed by tuples of nvars nonnegative ints,
    unchecked; zero coefficients are dropped."""
    p = object.__new__(MPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
    return p


# ---------------------------------------------------------------------------
# Commuting points and point ideals
# ---------------------------------------------------------------------------

class CommutingPoint(_Record):
    """Tuple of pairwise commuting quaternions; the commutation is validated
    at construction so downstream evaluation is order-independent."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Quat]):
        comps = tuple(
            c if isinstance(c, Quat) else Quat.scalar(c) for c in components
        )
        if not comps:
            raise InvalidInput("a commuting point needs at least one component")
        for a, b in combinations(comps, 2):
            if not a.commutes_with(b):
                raise InvalidInput(f"components do not commute: {a} and {b}")
        object.__setattr__(self, "components", comps)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, idx):
        return self.components[idx]

    def _key(self) -> tuple:
        return (self.components,)

    def __repr__(self):
        return f"CommutingPoint({list(self.components)!r})"

    def __str__(self):
        return "(" + "; ".join(str(c) for c in self.components) + ")"


class LeftIdeal(_Record):
    """Finitely many generators of a left ideal, all in the same ring."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[MPoly, ...]):
        if not gens:
            raise InvalidInput("a left ideal needs at least one generator")
        nvars = gens[0].nvars
        if any(g.nvars != nvars for g in gens):
            raise InvalidInput("ideal generators live in different rings")
        object.__setattr__(self, "gens", gens)

    @property
    def nvars(self) -> int:
        return self.gens[0].nvars


def point_ideal(pt: CommutingPoint) -> LeftIdeal:
    """Generators x_i - a_i of the left ideal vanishing at the point."""
    n = len(pt)
    gens = [
        MPoly.variable(i, n) - MPoly.constant(pt[i], n) for i in range(n)
    ]
    return LeftIdeal(tuple(gens))


def eval_at_point(p: MPoly, pt: CommutingPoint) -> Quat:
    """Left evaluation by substitution; well defined because the components
    commute, so each monomial has a single unambiguous value."""
    if p.nvars != len(pt):
        raise InvalidInput("point dimension does not match the ring")
    total = ZERO
    for exps, coeff in p.terms.items():
        value = coeff
        for a, e in zip(pt, exps):
            if e:
                value = value * a**e
        total = total + value
    return total


# Reducing a term c*x^e modulo a point writes one quotient term per unit of
# exponent, with coefficients c*a^s for s < e, so the work grows as e times
# the bits of a^e.  The bound is on e times the point's growth per factor
# (`scalars._growth`), at least one bit per unit of exponent, summed over
# the variables of each term.  The largest accepted power at `1+2i`,
# `x1^1722`, takes 0.08 s on a shared 2-core host, and `x1^10000` took 4.8 s.
_MAX_REDUCE_BITS = 2_000


def reduce_mod_point(p: MPoly, pt: CommutingPoint) -> tuple[Quat, list[MPoly]]:
    """Write p = sum_i q_i * (x_i - a_i) + r with r constant.

    Variables are eliminated from the highest index down by one-variable
    right division; the remainder always equals the left evaluation at the
    point, so membership in the point ideal is exactly r = 0.  A term whose
    exponents times the point's growth exceed _MAX_REDUCE_BITS is refused
    with InvalidInput before any work.
    """
    if p.nvars != len(pt):
        raise InvalidInput("point dimension does not match the ring")
    growth = [max(_growth(a), 1.0) for a in pt]
    if any(sum(g * e for g, e in zip(growth, exps)) > _MAX_REDUCE_BITS for exps in p.terms):
        raise InvalidInput(
            f"reduction of a power of more than the bound of {_MAX_REDUCE_BITS} bits modulo the point"
        )
    n = p.nvars
    quotients = [MPoly(n, {}) for _ in range(n)]
    rest = p
    for i in range(n - 1, -1, -1):
        a = pt[i]
        reduced: dict[Exponents, Quat] = {}
        q_i: dict[Exponents, Quat] = {}
        for exps, coeff in rest.terms.items():
            e = exps[i]
            base = list(exps)
            base[i] = 0
            base_t = tuple(base)
            if e == 0:
                reduced[base_t] = reduced.get(base_t, ZERO) + coeff
                continue
            # coeff*x^base*(x_i^e - a^e) = (sum_s coeff*a^s shifted) * (x_i - a)
            power = coeff
            for s in range(e):
                base[i] = e - 1 - s
                step = tuple(base)
                q_i[step] = q_i.get(step, ZERO) + power
                power = power * a
            reduced[base_t] = reduced.get(base_t, ZERO) + power
        quotients[i] = MPoly(n, q_i)
        rest = MPoly(n, reduced)
    remainder = rest.terms.get((0,) * n, ZERO)
    return remainder, quotients


# ---------------------------------------------------------------------------
# Membership certificates for powers (Rabinowitsch-style search)
# ---------------------------------------------------------------------------

class RabinowitschCertificate(_Record):
    """Cofactors h[k][j] witnessing
    (a*p)^N = sum_k sum_j h[k][j] * g_j * (a*p)^k, k = 0..N."""

    __slots__ = ("N", "cofactors")

    def __init__(self, N: int, cofactors: tuple[tuple[MPoly, ...], ...]):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "cofactors", cofactors)


class NotFoundWithinBounds(_Record):
    """No certificate exists within the given power and degree bounds.

    A non-member gets it at every degree bound: in one variable always, in
    several variables when the left Groebner basis finished within its
    budget.  A member gets it only when no certificate fits within
    degbound, and so does a non-member whose basis ran past the budget; in
    several variables the two cannot yet be told apart from outside.

    every_power is set by `find_certificate` in one variable when no power
    at all is a member, so no certificate exists at any power or degree
    bound.  It takes no part in equality or the hash: the answer is still
    the one for the bounds N and degbound."""

    __slots__ = ("N", "degbound", "every_power")

    def __init__(self, N: int, degbound: int, every_power: bool = False):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "degbound", degbound)
        object.__setattr__(self, "every_power", every_power)

    def _key(self) -> tuple:
        return (self.N, self.degbound)


def monomials_upto(nvars: int, degbound: int) -> list[Exponents]:
    """All exponent vectors of total degree <= degbound, in graded
    lexicographic order."""
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, budget: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, degbound)
    out.sort(key=grlex_key)
    return out


def rabinowitsch_check(
    ideal: LeftIdeal, p: MPoly, a: Quat, N: int, degbound: int
) -> RabinowitschCertificate | NotFoundWithinBounds:
    """Decide whether (a*p)^N lies in J_N = I + I*(a*p) + ... + I*(a*p)^N
    with cofactors of total degree at most degbound.

    Membership is upward closed: (a*p)^m in J_m puts (a*p)^(m+1) in
    J_m*(a*p), inside J_(m+1).  So a member has a least power m <= N with
    (a*p)^m = sum_k sum_j h[k][j]*g_j*(a*p)^k, and those cofactors moved up
    N - m rows certify (a*p)^N, since right multiplication by (a*p)^(N-m)
    turns each g_j*(a*p)^k into g_j*(a*p)^(k+N-m).  Such a certificate
    does not grow with N.

    In one variable the chain of J_m decides it (`_least_member_power`):
    a non-member gets NotFoundWithinBounds at every degree bound, and a
    member whose chain cofactors fit within degbound gets them.  In
    several variables a left Groebner basis decides membership first.  A
    non-member of J_N gets NotFoundWithinBounds at every degree bound and
    no system is built.  When I holds a power (a*p)^k with k <= N, one
    system over the generators alone lifts the least such power,
    (a*p)^k = sum_j h_j*g_j with deg h_j <= degbound, and h goes in row
    N - k.  The basis may make at most as many coefficient products as
    the system over every g_j*(a*p)^k has quaternion entries at degbound
    (`_groebner_budget`); past that the system alone decides, and its
    NotFoundWithinBounds is exact only for the given degree bound.

    Otherwise (a member of J_N only in several variables, or cofactors
    that do not fit) the cofactors come from exact linear algebra over
    every g_j*(a*p)^k and all monomials up to a degree d, solved for d
    from the least that can reach (a*p)^N up to degbound: the first
    consistent system answers, with least-degree cofactors.  The shifted
    cofactors above solve that system at the same degree bound, so they
    change no found/not-found outcome, and the bases g_j*(a*p)^k with
    k >= 1 are formed only when a stage reads them.

    Each system is estimated from degrees alone, before it or the bases
    it reads are built, at the degree about to be solved; past
    _MAX_SYSTEM_ENTRIES quaternion entries the check raises InvalidInput
    and names the bound.  In several variables the terms of (a*p)^N are
    estimated the same way before any power is formed, and past
    _MAX_POWER_TERMS the check raises InvalidInput too.  In one variable a
    member whose chain cofactors fit forms only the powers N - m..N that
    its rows read, the first by repeated squaring, and past
    _MAX_DENSE_POWER coefficient words of (a*p)^N (N*deg(a*p) + 1
    coefficients, each counted at the 64-bit words that N factors of a*p
    can fill) the check raises InvalidInput before forming any.

    A found certificate is verified by reconstructing the identity before
    it is returned.
    """
    if N < 1:
        raise InvalidInput("the power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")
    nvars = ideal.nvars
    if p.nvars != nvars:
        raise InvalidInput("polynomial and ideal live in different rings")
    ap = p.scale_left(a)
    zeros = [MPoly(nvars, {})] * len(ideal.gens)
    if nvars == 1:
        least = _least_member_power(ideal.gens, ap, N)
        if least is None:
            return NotFoundWithinBounds(N, degbound)
        m, rows = least
        if max(h.degree for row in rows for h in row) <= degbound:
            _bound_dense_power(ap, N)
            flat = zeros * (N - m) + [_from_upoly(h) for row in rows for h in row]
            return _certificate(ideal, _powers(ap, N, N - m), flat)
        _bound_system(_groebner_budget(ideal.gens, ap, N, 0), 0)
        ap_powers = _powers(ap, N)
        return _bounded_certificate(ideal, _bases(ideal.gens, ap_powers), ap_powers, degbound)
    _bound_power_terms(ap, N)
    ap_powers = _powers(ap, N)
    k = _membership(ideal.gens, ap_powers, _groebner_budget(ideal.gens, ap, N, degbound))
    if k == 0:
        return NotFoundWithinBounds(N, degbound)
    if k is not None and k <= N:
        lift = _bounded_cofactors(nvars, ideal.gens, ap_powers[k], degbound)
        if lift is not None:
            return _certificate(ideal, ap_powers, zeros * (N - k) + lift + zeros * k)
    _bound_system(_groebner_budget(ideal.gens, ap, N, 0), 0)
    return _bounded_certificate(ideal, _bases(ideal.gens, ap_powers), ap_powers, degbound)


def _powers(ap: MPoly, N: int, low: int = 0) -> list[MPoly | None]:
    """(a*p)^k for k = low..N, after low entries None: (a*p)^low by
    repeated squaring, then one multiplication per power."""
    powers = [None] * low + [ap.pow(low)]
    for _ in range(N - low):
        powers.append(powers[-1] * ap)
    return powers


def _bound_power_terms(ap: MPoly, N: int) -> None:
    """Refuse (a*p)^N past _MAX_POWER_TERMS terms, estimated from degrees
    (`_power_terms`) before any power is formed."""
    terms = _power_terms(ap.terms, N)
    if terms > _MAX_POWER_TERMS:
        raise InvalidInput(f"power (a*p)^{N} of up to {terms} terms, above the bound of {_MAX_POWER_TERMS}")


def _bound_dense_power(ap: MPoly, N: int) -> None:
    """In one variable, refuse (a*p)^N past _MAX_DENSE_POWER coefficient
    words before any power is formed: N*deg(a*p) + 1 coefficients when
    dense, each of about N times the bits a factor of a*p adds
    (`scalars._growth`), in 64-bit words as the Groebner budget counts
    them."""
    coeffs = N * _degree(ap) + 1
    words = 1 + int(N * max(map(_growth, ap.terms.values()), default=0.0)) // 64
    if coeffs * words > _MAX_DENSE_POWER:
        size = f" of {words} words each" if words > 1 else ""
        raise InvalidInput(
            f"power (a*p)^{N} of up to {coeffs} coefficients{size}, above the bound of {_MAX_DENSE_POWER}"
        )


def _bases(gens: tuple[MPoly, ...], ap_powers: list[MPoly]) -> list[MPoly]:
    """Every base g_j*(a*p)^k of J_N, in (k, generator) order."""
    return [g * power for power in ap_powers for g in gens]


def _least_member_power(
    gens: tuple[MPoly, ...], ap: MPoly, top: int | None = None
) -> tuple[int, list[list[UPoly]]] | None:
    """In one variable: the least m, at most top when given, with (a*p)^m
    in J_m, and rows U[k][j], k = 0..m, with
    (a*p)^m = sum_k sum_j U[k][j]*g_j*(a*p)^k; None when there is none.

    I = H[x]*d_0 with d_0 = sum_j v_j*g_j the monic gcrd, so a*p is tried
    against d_0 first: when I holds it, m = 1 and only row 0 is nonzero.
    Then the chain: J_(k+1) = I + J_k*(a*p), so J_k = H[x]*d_k with
    d_(k+1) = s*d_0 + t*d_k*(a*p) the monic gcrd of d_0 and d_k*(a*p).
    The cofactors of d_(k+1) are s*v in row 0 and, in row i+1, t times
    row i of d_k's.  Each strict step lowers the degree of d_k, so the
    chain is stable from some N0 <= deg d_0 on, and (a*p)^m is in J_m
    exactly when d_m right-divides it, with the quotient times d_m's
    cofactors as the rows.

    No member power exceeds N* = max(1, deg d_0), so the search stops
    there.  On H[x]/J_inf, a left H-space of dimension deg d_inf, right
    multiplication by a*p is left H-linear; when it sends 1 to zero after
    some number of steps, it does so within deg d_inf steps, and
    max(N0, deg d_inf) <= deg d_0."""
    zeros = [UPoly()] * len(gens)
    d0, v = _gcrd_combination([_to_upoly(g) for g in gens])
    step = power = _to_upoly(ap)
    if not d0:  # I = 0 holds only the powers of a*p = 0
        return None if power else (1, [zeros, zeros])
    q, r = power.divmod_right(d0)
    if not r:
        return 1, [[q * u for u in v], zeros]
    last = d0.degree if top is None else min(top, d0.degree)
    d, rows, stable = d0, [v], False
    for m in range(1, last + 1):
        if not stable:
            d_next, (s, t) = _gcrd_combination([d0, d * step])
            stable = d_next == d
        if stable:
            rows = rows + [zeros]
        else:
            d, rows = d_next, [[s * u for u in v]] + [[t * h for h in row] for row in rows]
        q, r = power.divmod_right(d)
        if not r:
            return m, [[q * h for h in row] for row in rows]
        power = power * step
    return None


def _groebner_budget(gens: tuple[MPoly, ...], ap: MPoly, N: int, degbound: int) -> int:
    """`_system_entries` of the system over all bases g_j*(a*p)^k,
    k = 0..N, at degree degbound: the Groebner pass's budget, and at
    degree 0 the first system that `_bounded_certificate` solves.  H[X] is
    a domain, so a nonzero base has degree deg g_j + k*deg(a*p), and no
    base is built to find the largest."""
    degrees = [_degree(g) for g in gens if g]
    top = max(degrees, default=0) + (N * _degree(ap) if degrees and ap else 0)
    return _system_entries(ap.nvars, (N + 1) * len(gens), top, degbound)


def _system_entries(nvars: int, nbases: int, top: int, d: int) -> int:
    """An upper bound on the quaternion entries of the system over nbases
    bases of total degree at most top: one column per (base, monomial up
    to d) and at most one row per monomial up to d + top."""
    return nbases * comb(nvars + d, nvars) * comb(nvars + d + top, nvars)


# The certificate system of I = H[x](x - i)^2, p = x - i, a = j at
# N = 124 and degree 0, estimated at 15,875 quaternion entries (125
# unknowns in 127 equations), is solved in about 1 s on a shared 2-core
# host; the largest estimate of the test suite is 13,200, and of the
# benchmark's instances 12.
_MAX_SYSTEM_ENTRIES = 16_000
# In several variables (a*p)^N is formed before the Groebner pass, one
# multiplication per power.  For I = (x1 - i, x2 - 2i), p = x1 + x2 + 1,
# a = 1 the search to max power 40 ((a*p)^40 of 861 terms) took 2.3 s on a
# shared 2-core host, to 50 (1,326 terms) 6.9 s and to 60 (1,891) 12.3 s;
# the largest estimate of the test suite is 45, and of the benchmark's
# instances 10.  The parser bounds its powers and products by this constant.
_MAX_POWER_TERMS = 1_000
# In one variable a member whose chain cofactors fit forms (a*p)^(N-m) by
# repeated squaring and the m powers above it, N*deg(a*p) + 1 coefficients
# dense.  For I = H[x](x - i)^2, p = x - i, a = j one-shot
# `quatca rabinowitsch` took 0.8 s at N = 1000, 0.9-1.5 s at 1,250,
# 1.3-1.5 s at 1,400 and 3.2 s at 2,000 on a shared 2-core host.  There a
# factor adds no bits to a coefficient (`scalars._growth` of j and k is 0),
# so each counts one word.  With a = 123456789j a factor adds 27 bits:
# counted as one word, N = 1249 took 34.8 s; N = 53, the largest admitted
# at 23 words, takes 0.2 s.
_MAX_DENSE_POWER = 1_250


def _bound_system(entries: int, d: int) -> None:
    """Refuse a certificate system past _MAX_SYSTEM_ENTRIES before it is
    built."""
    if entries > _MAX_SYSTEM_ENTRIES:
        raise InvalidInput(
            f"certificate system of up to {entries} quaternion entries at cofactor degree {d}, "
            f"above the bound of {_MAX_SYSTEM_ENTRIES}"
        )


def _max_terms(count: int, degree: int, exponents: Iterable[Exponents]) -> int:
    """A bound on the terms of a power or product: at most count, and at
    most the number of monomials up to degree in the variables that the
    exponent vectors of its factors use."""
    used = sum(map(any, zip(*exponents)))
    return min(count, comb(degree + used, used))


def _power_terms(exponents: Collection[Exponents], n: int) -> int:
    """`_max_terms` of the n-th power of a sum of t terms with these
    exponent vectors, at most C(n + t - 1, t - 1) of them."""
    t = len(exponents)
    return _max_terms(comb(n + t - 1, t - 1), n * max(map(sum, exponents)), exponents) if t > 1 else t


def _degree(p: MPoly) -> int:
    """Total degree of p, and 0 for the zero polynomial."""
    return max(map(sum, p.terms), default=0)


class _OverBudget(Exception):
    """The Groebner pass made more coefficient products than its budget."""


class _LeftBasis:
    """A left Groebner basis, in graded lexicographic order, of a left
    ideal of H[X] that grows by `add`.

    H[X] with central variables is a solvable polynomial ring
    (Kandri-Rody & Weispfenning, 1990), so Buchberger's algorithm holds
    with coefficients kept on the left.  Every element is made monic by
    left multiplication with the inverse of its leading coefficient; the
    S-polynomial of f and g with leading monomials x^alpha and x^beta and
    lcm x^L is x^(L-alpha)*f - x^(L-beta)*g; a reduction step subtracts
    c*x^gamma*g.  Buchberger's product criterion is not used, since its
    proof commutes the coefficients.  Pairs are taken smallest lcm first,
    and a constant in the basis ends the pass: the ideal is the whole ring.

    Polynomials are {exponents: coefficient} dicts.  Every coefficient
    product counts against the budget, times the 64-bit words of each of
    its two factors (`scalars._words`), since coefficients can grow far
    beyond those of the inputs; _OverBudget is raised once it is spent."""

    def __init__(self, budget: int):
        self.budget = budget
        # (monic element, its leading monomial, its coefficients' words)
        self.elements: list[tuple[dict[Exponents, Quat], Exponents, int]] = []
        self.pairs: list[tuple] = []
        self.whole = False

    def _spend(self, products: int) -> None:
        self.budget -= products
        if self.budget < 0:
            raise _OverBudget

    def reduce(self, terms: Mapping[Exponents, Quat]) -> dict[Exponents, Quat]:
        """terms less left multiples of the basis until no leading monomial
        of the basis divides its leading monomial; empty exactly when
        terms lies in the ideal."""
        if self.whole:
            return {}
        f = dict(terms)
        while f:
            lead = max(f, key=grlex_key)
            for g, beta, words in self.elements:
                if all(e >= b for e, b in zip(lead, beta)):
                    break
            else:
                return f
            c = f[lead]
            self._spend(len(g) * words * _words(c))
            _subtract(f, tuple(map(sub, lead, beta)), g, c)
        return f

    def add(self, polys: Iterable[Mapping[Exponents, Quat]]) -> None:
        """Extend the basis to one of the ideal with polys added."""
        for f in polys:
            self._insert(self.reduce(f))
        while self.pairs and not self.whole:
            _, i, j = heappop(self.pairs)
            (f, alpha, _), (g, beta, _) = self.elements[i], self.elements[j]
            lcm = tuple(map(max, alpha, beta))
            gamma = tuple(map(sub, lcm, alpha))
            s = {tuple(map(add, e, gamma)): c for e, c in f.items()}
            _subtract(s, tuple(map(sub, lcm, beta)), g)
            self._insert(self.reduce(s))

    def _insert(self, f: dict[Exponents, Quat]) -> None:
        if not f:
            return
        lead = max(f, key=grlex_key)
        if not any(lead):
            self.elements, self.pairs, self.whole = [({lead: ONE}, lead, 1)], [], True
            return
        inv = f[lead].inverse()
        self._spend(len(f) * _words(inv) * max(map(_words, f.values())))
        for i, (_, beta, _) in enumerate(self.elements):
            heappush(self.pairs, (grlex_key(tuple(map(max, beta, lead))), i, len(self.elements)))
        monic = {e: inv * c for e, c in f.items()}
        self.elements.append((monic, lead, max(map(_words, monic.values()))))


def _subtract(
    f: dict[Exponents, Quat], gamma: Exponents, g: Mapping[Exponents, Quat], c: Quat | None = None
) -> None:
    """f -= c * x^gamma * g in place, with c = 1 when None."""
    for e, q in g.items():
        key = tuple(map(add, e, gamma))
        term = q if c is None else c * q
        value = f[key] - term if key in f else -term
        if value:
            f[key] = value
        else:
            del f[key]


def _membership(gens: tuple[MPoly, ...], ap_powers: list[MPoly], budget: int) -> int | None:
    """From one left Groebner basis: the least k <= N with (a*p)^k =
    ap_powers[k] in the generators' left ideal I, else N + 1 when the sum
    J_N of all bases g_j*(a*p)^k holds (a*p)^N and 0 when it does not;
    None past the budget.  I holds every left multiple of a member, so it
    holds every power from the least one on: a*p and, when N > 1, (a*p)^N
    are reduced first, and the powers between only when I holds (a*p)^N
    but not a*p.  The bases with k >= 1 are formed only when I holds no
    power up to N."""
    N = len(ap_powers) - 1
    basis = _LeftBasis(budget)
    try:
        basis.add(g.terms for g in gens)
        if not basis.reduce(ap_powers[1].terms):
            return 1
        if N > 1 and not basis.reduce(ap_powers[N].terms):
            return next((k for k in range(2, N) if not basis.reduce(ap_powers[k].terms)), N)
        basis.add(base.terms for base in _bases(gens, ap_powers[1:]))
        return 0 if basis.reduce(ap_powers[N].terms) else N + 1
    except _OverBudget:
        return None


# The dense coefficient list of a one-variable polynomial holds one entry
# per degree, so a sparse x^1000000000 would take 10^9 of them;
# parse_upoly("x^1000000") takes 0.20 s.
_MAX_DENSE_DEGREE = 1_000_000


def _to_upoly(p: MPoly) -> UPoly:
    top = max((e for (e,) in p.terms), default=-1)
    if top > _MAX_DENSE_DEGREE:
        raise InvalidInput(
            f"degree {top} above the bound of {_MAX_DENSE_DEGREE} for a one-variable polynomial"
        )
    return UPoly([p.terms.get((e,), ZERO) for e in range(top + 1)])


def _from_upoly(p: UPoly) -> MPoly:
    return MPoly(1, {(e,): c for e, c in enumerate(p.coeffs)})


def _bounded_certificate(
    ideal: LeftIdeal, bases: list[MPoly], ap_powers: list[MPoly], degbound: int
) -> RabinowitschCertificate | NotFoundWithinBounds:
    """The certificate for (a*p)^N = ap_powers[N] with cofactors of total
    degree at most degbound, or NotFoundWithinBounds, from one rational
    system over every base g_j*(a*p)^k in (k, generator) order."""
    N = len(ap_powers) - 1
    flat = _bounded_cofactors(ideal.nvars, bases, ap_powers[N], degbound)
    if flat is None:
        return NotFoundWithinBounds(N, degbound)
    return _certificate(ideal, ap_powers, flat)


def _bounded_cofactors(
    nvars: int, bases: list[MPoly], target: MPoly, degbound: int
) -> list[MPoly] | None:
    """Cofactors h_i of least largest total degree, at most degbound, one
    per base, with target = sum_i h_i*bases[i]; None when there are none.

    The rational system is solved at degree d = d0, d0 + 1, ..., degbound
    and the first consistent one answers.  Cofactors of degree d reach no
    term above d plus the largest base degree, so d0 is the least d that
    reaches the target's degree, and a target past degbound plus that
    degree builds no system.  The system at d is a column subset of the
    one at d + 1, so the last one tried decides whether any exists."""
    top = max(map(_degree, bases), default=0)
    need = _degree(target)
    for d in range(max(0, need - top), degbound + 1):
        _bound_system(_system_entries(nvars, len(bases), top, d), d)
        monos = monomials_upto(nvars, d)

        # One known polynomial per (base, monomial); the unknown quaternion
        # multiple of each is what the solver finds.
        column_polys = [base.shift(mu) for base in bases for mu in monos]

        support: set[Exponents] = set(target.terms)
        for poly in column_polys:
            support.update(poly.terms)
        ordered = sorted(support, key=grlex_key)
        vectors = [[poly.terms.get(exps, ZERO) for exps in ordered] for poly in column_polys]
        sol = solve_combination(
            vectors, [target.terms.get(exps, ZERO) for exps in ordered], Centralizer.full()
        )
        if sol is not None:
            size = len(monos)
            return [MPoly(nvars, dict(zip(monos, sol[i : i + size]))) for i in range(0, len(sol), size)]
    return None


def _certificate(
    ideal: LeftIdeal, ap_powers: list[MPoly], flat: list[MPoly]
) -> RabinowitschCertificate:
    """The certificate with cofactors flat in (k, generator) order, once
    they fill N + 1 rows of one cofactor per generator and rebuild
    (a*p)^N = ap_powers[N]."""
    nvars, N, ngens = ideal.nvars, len(ap_powers) - 1, len(ideal.gens)
    if len(flat) != (N + 1) * ngens:
        raise InternalError(f"{len(flat)} cofactors for {N + 1} rows of {ngens} generators")
    cofactors = [flat[k * ngens : (k + 1) * ngens] for k in range(N + 1)]

    rebuilt = MPoly(nvars, {})
    for k in range(N + 1):
        for h, g in zip(cofactors[k], ideal.gens):
            if h:
                rebuilt = rebuilt + h * g * ap_powers[k]
    if rebuilt != ap_powers[N]:
        raise InternalError("certificate failed to reconstruct its identity")
    return RabinowitschCertificate(N, tuple(tuple(row) for row in cofactors))


def find_certificate(
    ideal: LeftIdeal, p: MPoly, a: Quat, max_power: int, degbound: int
) -> tuple[int, RabinowitschCertificate] | NotFoundWithinBounds:
    """Smallest power N <= max_power admitting a certificate, with the
    certificate.

    At a fixed degree bound certificates are upward closed in N, in any
    number of variables: one at N moved up one row certifies N + 1.  So
    the search checks its least candidate power low, then max_power, and
    bisects over (low, max_power]; each power is decided by the same
    `rabinowitsch_check` call as in a loop over every power, so the answer
    is the loop's.  In one variable low is the least member power m
    (`_least_member_power`), since every power below it is a non-member
    at every degree bound, and when no power up to N* = max(1, deg d_0),
    d_0 the monic gcrd of the generators, is a member, the answer is
    NotFoundWithinBounds with every_power set: no certificate exists at
    any power or degree bound.  In several variables low is 1 and the
    search is a bounded semidecision.  A probe past a bound of
    `rabinowitsch_check`, on its system or on the size of (a*p)^N,
    refuses the whole search with its InvalidInput, also where a loop over
    the powers below it would have found a certificate first."""
    if max_power < 1:
        raise InvalidInput("the largest power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")

    def certified(N: int) -> RabinowitschCertificate | None:
        outcome = rabinowitsch_check(ideal, p, a, N, degbound)
        return outcome if isinstance(outcome, RabinowitschCertificate) else None

    low = 1
    if ideal.nvars == 1:
        if p.nvars != 1:
            raise InvalidInput("polynomial and ideal live in different rings")
        least = _least_member_power(ideal.gens, p.scale_left(a))
        if least is None:
            return NotFoundWithinBounds(max_power, degbound, every_power=True)
        low = least[0]
        if low > max_power:
            return NotFoundWithinBounds(max_power, degbound)
    if cert := certified(low):
        return low, cert
    if low == max_power or (cert := certified(max_power)) is None:
        return NotFoundWithinBounds(max_power, degbound)
    high = max_power  # low has no certificate, high has cert
    while high - low > 1:
        mid = (low + high) // 2
        if found := certified(mid):
            high, cert = mid, found
        else:
            low = mid
    return high, cert

"""Multivariate polynomials over the rational quaternions with central,
pairwise-commuting variables; point ideals at commuting points; and the
certificate search for one-sided ideal membership of powers.

Coefficients collect on the left of monomials.  Certificates rest on one
shift: membership of (a*p)^N in J_N = I + I*(a*p) + ... + I*(a*p)^N is
upward closed in N, and the cofactors of the least member power m, moved
up N - m rows, certify (a*p)^N, so a certificate need not grow with N.

In one variable every left ideal is principal: I = H[x]*d_0 and, since
J_(m+1) = I + J_m*(a*p), J_m = H[x]*d_m with d_(m+1) the gcrd of d_0 and
d_m*(a*p).  A step leaves the chain where it is exactly when d_m
right-divides d_m*(a*p), so one division tests each step and the gcrd
runs only when the chain moves.  The chain is stable within deg d_0
steps, membership at a power is one right division by d_m, exact at every
degree bound, and no least member power exceeds max(1, deg d_0), so
`find_certificate`, which walks the chain once, also answers "no
certificate at any power".  In several variables a left
Groebner basis (Buchberger's algorithm in the solvable ring H[X], on
packed monomials with heap-ordered reduction, dropping a pair by the
first criterion only when its coefficients commute) decides
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

Sizes are estimated before the work they bound and refused with
InvalidInput past their rows of `errors.BOUNDS`: the degree of a
one-variable polynomial passed to `upoly` (`x^1000000000` is cheap as a
sparse `MPoly` but not dense), the bits of a reduction modulo a point, a
certificate system's entries at each degree it is solved at, and the
terms of (a*p)^N or, where the one-variable chain's cofactors fit, its
dense coefficient words.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, lcm
from operator import add
from typing import Collection, Iterable, Mapping, Sequence

from .errors import BOUNDS, InternalError, InvalidInput, refusal
from .scalars import (
    Centralizer, ONE, Quat, ZERO, _Record, _growth, _power, _signed_sum, _term_text,
    _reduced, _words, centralizer_of_set, solve_combination,
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
            exps = _exponents(exps, nvars)
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
            out[exps] = out[exps] + coeff if exps in out else coeff
        return _mpoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return _mpoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        """Each output term summed on integer numerators, over the least
        common denominators L of self's coefficients and R of other's, and
        reduced once, as `scalars._dot` does: (sum A*B)/(L*R)."""
        self._check_compatible(other)
        (left, dl), (right, dr) = _numerators(self.terms), _numerators(other.terms)
        sums: dict[Exponents, list[int]] = {}
        for e1, (a, b, c, d) in left:
            for e2, (e, f, g, h) in right:
                key = tuple(map(add, e1, e2))
                w = a * e - b * f - c * g - d * h
                x = a * f + b * e + c * h - d * g
                y = a * g - b * h + c * e + d * f
                z = a * h + b * g - c * f + d * e
                if key in sums:
                    acc = sums[key]
                    acc[0] += w
                    acc[1] += x
                    acc[2] += y
                    acc[3] += z
                else:
                    sums[key] = [w, x, y, z]
        den = dl * dr
        return _mpoly(self.nvars, {e: _reduced(w, x, y, z, den) for e, (w, x, y, z) in sums.items()})

    def scale_left(self, q: Quat) -> "MPoly":
        return _mpoly(self.nvars, {e: q * c for e, c in self.terms.items()})

    def shift(self, exps: Exponents) -> "MPoly":
        """Multiply by the (central) monomial x^exps."""
        exps = _exponents(exps, self.nvars)
        return _mpoly(self.nvars, {tuple(map(add, e, exps)): c for e, c in self.terms.items()})

    def pow(self, n: int) -> "MPoly":
        """self^n by repeated squaring (`scalars._power`): at most
        2 * n.bit_length() - 1 products, none by one."""
        return _power(self, n, MPoly.constant(ONE, self.nvars))

    def __str__(self) -> str:
        return _signed_sum(
            _term_text(c, "".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in enumerate(exps, 1) if e))
            for exps, c in reversed(self.sorted_terms())
        )

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())!r})"


def _exponents(exps: Iterable[int], nvars: int) -> Exponents:
    """exps as a tuple, once it is a vector of nvars nonnegative ints."""
    exps = tuple(exps)
    if len(exps) != nvars or min(exps) < 0:
        raise InvalidInput(f"bad exponent vector {exps} for {nvars} variables")
    return exps


def _numerators(terms: dict[Exponents, Quat]) -> tuple[list[tuple[Exponents, tuple]], int]:
    """The terms' coefficients as integer numerators over their least
    common denominator, with that denominator."""
    den = lcm(*(c._d for c in terms.values()))
    return [(e, c._n if c._d == den else tuple(v * (den // c._d) for v in c._n)) for e, c in terms.items()], den


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


def reduce_mod_point(p: MPoly, pt: CommutingPoint) -> tuple[Quat, list[MPoly]]:
    """Write p = sum_i q_i * (x_i - a_i) + r with r constant.

    Variables are eliminated from the highest index down by one-variable
    right division; the remainder always equals the left evaluation at the
    point, so membership in the point ideal is exactly r = 0.  A term whose
    exponents times the point's growth pass the "reduce_bits" bound is
    refused with InvalidInput before any work.
    """
    if p.nvars != len(pt):
        raise InvalidInput("point dimension does not match the ring")
    growth = [max(_growth(a), 1.0) for a in pt]
    if any(sum(g * e for g, e in zip(growth, exps)) > BOUNDS["reduce_bits"][0] for exps in p.terms):
        raise InvalidInput(refusal("reduce_bits"))
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
    out: list[Exponents] = [()]
    for _ in range(nvars):
        out = [e + (k,) for e in out for k in range(degbound + 1 - sum(e))]
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

    In one variable the chain of J_m decides it (`_least_member_power`,
    then `_one_variable_check`): a non-member gets NotFoundWithinBounds at
    every degree bound, and a member whose chain cofactors fit within
    degbound gets them.  In several variables a left Groebner basis
    decides membership first.  A non-member of J_N gets
    NotFoundWithinBounds at every degree bound and no system is built.
    When I holds a power (a*p)^k with k <= N, one system over the
    generators alone lifts the least such power, (a*p)^k = sum_j h_j*g_j
    with deg h_j <= degbound, and h goes in row N - k.  The basis may make at most as many coefficient products as
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
    it reads are built, at the degree about to be solved, and refused with
    InvalidInput past its bound; so is (a*p)^N before any power is formed,
    by its terms in several variables.  In one variable a member whose
    chain cofactors fit forms only the powers N - m..N that its rows read,
    as dense UPolys, the first by repeated squaring, once they pass
    `_bound_dense_power`.

    A found certificate is verified by reconstructing the identity before
    it is returned; in one variable from the chain, in dense form before
    its MPoly cofactors are built (`_dense_certificate`).
    """
    if N < 1:
        raise InvalidInput("the power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")
    nvars = ideal.nvars
    if p.nvars != nvars:
        raise InvalidInput("polynomial and ideal live in different rings")
    ap = p.scale_left(a)
    if nvars == 1:
        dense = tuple(map(_to_upoly, ideal.gens)), _to_upoly(ap)
        return _one_variable_check(ideal, ap, dense, _least_member_power(*dense, N), N, degbound)
    zeros = [MPoly(nvars, {})] * len(ideal.gens)
    _bound_power_terms(ap, N)
    ap_powers = _powers(ap, N)
    k = _membership(ideal.gens, ap_powers, _groebner_budget(ideal.gens, ap, N, degbound))
    if k == 0:
        return NotFoundWithinBounds(N, degbound)
    if k is not None and k <= N:
        lift = _bounded_cofactors(nvars, ideal.gens, ap_powers[k], degbound)
        if lift is not None:
            return _certificate(ideal, ap_powers, zeros * (N - k) + lift + zeros * k)
    return _system_certificate(ideal, ap, N, degbound, ap_powers)


def _system_certificate(
    ideal: LeftIdeal, ap: MPoly, N: int, degbound: int, ap_powers: list[MPoly] | None = None
) -> RabinowitschCertificate | NotFoundWithinBounds:
    """The answer of one system over every base g_j*(a*p)^k of J_N in
    (k, generator) order (`_bounded_cofactors`), refused before any base is
    built and, unless ap_powers holds them, before (a*p)^k is formed."""
    _bound_system(_groebner_budget(ideal.gens, ap, N, 0), 0)
    if ap_powers is None:
        ap_powers = _powers(ap, N)
    flat = _bounded_cofactors(ideal.nvars, _bases(ideal.gens, ap_powers), ap_powers[N], degbound)
    if flat is None:
        return NotFoundWithinBounds(N, degbound)
    return _certificate(ideal, ap_powers, flat)


def _powers(ap: MPoly, N: int) -> list[MPoly]:
    """(a*p)^k for k = 0..N, one multiplication per power."""
    powers = [ap.pow(0)]
    for _ in range(N):
        powers.append(powers[-1] * ap)
    return powers


def _bound_power_terms(ap: MPoly, N: int) -> None:
    """Refuse (a*p)^N past the bound on terms, estimated from degrees
    (`_power_terms`) before any power is formed."""
    terms = _power_terms(ap.terms, N)
    if terms > BOUNDS["terms"][0]:
        raise InvalidInput(refusal("terms", "ap", N=N, terms=terms))


def _bound_dense_power(ap: MPoly, N: int) -> None:
    """In one variable, refuse (a*p)^N past its bound on coefficient words
    before any power is formed: N*deg(a*p) + 1 coefficients when dense,
    each of about N times the bits a factor of a*p adds
    (`scalars._growth`), in 64-bit words as the Groebner budget counts
    them."""
    coeffs = N * _degree(ap) + 1
    words = 1 + int(N * max(map(_growth, ap.terms.values()), default=0.0)) // 64
    if coeffs * words > BOUNDS["dense_power"][0]:
        kind = "words" if words > 1 else "word"
        raise InvalidInput(refusal("dense_power", kind, N=N, coeffs=coeffs, words=words))


def _bases(gens: tuple[MPoly, ...], ap_powers: list[MPoly]) -> list[MPoly]:
    """Every base g_j*(a*p)^k of J_N, in (k, generator) order."""
    return [g * power for power in ap_powers for g in gens]


def _least_member_power(
    gens: Sequence[UPoly], ap: UPoly, top: int | None = None
) -> tuple[int, list[list[UPoly]]] | None:
    """In one variable, from the generators g_j and a*p as UPolys: the
    least m, at most top when given, with (a*p)^m in J_m, and rows U[k][j],
    k = 0..m, with (a*p)^m = sum_k sum_j U[k][j]*g_j*(a*p)^k; None when
    there is none.

    I = H[x]*d_0 with d_0 = sum_j v_j*g_j the monic gcrd, so a*p is tried
    against d_0 first: when I holds it, m = 1 and only row 0 is nonzero.
    Then the chain: J_(k+1) = I + J_k*(a*p), so J_k = H[x]*d_k with
    d_(k+1) = s*d_0 + t*d_k*(a*p) the monic gcrd of d_0 and d_k*(a*p).
    J_k holds I and J_(k+1) holds J_k, so the step leaves J_k as it is
    exactly when d_k right-divides d_k*(a*p): one division tests it, and
    the gcrd with its Bezout cofactors runs only when the chain moves.
    The cofactors of d_(k+1) are s*v in row 0 and, in row i+1, t times
    row i of d_k's; a step that does not move adds a zero row.  Each strict
    step lowers the degree of d_k, so the chain is stable from some
    N0 <= deg d_0 on, and (a*p)^m is in J_m exactly when d_m right-divides
    it, with the quotient times d_m's cofactors as the rows.  Each power
    is divided once: at m = 1 a chain still at d_0 has had a*p tried
    already, and no power is formed past the last one tried.

    No member power exceeds N* = max(1, deg d_0), so the search stops
    there.  On H[x]/J_inf, a left H-space of dimension deg d_inf, right
    multiplication by a*p is left H-linear; when it sends 1 to zero after
    some number of steps, it does so within deg d_inf steps, and
    max(N0, deg d_inf) <= deg d_0."""
    zeros = [UPoly()] * len(gens)
    d0, v = _gcrd_combination(gens)
    if not d0:  # I = 0 holds only the powers of a*p = 0
        return None if ap else (1, [zeros, zeros])
    q, r = ap.divmod_right(d0)
    if not r:
        return 1, [[q * u for u in v], zeros]
    last = d0.degree if top is None else min(top, d0.degree)
    d, rows, power, moving = d0, [v], ap, True
    for m in range(1, last + 1):
        if m > 1:
            power = power * ap
        if moving:
            shifted = d * ap
            moving = bool(shifted.divmod_right(d)[1])
        if moving:
            d, (s, t) = _gcrd_combination([d0, shifted])
            rows = [[s * u for u in v]] + [[t * h for h in row] for row in rows]
        else:
            rows = rows + [zeros]
            if m == 1:
                continue
        q, r = power.divmod_right(d)
        if not r:
            return m, [[q * h for h in row] for row in rows]
    return None


def _one_variable_check(
    ideal: LeftIdeal,
    ap: MPoly,
    dense: tuple[tuple[UPoly, ...], UPoly],
    least: tuple[int, list[list[UPoly]]] | None,
    N: int,
    degbound: int,
) -> RabinowitschCertificate | NotFoundWithinBounds:
    """`rabinowitsch_check` in one variable at N, from the chain's least
    member power m and its rows, `least` (`_least_member_power`, None when
    no power up to N is a member), and the generators and a*p as UPolys,
    `dense`.  A power below m is a non-member at every degree bound.  Rows
    that fit within degbound certify N once (a*p)^N passes
    `_bound_dense_power` (`_dense_certificate`); rows that do not leave the
    answer to the system over every base (`_system_certificate`).  So
    `find_certificate` walks the chain once and asks this for each power it
    probes, with the answer and the InvalidInput of the check at that
    power."""
    if least is None or least[0] > N:
        return NotFoundWithinBounds(N, degbound)
    rows = least[1]
    if max(h.degree for row in rows for h in row) <= degbound:
        _bound_dense_power(ap, N)
        return _dense_certificate(*dense, N, rows)
    return _system_certificate(ideal, ap, N, degbound)


def _dense_certificate(
    gens: Sequence[UPoly], ap: UPoly, N: int, rows: list[list[UPoly]]
) -> RabinowitschCertificate:
    """The certificate at N from the chain's rows for its least member
    power m = len(rows) - 1, moved up N - m rows below which every row is
    zero.  The identity is checked on UPolys before any MPoly cofactor is
    built: (a*p)^(N-m) by repeated squaring and one product per row above
    it, then sum_k (sum_j h_kj*g_j)*(a*p)^(N-m+k) must equal (a*p)^N."""
    m = len(rows) - 1
    powers = [_power(ap, N - m, None)]  # None stands for (a*p)^0 = 1
    for _ in range(m):
        powers.append(ap if powers[-1] is None else powers[-1] * ap)
    _rebuilt(gens, rows, powers, UPoly(), powers[-1])
    zeros = (MPoly(1, {}),) * len(gens)
    return RabinowitschCertificate(N, (zeros,) * (N - m) + tuple(tuple(map(_from_upoly, row)) for row in rows))


def _groebner_budget(gens: tuple[MPoly, ...], ap: MPoly, N: int, degbound: int) -> int:
    """`_system_entries` of the system over all bases g_j*(a*p)^k,
    k = 0..N, at degree degbound: the Groebner pass's budget, and at
    degree 0 the first system that `_system_certificate` solves.  H[X] is
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


def _bound_system(entries: int, d: int) -> None:
    """Refuse a certificate system of this many entries at cofactor degree d
    before it is built."""
    if entries > BOUNDS["system_entries"][0]:
        raise InvalidInput(refusal("system_entries", entries=entries, d=d))


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
    c*x^gamma*g.  Pairs are taken smallest lcm first, and a constant in
    the basis ends the pass: the ideal is the whole ring.

    Buchberger's first criterion drops the pair of f and g when alpha and
    beta are coprime and every coefficient of f commutes with every
    coefficient of g.  Then f*g = g*f, and with f = x^alpha + f' and
    g = x^beta + g' the S-polynomial x^beta*f - x^alpha*g is f'*g - g'*f,
    whose two products lead below x^L.  Without the commuting condition
    the criterion fails: the S-polynomial of x1 - i and x2 - j reduces
    to j*i - i*j = -2k, and the ideal is the whole ring.  Every point
    ideal of a commuting point gives only such pairs.

    Monomials are packed into one int each (Monagan & Pearce, J. Symbolic
    Comput. 46, 2011): the total degree in the top field, then one field
    per exponent, each with a guard bit above it, so that comparing two
    keys is comparing their `grlex_key`s, x^gamma*x^beta is one addition,
    and x^beta divides x^alpha exactly when alpha - beta sets no guard
    bit.  The fields hold twice the largest degree the pass is built for,
    and widen when an lcm needs more.  A reduction takes each leading
    term from a heap of f's monomials with lazy deletion: a monomial that
    cancels stays in the heap until it reaches the top.

    `add` and `reduce` take {exponents: coefficient} mappings; `reduce`
    returns the remainder keyed by packed monomials (`_unpack` reads
    them).  Every coefficient product counts against the budget, times the
    64-bit words of each of its two factors (`scalars._words`), since
    coefficients can grow far beyond those of the inputs; _OverBudget is
    raised once it is spent."""

    def __init__(self, budget: int, nvars: int, degree: int):
        self.budget = budget
        self.nvars = nvars
        # (packed leading monomial, the other terms as (packed monomial,
        # coefficient) pairs, its coefficients' words, its leading
        # exponents, the centralizer of its coefficients)
        self.elements: list[tuple[int, list[tuple[int, Quat]], int, Exponents, Centralizer]] = []
        self.pairs: list[tuple[int, int, int]] = []
        self.whole = False
        self._fit(2 * degree)

    def _fit(self, degree: int) -> None:
        """Fields wide enough for every monomial of total degree <= degree,
        and a guard bit above each exponent field."""
        width = degree.bit_length() + 1
        self.width = width
        self.top = (1 << (width - 1)) - 1  # the largest total degree packed
        self.shifts = range(width * (self.nvars - 1), -1, -width)
        self.guards = sum(1 << (shift + width - 1) for shift in self.shifts)

    def _pack(self, exps: Exponents) -> int:
        """The key of x^exps; InternalError when its degree passes the
        fields, which every caller sizes beforehand."""
        degree = sum(exps)
        if degree > self.top:
            raise InternalError(f"a monomial of degree {degree} does not fit fields of {self.width} bits")
        key = degree
        for e in exps:
            key = key << self.width | e
        return key

    def _unpack(self, key: int) -> Exponents:
        """The exponents of a key."""
        field = (1 << self.width) - 1
        return tuple(key >> shift & field for shift in self.shifts)

    def _spend(self, products: int) -> None:
        self.budget -= products
        if self.budget < 0:
            raise _OverBudget

    def reduce(self, terms: Mapping[Exponents, Quat]) -> dict[int, Quat]:
        """terms less left multiples of the basis until no leading monomial
        of the basis divides its leading monomial, keyed by packed
        monomials; empty exactly when terms lies in the ideal."""
        f = {self._pack(e): c for e, c in terms.items()}
        self._reduce(f)
        return f

    def _reduce(self, f: dict[int, Quat]) -> int | None:
        """`reduce` on packed f in place; f's leading monomial after, None
        when f is zero."""
        if self.whole:
            f.clear()
            return None
        heap = [-e for e in f]
        heapify(heap)
        guards = self.guards
        while heap:
            lead = -heap[0]
            if lead not in f:
                heappop(heap)
                continue
            for beta, tail, words, _, _ in self.elements:
                gamma = lead - beta
                if not gamma & guards:
                    break
            else:
                return lead
            c = f[lead]
            self._spend((len(tail) + 1) * words * _words(c))
            del f[lead]
            heappop(heap)
            for e in _subtract(f, gamma, tail, c):
                heappush(heap, -e)
        return None

    def add(self, polys: Iterable[Mapping[Exponents, Quat]]) -> None:
        """Extend the basis to one of the ideal with polys added."""
        for terms in polys:
            f = {self._pack(e): c for e, c in terms.items()}
            self._insert(f, self._reduce(f))
        while self.pairs and not self.whole:
            lcm, i, j = heappop(self.pairs)
            (alpha, f_tail, *_), (beta, g_tail, *_) = self.elements[i], self.elements[j]
            gamma = lcm - alpha
            s = {e + gamma: c for e, c in f_tail}
            _subtract(s, lcm - beta, g_tail)
            self._insert(s, self._reduce(s))

    def _insert(self, f: dict[int, Quat], lead: int | None) -> None:
        if lead is None:
            return
        if not lead:
            self.elements, self.pairs, self.whole = [(0, [], 1, (0,) * self.nvars, Centralizer.full())], [], True
            return
        inv = f[lead].inverse()
        self._spend(len(f) * _words(inv) * max(map(_words, f.values())))
        alpha = self._unpack(lead)
        tail = [(e, inv * c) for e, c in f.items() if e != lead]
        centralizer = centralizer_of_set(c for _, c in tail)
        lcms = []
        for i, (_, other, _, beta, _) in enumerate(self.elements):
            lcm = tuple(map(max, alpha, beta))
            if sum(lcm) < sum(alpha) + sum(beta) or not all(centralizer.contains(c) for _, c in other):
                lcms.append((lcm, i))
        new = len(self.elements)
        self.elements.append((lead, tail, max((_words(c) for _, c in tail), default=1), alpha, centralizer))
        degree = max((sum(lcm) for lcm, _ in lcms), default=0)
        if degree > self.top:
            self._widen(degree)
        for lcm, i in lcms:
            heappush(self.pairs, (self._pack(lcm), i, new))

    def _widen(self, degree: int) -> None:
        """Refit the fields to twice degree and repack the basis and the
        pairs; packing keeps the order, so the pairs stay a heap."""
        field, shifts = (1 << self.width) - 1, self.shifts
        self._fit(2 * degree)

        def repack(key: int) -> int:
            return self._pack(tuple(key >> shift & field for shift in shifts))

        self.elements = [
            (repack(beta), [(repack(e), c) for e, c in tail], *rest) for beta, tail, *rest in self.elements
        ]
        self.pairs = [(repack(lcm), i, j) for lcm, i, j in self.pairs]


def _subtract(f: dict[int, Quat], gamma: int, terms: list[tuple[int, Quat]], c: Quat | None = None) -> list[int]:
    """f -= c * x^gamma * terms in place, on packed monomials, with c = 1
    when None; the monomials it adds to f."""
    added = []
    for e, q in terms:
        key = e + gamma
        term = q if c is None else c * q
        if key in f:
            value = f[key] - term
            if value:
                f[key] = value
            else:
                del f[key]
        else:
            f[key] = -term
            added.append(key)
    return added


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
    basis = _LeftBasis(budget, ap_powers[0].nvars, max(map(_degree, gens)) + N * _degree(ap_powers[1]))
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


def _to_upoly(p: MPoly) -> UPoly:
    top = max((e for (e,) in p.terms), default=-1)
    if top > BOUNDS["dense_degree"][0]:
        raise InvalidInput(refusal("dense_degree", degree=top))
    return UPoly([p.terms.get((e,), ZERO) for e in range(top + 1)])


def _from_upoly(p: UPoly) -> MPoly:
    return _mpoly(1, {(e,): c for e, c in enumerate(p.coeffs)})


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
    _rebuilt(ideal.gens, cofactors, [None] + ap_powers[1:], MPoly(nvars, {}), ap_powers[N])
    return RabinowitschCertificate(N, tuple(tuple(row) for row in cofactors))


def _rebuilt(gens: Sequence, rows: Sequence[Sequence], powers: Sequence, zero, target) -> None:
    """Raise InternalError unless sum_k (sum_j rows[k][j]*gens[j])*powers[k]
    equals target, over MPolys or UPolys, with None in powers for
    (a*p)^0 = 1: each row's combination is summed before its one product,
    and a row of zero cofactors makes none."""
    total = zero
    for row, power in zip(rows, powers):
        combo = zero
        for h, g in zip(row, gens):
            if h:
                combo = combo + h * g
        if combo:
            total = total + (combo if power is None else combo * power)
    if total != target:
        raise InternalError("certificate failed to reconstruct its identity")


def find_certificate(
    ideal: LeftIdeal, p: MPoly, a: Quat, max_power: int, degbound: int
) -> tuple[int, RabinowitschCertificate] | NotFoundWithinBounds:
    """Smallest power N <= max_power admitting a certificate, with the
    certificate.

    At a fixed degree bound certificates are upward closed in N, in any
    number of variables: one at N moved up one row certifies N + 1.  So
    the search checks its least candidate power low, then max_power, and
    bisects over (low, max_power]; each power is decided as
    `rabinowitsch_check` decides it, so the answer is a loop's over every
    power.  In one variable the chain is walked once
    (`_least_member_power`), and each probe reads its least member power
    m and rows (`_one_variable_check`).  low is m, since every power below
    it is a non-member at every degree bound, and when no power up to
    N* = max(1, deg d_0), d_0 the monic gcrd of the generators, is a
    member, the answer is NotFoundWithinBounds with every_power set: no
    certificate exists at any power or degree bound.  In several
    variables each probe is one `rabinowitsch_check`, low is 1 and the
    search is a bounded semidecision.  A probe past a bound of
    `rabinowitsch_check`, on its system or on the size of (a*p)^N,
    refuses the whole search with its InvalidInput, also where a loop over
    the powers below it would have found a certificate first."""
    if max_power < 1:
        raise InvalidInput("the largest power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")

    def certified(N: int) -> RabinowitschCertificate | None:
        if least is None:
            outcome = rabinowitsch_check(ideal, p, a, N, degbound)
        else:
            outcome = _one_variable_check(ideal, ap, dense, least, N, degbound)
        return outcome if isinstance(outcome, RabinowitschCertificate) else None

    low, least = 1, None
    if ideal.nvars == 1:
        if p.nvars != 1:
            raise InvalidInput("polynomial and ideal live in different rings")
        ap = p.scale_left(a)
        dense = tuple(map(_to_upoly, ideal.gens)), _to_upoly(ap)
        least = _least_member_power(*dense)
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

"""Multivariate polynomials over the rational quaternions with central,
pairwise-commuting variables; point ideals at commuting points; and the
certificate search for one-sided ideal membership of powers.

Coefficients collect on the left of monomials.  In one variable every left
ideal is principal, so certificate membership is one extended gcrd and one
right division, exact at every degree bound.  Otherwise, and when the gcrd
cofactors exceed the degree bound, the certificate search runs its linear
algebra over rational coordinates with the graded lexicographic monomial
order, which is fixed so that certificates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .errors import InternalError, InvalidInput
from .scalars import Centralizer, ONE, Quat, ZERO, solve_combination
from .upoly import UPoly, _coeff_text, _gcrd_combination

Exponents = tuple[int, ...]


def grlex_key(exps: Exponents) -> tuple:
    return (sum(exps), exps)


class MPoly:
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

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

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
        result = MPoly.constant(ONE, self.nvars)
        for _ in range(n):
            result = result * self
        return result

    def __str__(self) -> str:
        return format_mpoly(self)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())!r})"


def format_mpoly(p: MPoly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        sign, body = _coeff_text(coeff)
        mono = "".join(
            f"x{idx + 1}" if e == 1 else f"x{idx + 1}^{e}"
            for idx, e in enumerate(exps)
            if e
        )
        if mono:
            body = mono if body == "1" else f"{body}{mono}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Commuting points and point ideals
# ---------------------------------------------------------------------------

class CommutingPoint:
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

    def __setattr__(self, name, value):
        raise AttributeError("CommutingPoint is immutable")

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, idx):
        return self.components[idx]

    def __eq__(self, other):
        if not isinstance(other, CommutingPoint):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"CommutingPoint({list(self.components)!r})"

    def __str__(self):
        return "(" + "; ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class LeftIdeal:
    """Finitely many generators of a left ideal, all in the same ring."""

    gens: tuple[MPoly, ...]

    def __post_init__(self):
        if not self.gens:
            raise InvalidInput("a left ideal needs at least one generator")
        nvars = self.gens[0].nvars
        if any(g.nvars != nvars for g in self.gens):
            raise InvalidInput("ideal generators live in different rings")

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
    point, so membership in the point ideal is exactly r = 0.
    """
    if p.nvars != len(pt):
        raise InvalidInput("point dimension does not match the ring")
    n = p.nvars
    quotients = [MPoly(n, {}) for _ in range(n)]
    rest = p
    for i in range(n - 1, -1, -1):
        a = pt[i]
        reduced: dict[Exponents, Quat] = {}
        q_i = MPoly(n, {})
        for exps, coeff in rest.terms.items():
            e = exps[i]
            base = list(exps)
            base[i] = 0
            base_t = tuple(base)
            if e == 0:
                reduced[base_t] = reduced.get(base_t, ZERO) + coeff
                continue
            # coeff*x^base*(x_i^e - a^e) = (sum_s coeff*a^s shifted) * (x_i - a)
            for s in range(e):
                step = list(base)
                step[i] = e - 1 - s
                q_i = q_i + MPoly.monomial(coeff * a**s, tuple(step))
            reduced[base_t] = reduced.get(base_t, ZERO) + coeff * a**e
        quotients[i] = q_i
        rest = MPoly(n, reduced)
    remainder = rest.terms.get((0,) * n, ZERO)
    return remainder, quotients


def in_point_ideal(p: MPoly, pt: CommutingPoint) -> bool:
    remainder, _ = reduce_mod_point(p, pt)
    return not remainder


# ---------------------------------------------------------------------------
# Membership certificates for powers (Rabinowitsch-style search)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RabinowitschCertificate:
    """Cofactors h[k][j] witnessing
    (a*p)^N = sum_k sum_j h[k][j] * g_j * (a*p)^k, k = 0..N."""

    N: int
    cofactors: tuple[tuple[MPoly, ...], ...]


@dataclass(frozen=True)
class NotFoundWithinBounds:
    """No certificate exists within the given power and degree bounds.

    In several variables this is a bounded-search answer, never a
    nonexistence claim.  In one variable a non-member gets it at every
    degree bound; a member gets it only when no certificate fits within
    degbound."""

    N: int
    degbound: int


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
    """Decide whether (a*p)^N lies in I + I*(a*p) + ... + I*(a*p)^N with
    cofactors of total degree at most degbound.

    In one variable the sum is the left ideal H[x]*d for the gcrd d of the
    g_j*(a*p)^k, so membership is one right division by d: a non-member
    gets NotFoundWithinBounds at every degree bound, and a member whose
    gcrd cofactors fit within degbound gets them.  Otherwise the cofactors
    come from exact linear algebra over all monomials up to degbound.

    A found certificate is verified by reconstructing the identity before
    it is returned; NotFoundWithinBounds is exact for the given bounds.
    """
    if N < 1:
        raise InvalidInput("the power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")
    nvars = ideal.nvars
    if p.nvars != nvars:
        raise InvalidInput("polynomial and ideal live in different rings")
    ap = p.scale_left(a)
    ap_powers = [MPoly.constant(ONE, nvars)]
    for _ in range(N):
        ap_powers.append(ap_powers[-1] * ap)
    bases = [g * ap_powers[k] for k in range(N + 1) for g in ideal.gens]
    if nvars == 1:
        # d = sum u_i * bases[i] generates the sum, so target = t*d is a
        # member exactly when d right-divides it, with cofactors t*u_i.
        d, u = _gcrd_combination([_to_upoly(base) for base in bases])
        target = _to_upoly(ap_powers[N])
        t, r = target.divmod_right(d) if d else (UPoly(), target)
        if r:
            return NotFoundWithinBounds(N, degbound)
        flat = [t * v for v in u]
        if max(h.degree for h in flat) <= degbound:
            return _certificate(ideal, ap_powers, [_from_upoly(h) for h in flat])
    return _bounded_certificate(ideal, bases, ap_powers, degbound)


def _to_upoly(p: MPoly) -> UPoly:
    top = max((e for (e,) in p.terms), default=-1)
    return UPoly([p.terms.get((e,), ZERO) for e in range(top + 1)])


def _from_upoly(p: UPoly) -> MPoly:
    return MPoly(1, {(e,): c for e, c in enumerate(p.coeffs)})


def _bounded_certificate(
    ideal: LeftIdeal, bases: list[MPoly], ap_powers: list[MPoly], degbound: int
) -> RabinowitschCertificate | NotFoundWithinBounds:
    """The certificate for (a*p)^N = ap_powers[N] with cofactors of total
    degree at most degbound, or NotFoundWithinBounds, from one rational
    system over the bases g_j*(a*p)^k in (k, generator) order."""
    nvars, N = ideal.nvars, len(ap_powers) - 1
    target = ap_powers[N]
    monos = monomials_upto(nvars, degbound)

    # One known polynomial per (k, generator, monomial); the unknown
    # quaternion multiple of each is what the solver finds.
    column_polys = [base.shift(mu) for base in bases for mu in monos]

    support: set[Exponents] = set(target.terms)
    for poly in column_polys:
        support.update(poly.terms)
    ordered = sorted(support, key=grlex_key)
    vectors = [[poly.terms.get(exps, ZERO) for exps in ordered] for poly in column_polys]
    sol = solve_combination(
        vectors, [target.terms.get(exps, ZERO) for exps in ordered], Centralizer.full()
    )
    if sol is None:
        return NotFoundWithinBounds(N, degbound)

    # The solution runs over (k, generator, monomial) in the order above.
    size = len(monos)
    flat = [MPoly(nvars, dict(zip(monos, sol[i : i + size]))) for i in range(0, len(sol), size)]
    return _certificate(ideal, ap_powers, flat)


def _certificate(
    ideal: LeftIdeal, ap_powers: list[MPoly], flat: list[MPoly]
) -> RabinowitschCertificate:
    """The certificate with cofactors flat in (k, generator) order, once
    they rebuild (a*p)^N = ap_powers[N]."""
    nvars, N, ngens = ideal.nvars, len(ap_powers) - 1, len(ideal.gens)
    cofactors = [flat[k * ngens : (k + 1) * ngens] for k in range(N + 1)]

    rebuilt = MPoly(nvars, {})
    for k in range(N + 1):
        for j, g in enumerate(ideal.gens):
            rebuilt = rebuilt + cofactors[k][j] * g * ap_powers[k]
    if rebuilt != ap_powers[N]:
        raise InternalError("certificate failed to reconstruct its identity")
    return RabinowitschCertificate(N, tuple(tuple(row) for row in cofactors))


def find_certificate(
    ideal: LeftIdeal, p: MPoly, a: Quat, max_power: int, degbound: int
) -> tuple[int, RabinowitschCertificate] | NotFoundWithinBounds:
    """Smallest power N <= max_power admitting a certificate, with the
    certificate; the search is a bounded semidecision."""
    if max_power < 1:
        raise InvalidInput("the largest power must be at least one")
    if degbound < 0:
        raise InvalidInput("negative degree bound")
    for N in range(1, max_power + 1):
        outcome = rabinowitsch_check(ideal, p, a, N, degbound)
        if isinstance(outcome, RabinowitschCertificate):
            return N, outcome
    return NotFoundWithinBounds(max_power, degbound)

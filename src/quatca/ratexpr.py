"""Rational expressions with prime-field constants, and the recursive
criteria they encode for left linear independence and left algebraic degree
over the centralizer of an element.

The nodes are the ones the criteria build: variables, rational constants,
differences, products and inverses.  There is no sum node; a commutator
is a difference of two products.

Evaluation is strict: inverting zero anywhere makes the whole evaluation
undefined, even if that subexpression is later multiplied by zero.  This is
the standard semantics for rational expressions over a division ring and is
what makes "defined" decidable bottom-up; the result type is `Quat | None`
with None meaning undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError, InvalidInput
from .scalars import Quat, centralizer_of_set, left_rank
from .upoly import minimal_left_poly, minimal_right_poly


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Sub:
    left: "RatExpr"
    right: "RatExpr"


@dataclass(frozen=True)
class Mul:
    left: "RatExpr"
    right: "RatExpr"


@dataclass(frozen=True)
class Inv:
    arg: "RatExpr"


RatExpr = Var | Const | Sub | Mul | Inv


def commutator_expr(a: RatExpr, b: RatExpr) -> RatExpr:
    return Sub(Mul(a, b), Mul(b, a))


def eval_expr(expr: RatExpr, assignment: Sequence[Quat]) -> Quat | None:
    """Strict bottom-up evaluation; None signals an inversion of zero."""
    cache: dict[int, Quat | None] = {}

    def walk(e: RatExpr) -> Quat | None:
        key = id(e)
        if key in cache:
            return cache[key]
        if isinstance(e, Var):
            if e.index >= len(assignment):
                raise InvalidInput(f"assignment does not cover variable {e.index}")
            out: Quat | None = assignment[e.index]
        elif isinstance(e, Const):
            out = Quat.scalar(e.value)
        elif isinstance(e, Inv):
            inner = walk(e.arg)
            out = None if (inner is None or not inner) else inner.inverse()
        else:
            lhs, rhs = walk(e.left), walk(e.right)
            if lhs is None or rhs is None:
                out = None
            elif isinstance(e, Sub):
                out = lhs - rhs
            else:
                out = lhs * rhs
        cache[key] = out
        return out

    return walk(expr)


# ---------------------------------------------------------------------------
# The recursive independence and degree criteria
# ---------------------------------------------------------------------------

def independence_criterion(n: int) -> RatExpr:
    """Expression in x_0..x_n that is defined and nonzero at (a, b_1..b_n)
    exactly when b_1..b_n are left linearly independent over the
    centralizer of a.

    Base case: the single-vector criterion is just x_1.  The step replaces
    each b_m by the commutator of x_0 with b_m * b_n^-1 and recurses on one
    fewer vector.
    """
    if n < 1:
        raise InvalidInput("the criterion needs at least one vector")
    return _commutator_steps([Var(m) for m in range(1, n + 1)])


def degree_criterion(n: int) -> RatExpr:
    """Two-variable expression vanishing at (a, b) exactly when b has left
    algebraic degree n over the centralizer of a.

    This instantiates the (n+1)-vector independence criterion at
    (a, 1, b, ..., b^n): the literal n-vector form would be one argument
    short of the powers it must consume.
    """
    if n < 1:
        raise InvalidInput("degrees start at one")
    powers: list[RatExpr] = [Const(Fraction(1)), Var(1)]
    for _ in range(n - 1):
        powers.append(Mul(powers[-1], Var(1)))
    return _commutator_steps(powers)


def _commutator_steps(exprs: list[RatExpr]) -> RatExpr:
    """The criterion's step, applied until one expression is left: each
    expression v but the last becomes [x_0, v * last^-1]."""
    while len(exprs) > 1:
        last_inv = Inv(exprs[-1])
        exprs = [commutator_expr(Var(0), Mul(v, last_inv)) for v in exprs[:-1]]
    return exprs[0]


def independent_via_criterion(a: Quat, bs: Sequence[Quat]) -> bool:
    """Left linear independence over the centralizer of a, decided by
    evaluating the recursive criterion: independent iff defined and nonzero."""
    if not bs:
        raise InvalidInput("empty vector list")
    value = eval_expr(independence_criterion(len(bs)), [a, *bs])
    return value is not None and bool(value)


def independent_via_rank(a: Quat, bs: Sequence[Quat]) -> bool:
    """The same question answered by exact rank computation over rational
    coordinates; serves as the independent cross-check of the criterion."""
    c = centralizer_of_set([a])
    return left_rank(bs, c) == len(bs)


def left_degree_via_criterion(a: Quat, b: Quat) -> int:
    """Left algebraic degree of b over the centralizer of a, via the first
    n at which the degree criterion evaluates to a defined zero.  Only
    n = 1 and 2 are tried: the degree over a centralizer is at most 2 (the
    closed form in `minimal_left_poly`).

    The degree of zero is one (its minimal polynomial is x) but the
    criterion is undefined there, so that case is answered directly.
    """
    if not b:
        return 1
    for n in (1, 2):
        value = eval_expr(degree_criterion(n), [a, b])
        if value is not None and not value:
            return n
    raise InternalError("degree criterion exceeded the quaternion degree bound")


def left_degree_via_rank(a: Quat, b: Quat) -> int:
    """Degree of the minimal left polynomial of b over the centralizer of a."""
    return minimal_left_poly(b, centralizer_of_set([a])).degree


def right_degree(b: Quat, a: Quat) -> int:
    """Degree of the minimal right polynomial of a over the centralizer of b;
    always matches the left degree of b over the centralizer of a."""
    return minimal_right_poly(a, centralizer_of_set([b])).degree


def algebraicity_witness(a: Quat, b: Quat) -> list[Quat]:
    """Coefficients (c_0, ..., c_{n-1}), all commuting with b, such that
    a^n + a^{n-1} c_{n-1} + ... + a c_1 + c_0 = 0.

    These are the non-leading coefficients of the minimal right polynomial
    of a over the centralizer of b; they witness that b lies in a
    centralizer of a tuple annihilating a.
    """
    poly = minimal_right_poly(a, centralizer_of_set([b]))
    witness = list(poly.coeffs[:-1])
    if poly.eval_right(a):
        raise InternalError("witness identity failed")
    for coeff in witness:
        if not coeff.commutes_with(b):
            raise InternalError("witness coefficient escapes the centralizer")
    return witness

"""Error types and refusal bounds shared across the kernel."""

import sys


class InvalidInput(ValueError):
    """An operation was called outside its stated domain."""


class ParseError(InvalidInput):
    """Malformed text input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalError(RuntimeError):
    """An internally guaranteed property failed; indicates a kernel bug."""


# Every limit past which a short input that asks for more than can be
# built is refused, with InvalidInput (a ParseError in the text): name ->
# (limit, message template for `refusal`, or a dict of them by kind where
# refusals share the limit).  Timed on a shared 2-core host.
BOUNDS = {
    # Parentheses nested in the text, read by recursion (`parsing._sum`).
    "nesting": (100, "parentheses nested deeper than {limit}"),
    # The bits a power of a quaternion may grow to before it is built: a
    # power written in the text (`parsing._bound_power`) and an evaluation
    # at a caller's point (`upoly.UPoly.eval_left`), which takes powers up to
    # the degree.  A quaternion power costs about the square of its size:
    # `(1+2i)^100000` (0.12 million bits) takes 0.15 s and `(1+2i)^1000000`
    # 10.4 s, and a Horner sum, one product per degree, about its square
    # times the degree: `x^50000` at 3/2 + i (92,500 bits) takes 1.4 s and
    # `x^200000` 16 s.
    "power_bits": (100_000, {
        "text": "power of more than the bound of {limit} bits",
        "evaluation": "evaluation at degree {degree} of up to {bits:.0f} bits, above the bound of {limit} bits",
    }),
    # A power of a parenthesized sum in the text is taken by repeated
    # squaring: `(x - i)^500` takes 0.53 s and `(x - i)^1000` 2.7 s.
    "power_degree": (500, "power of degree {degree}, above the bound of {limit}"),
    # Terms of a power or product, estimated from degrees before it is
    # formed (`mpoly._max_terms`).  In several variables the terms of a
    # power grow as a binomial in the exponent: `(x1 + x2 + x3)^43` (990
    # terms) takes 0.25 s, `^60` 1.2 s and `^160` 58.7 s, and the product
    # `(x1+x2+x3)^43*(x1+x2+x3)^43` took 4.6 s.  `rabinowitsch_check` forms
    # (a*p)^N before its Groebner pass, one multiplication per power: for
    # I = (x1 - i, x2 - 2i), p = x1 + x2 + 1, a = 1 the search to max power
    # 40 ((a*p)^40 of 861 terms) took 2.3 s, to 50 (1,326 terms) 6.9 s and
    # to 60 (1,891) 12.3 s; the largest estimate of the test suite is 45,
    # and of the benchmark's instances 10.
    "terms": (1_000, {
        "power": "power of up to {terms} terms, above the bound of {limit}",
        "product": "product of up to {terms} terms, above the bound of {limit}",
        "ap": "power (a*p)^{N} of up to {terms} terms, above the bound of {limit}",
    }),
    # The t1 * t2 coefficient products of two parenthesized factors in the
    # text: `(x - i)^250(x - i)^250` (63,001) takes 0.54 s and
    # `(x - i)^500(x - i)^499` (250,500) 2.3 s.
    "products": (65_536, "product of {products} coefficient products, above the bound of {limit}"),
    # Reducing a term c*x^e modulo a point writes one quotient term per unit
    # of exponent, with coefficients c*a^s for s < e, so the work grows as e
    # times the bits of a^e; the bound is on e times the point's growth per
    # factor, summed over the variables (`mpoly.reduce_mod_point`).  The
    # largest accepted power at `1+2i`, `x1^1722`, takes 0.08 s, and
    # `x1^10000` took 4.8 s.
    "reduce_bits": (2_000, "reduction of a power of more than the bound of {limit} bits modulo the point"),
    # Quaternion entries of a certificate system, estimated before it is
    # built.  The system of I = H[x](x - i)^2, p = x - i, a = j at N = 124
    # and degree 0, estimated at 15,875 entries (125 unknowns in 127
    # equations), is solved in about 1 s; the largest estimate of the test
    # suite is 13,200, and of the benchmark's instances 12.
    "system_entries": (16_000, "certificate system of up to {entries} quaternion entries at cofactor degree {d}, "
                       "above the bound of {limit}"),
    # Coefficient words of a one-variable (a*p)^N, which a member whose
    # chain cofactors fit forms densely: (a*p)^(N-m) by repeated squaring
    # and the m powers above it.  For I = H[x](x - i)^2, p = x - i, a = j
    # one-shot `quatca rabinowitsch` took 0.8 s at N = 1000, 0.9-1.5 s at
    # 1,250, 1.3-1.5 s at 1,400 and 3.2 s at 2,000.  There a factor adds no
    # bits to a coefficient (`scalars._growth` of j and k is 0), so each
    # counts one word.  With a = 123456789j a factor adds 27 bits: counted
    # as one word, N = 1249 took 34.8 s; N = 53, the largest admitted at 23
    # words, takes 0.2 s.
    "dense_power": (1_250, {
        "word": "power (a*p)^{N} of up to {coeffs} coefficients, above the bound of {limit}",
        "words": "power (a*p)^{N} of up to {coeffs} coefficients of {words} words each, above the bound of {limit}",
    }),
    # The dense coefficient list of a one-variable polynomial holds one
    # entry per degree, so a sparse x^1000000000 would take 10^9 of them;
    # parse_upoly("x^1000000") takes 0.20 s.
    "dense_degree": (1_000_000, "degree {degree} above the bound of {limit} for a one-variable polynomial"),
    # The primitive remainder sequence decides a gcd only where GCDHEU
    # gives up, and refuses rows past this many estimated word products
    # (`ratfactor._remainder_gcd`).  Coprime random rows took 0.4-0.6 s at
    # 1e8 with 30- to 4096-bit coefficients, and 7.2 s at 3.4e8 with 2-bit
    # ones (degree 540), the costliest per word product, so the bound
    # admits about 1 s.
    "remainder_work": (50_000_000, "gcd by remainders of degrees {degrees[0]} and {degrees[1]} with {bits}-bit "
                       "coefficients: about {work} word products, above the bound of {limit}"),
    # The root search takes time quadratic in the degree of s = p/x^k or
    # worse (the companion's square, its floats and its small-prime
    # proofs): `x^1000 - 1` took 37 s and `x^500 + x + 1` more than 60 s,
    # while `x^331213 - 2^100`, which "dense_degree" admits, did not finish
    # in 30 s of one small-prime proof.
    "root_degree": (1_000, "degree {degree} without the power of x above the bound of {limit} for a root search"),
}


def refusal(row: str, kind: str | None = None, **fields) -> str:
    """The message refusing an input past the limit of BOUNDS[row], with
    the limit and fields filled in; kind picks the message of a row that
    has several."""
    limit, message = BOUNDS[row]
    return (message if kind is None else message[kind]).format(limit=limit, **fields)


def _digit_limit() -> int:
    """The interpreter's int<->str digit limit (`sys.set_int_max_str_digits`),
    0 where it has none or it is lifted."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _too_many_digits(what: str) -> InvalidInput:
    """The error for a number past the interpreter's int<->str digit limit,
    which `str` and `int` signal with a bare ValueError."""
    return InvalidInput(f"{what} of more than the interpreter's limit of {_digit_limit()} digits")

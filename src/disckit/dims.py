"""Closed-form dimension counts for jet-bundle sheaves on projective space.

Everything here is a binomial-coefficient identity: the bundle of
order-k jets of O(d) on P^N restricted to degree considerations only.
The two families are the ext groups of exterior powers of the jet
bundle against the structure sheaf (h_ext_jet) and their Serre duals
(h_ext_jet_dual); the Koszul-type complex built from them has one rank
per exterior power, tabulated by complex_table.

A count too large to compute raises ParameterError before it starts: see
MAX_BINOMIAL_BITS, MAX_TABLE_TERMS and MAX_TABLE_BITS.
"""

from __future__ import annotations

import math

from .errors import ParameterError, Record, check_int

# No binomial C(n, k) may predict more bits than this: C(n, k) < n^min(k, n-k),
# so it has at most min(k, n-k) * n.bit_length() bits.
MAX_BINOMIAL_BITS = 10**5
# No complex_table may predict more bits than this, summed over its terms by the
# same bound.  N = 1, d = 1601, k = 1599 predicts 7.1 * 10^6 bits, has 5.6 * 10^5
# digits and takes about 0.15 s (2-core host, CPython 3.11).
MAX_TABLE_BITS = 10**7
# No complex_table may have more terms than this; it has rank_jet(k, N) + 1.
MAX_TABLE_TERMS = 10**4


def _comb_bits(n: int, k: int) -> int:
    """The bound on the bit length of C(n, k) that MAX_BINOMIAL_BITS limits."""
    return min(k, n - k) * n.bit_length()


def _comb(n: int, k: int) -> int:
    """math.comb(n, k), refused when its predicted size passes MAX_BINOMIAL_BITS."""
    bits = _comb_bits(n, k)
    if bits > MAX_BINOMIAL_BITS:
        raise ParameterError(f"C({n}, {k}) may have {bits} bits, "
                             f"over the limit {MAX_BINOMIAL_BITS}")
    return math.comb(n, k)


class DimReport(Record):
    _fields = ("N", "d", "k", "j", "i", "value", "object")


class ComplexTerm(Record):
    """One term of the dual resolution complex: a twist and its rank."""

    _fields = ("twist", "module_dim")


def dim_sym(n: int, dimV: int) -> int:
    """Dimension of Sym^n of a dimV-dimensional space; 0 for n < 0."""
    check_int(n, "the symmetric power")
    check_int(dimV, "the space dimension")
    if dimV < 1:
        raise ParameterError(f"the space dimension must be positive, got {dimV}")
    if n < 0:
        return 0
    return _comb(n + dimV - 1, dimV - 1)


def rank_jet(k: int, N: int) -> int:
    """Rank of the bundle of order-k jets of a line bundle on P^N."""
    check_int(k, "the jet order")
    check_int(N, "the ambient dimension N")
    if k < 0 or N < 1:
        raise ParameterError(f"rank_jet needs k >= 0 and N >= 1, got k={k}, N={N}")
    return _comb(k + N, N)


def rank_table(d: int, k: int) -> dict[str, int]:
    """Ranks of the three bundles in the jet evaluation sequence.

    The order-k evaluation of a rank-(d+1) space of sections has jet
    rank k+1, so the quotient has rank d-k; the table makes the
    additivity identity rk_jet + rk_Q = rk_W explicit.
    """
    check_int(d, "the form degree")
    check_int(k, "the jet order")
    if d < 1:
        raise ParameterError(f"the form degree must be at least 1, got {d}")
    if not 0 <= k <= d:
        raise ParameterError(f"jet order must satisfy 0 <= k <= d, got k={k}, d={d}")
    return {"rk_jet": k + 1, "rk_W": d + 1, "rk_Q": d - k}


def _check_common(N: int, d: int, k: int, j: int, i: int):
    for value, what in ((N, "the ambient dimension N"), (d, "the form degree"),
                        (k, "the jet order"), (j, "the exterior power"),
                        (i, "the cohomological degree")):
        check_int(value, what)
    if N < 1:
        raise ParameterError(f"the ambient dimension N must be at least 1, got {N}")
    if not 1 <= k < d:
        raise ParameterError(f"the jet order must satisfy 1 <= k < d, got k={k}, d={d}")
    r = rank_jet(k, N)
    if not 1 <= j <= r:
        raise ParameterError(
            f"the exterior power must satisfy 1 <= j <= {r}, got j={j}"
        )
    if not 0 <= i <= N:
        raise ParameterError(f"the cohomological degree must satisfy 0 <= i <= {N}, got i={i}")
    return r


def h_ext_jet(N: int, d: int, k: int, j: int, i: int) -> int:
    """Ext dimension in degree i for the j-th exterior power of the jet bundle.

    The twist j(d-k) is globally generated, so all higher cohomology
    vanishes and only i = 0 contributes.
    """
    r = _check_common(N, d, k, j, i)
    if i > 0:
        return 0
    return dim_sym(j * (d - k), N + 1) * _comb(r, j)


def h_ext_jet_dual(N: int, d: int, k: int, j: int, i: int) -> int:
    """Serre-dual family: only the top degree i = N can be nonzero.

    The value pairs with sections of the twist j(d-k) - N - 1; when
    that twist is negative the group vanishes entirely.
    """
    r = _check_common(N, d, k, j, i)
    if i < N:
        return 0
    n = j * (d - k) - N - 1
    if n < 0:
        return 0
    return dim_sym(n, N + 1) * _comb(r, j)


def _check_stable_range(N: int, d: int, k: int) -> int:
    r = _check_common(N, d, k, 1, 0)  # j = 1 and i = 0 always pass: this checks N and k
    if d - k - N - 1 < 0:
        raise ParameterError(
            f"the stable-range inequality d - k - N - 1 >= 0 fails: "
            f"d={d}, k={k}, N={N} give {d - k - N - 1}"
        )
    return r


def complex_term_rank(N: int, d: int, k: int, j: int) -> ComplexTerm:
    """The j-th term of the dual resolution complex, as (twist, rank).

    The complex exists only in the stable range d - k - N - 1 >= 0; its
    j-th term sits in twist -j and carries the dual dimension in top
    degree.  The index runs over 1 <= j <= rank_jet(k, N); the j = 0
    term is the trivial line and is supplied by complex_table.
    """
    r = _check_stable_range(N, d, k)
    check_int(j, "the term index")
    if not 1 <= j <= r:
        raise ParameterError(f"the term index must satisfy 1 <= j <= {r}, got j={j}")
    return ComplexTerm(-j, h_ext_jet_dual(N, d, k, j, N))


def complex_table(N: int, d: int, k: int) -> tuple[ComplexTerm, ...]:
    """Every term of the dual resolution complex, j = 0 through the rank."""
    r = _check_stable_range(N, d, k)
    if r + 1 > MAX_TABLE_TERMS:
        raise ParameterError(f"the table would have {r + 1} terms, "
                             f"over the limit {MAX_TABLE_TERMS}")
    # term j is C(n + N, N) * C(r, j) with n = j(d-k) - N - 1, or 0 for n < 0
    bits = sum(_comb_bits(n + N, N) + _comb_bits(r, j)
               for j in range(1, r + 1) if (n := j * (d - k) - N - 1) >= 0)
    if bits > MAX_TABLE_BITS:
        raise ParameterError(f"the table's {r + 1} terms may have {bits} bits in all, "
                             f"over the limit {MAX_TABLE_BITS}")
    head = ComplexTerm(0, 1)
    return (head,) + tuple(ComplexTerm(-j, h_ext_jet_dual(N, d, k, j, N))
                           for j in range(1, r + 1))

"""The brute-force route: gather powers of x directly from the polynomials.

Every basis polynomial is expanded into exact-rational monomials by its
three-term recurrence; multiplying by the tabulated expansion coefficients and
collecting one power of x must reproduce the corresponding Maclaurin
coefficient of J_nu(kx).  This route never touches the closed-form brackets of
the identity machinery, which is exactly what makes it a meaningful
cross-check of the summed-series results.
"""

from fractions import Fraction

from besselseries import (
    Chebyshev,
    Gegenbauer,
    Legendre,
    PrecisionContext,
    format_decimal,
    power_gather_oracle,
)

ctx = PrecisionContext()

for kind, lmax, label in (
    (Legendre(0), 60, "Legendre N=0"),
    (Chebyshev(1), 30, "Chebyshev nu=1"),
    (Gegenbauer(0, Fraction(1, 4)), 30, "Gegenbauer lambda=1/4"),
):
    print(f"{label}, k = 1: gathered coefficient of x^(2h+nu) vs Maclaurin")
    for row in power_gather_oracle(kind, 1, 5, lmax, ctx):
        print(
            f"  h={row.h}  gathered={format_decimal(row.gathered, 25):>32}"
            f"  rel_diff={format_decimal(row.rel_diff, 3)}"
        )
    print()

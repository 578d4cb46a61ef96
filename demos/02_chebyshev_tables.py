"""Chebyshev coefficient tables for J0 and J1, plain and halved conventions.

The expansion reads J_nu(kx) = (kx)^nu sum_L C_Lnu(k) T_2L(x).  Classic
function tables print the leading coefficient doubled and halve it on use
(the "primed sum"); here plain sums are the stored convention and the primed
presentation is formatting only.
"""

from decimal import Decimal

from besselseries import PrecisionContext, chebyshev_coeff, format_decimal

ctx = PrecisionContext()

print("C_L0(8): plain convention on the left, halved-term display on the right")
for L in range(8):
    plain = chebyshev_coeff(L, 0, 8, ctx)
    shown = ctx.dec.multiply(plain, Decimal(2)) if L == 0 else plain
    marker = "  (x2 for display)" if L == 0 else ""
    print(f"{L:>3}  {format_decimal(plain, 30):>36}  {format_decimal(shown, 30):>36}{marker}")

# the same coefficients power an alternating sum rule: the constant terms of
# T_2L(x) have magnitude one and alternating sign, so sum_L (-1)^L C_L0(k)
# telescopes to J0(0) = 1
from besselseries import IdentityCase, IdentityId, verify_identity

for k in (1, 8):
    report = verify_identity(IdentityCase(IdentityId.CLENSHAW_SUM_RULE, k=k, lmax=26), ctx)
    print(f"\nsum rule at k={k}: lhs = {format_decimal(report.lhs, 34)}")
    print(f"  |lhs - 1| = {format_decimal(report.abs_diff, 3)}")

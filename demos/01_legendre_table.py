"""Reproduce the 22-term Fourier-Legendre coefficient table of J0(x).

The expansion J_0(kx) = sum_L a_L0(k) P_L(x) converges astonishingly fast on
[-1, 1]: at k = 1 the degree-42 coefficient is already ~1e-64.  Odd orders
vanish identically by parity.
"""

from besselseries import PrecisionContext, format_decimal, legendre_coeff

ctx = PrecisionContext()  # 64 working digits, 34 displayed

print("Fourier-Legendre coefficients of J0(x), k = 1")
print(f"{'L':>4}  value")
for L in range(0, 43, 2):
    value = legendre_coeff(L, 0, 1, ctx)
    print(f"{L:>4}  {format_decimal(value, 34)}")

"""Verify whole families of summed 1F2 hypergeometric series.

Gathering a fixed power x^(2h+nu) from a polynomial expansion of J_nu(kx)
turns each expansion order L into one 1F2 evaluation; the infinite sum over
L collapses to a single Maclaurin coefficient,

    (-1)^h 2^(-2h-nu) k^(2h+nu) / (h! Gamma(h+nu+1)).

Every h, every admissible nu, every Gegenbauer weight lambda and every scale
k gives one such identity; this demo sweeps a few slices.  Each sum stops at
the first order L where a proven bound on all later terms is below a tenth of
the tolerance (lmax=None); lmax below is that stopping order.
"""

from fractions import Fraction

from besselseries import IdentityCase, IdentityId, PrecisionContext, verify_identity

ctx = PrecisionContext()
TOL = Fraction(1, 10**33)


def show(identity, h, k, **kw):
    case = IdentityCase(identity, h=h, k=k, lmax=None, tolerance=TOL, **kw)
    r = verify_identity(case, ctx)
    status = "pass" if r.passed else "FAIL"
    print(
        f"{identity.value:<22} h={h:>2} k={k}  lmax={r.lmax:>3}  "
        f"tail<={r.tail_bound:.1E}  rel_diff={r.rel_diff:.2E}  {status}"
    )


print("Chebyshev-derived families (k = 8 needs the deepest sums):")
for h in (0, 1, 5, 20, 42):
    show(IdentityId.CHEBYSHEV_EVEN, h, 8)
    show(IdentityId.CHEBYSHEV_ODD, h, 8)

print("\nLegendre-derived families at k = 1:")
for h in (0, 1, 5, 10):
    show(IdentityId.LEGENDRE_J0, h, 1)
    show(IdentityId.LEGENDRE_J1, h, 1)

print("\nlarger k: the bound lengthens the sum where k needs it")
for k in (12, 20, 30):
    show(IdentityId.CHEBYSHEV_EVEN, 3, k)
show(IdentityId.LEGENDRE_J0, 0, 12)

print("\nGegenbauer family: one identity per (h, nu, lambda, k):")
for lam in (Fraction(1, 4), Fraction(4)):
    for nu in (Fraction(0), Fraction(1, 2), Fraction(2)):
        show(IdentityId.GEGENBAUER_GENERAL, 2, 5, nu=nu, lam=lam)

print("\nmodified-Bessel variant (series argument flipped to +k^2/4):")
case = IdentityCase(
    IdentityId.CHEBYSHEV_EVEN, h=0, k=1, lmax=24, tolerance=TOL, sign_flip=True
)
r = verify_identity(case, ctx)
print(f"sign-flip h=0 k=1: lhs={r.lhs:.34f} rhs={r.rhs} pass={r.passed}")

"""
Reading the leading exponent off the data
=========================================

The log-determinant of the rank-structured kernel decays like s^6 with a
2/3 coefficient.  A least-squares line through log(-log det) vs log(s)
recovers both from four interval sizes, no closed form consulted.
"""

from gapdet import PII, PsiField, fcet_fit, log_det_converged, solve_hm

sol = solve_hm()
spec = PII(x=0.0, field=PsiField(x=0.0, hm=sol))

samples = []
print("   s     log det       settled")
for s in (1.6, 1.8, 2.0, 2.1):
    ev = log_det_converged(spec, s)
    samples.append((s, float(ev.log_det)))
    print(" %4.2f  %12.6f    %s" % (s, samples[-1][1], ev.converged))

exponent, prefactor = fcet_fit(samples)
print()
print("fitted exponent:  %.3f   (the asymptotic value is 6)" % exponent)
print("fitted prefactor: %.3f   (the asymptotic value is 2/3 = 0.667)" % prefactor)
print()
print("The settle flag demands 1e-8 agreement between successive rule sizes;")
print("these ladders converge spectrally and stop at n = 64 or 128, so the")
print("values are good to far more digits than the fit can use.  What biases")
print("the slope below 6 on a narrow s-window is the subleading terms of the")
print("expansion, not the determinants.")

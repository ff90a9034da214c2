"""
Column solves and the three kernels
===================================

Marches the columns psi = [psi11, psi21] across the spectral window with
``psi_columns``, which returns one row per lambda (a single column is row 0
of a one-lambda batch), then
evaluates all three kernels on a small grid to show how the rank-structured
one collapses onto the cubic trig kernel when the potential dies off.
"""

import numpy as np

from gapdet import (
    CubicSine,
    PII,
    PsiField,
    Sine,
    kernel_matrix,
    psi_columns,
    solve_hm,
)

sol = solve_hm()

# --- one column, inspected --------------------------------------------------

field = PsiField(x=1.0, hm=sol)
lam = 0.75
psi11, psi21 = psi_columns(field, [lam])[0]
print("lambda = %.2f, x = %.1f" % (lam, field.x))
print("  psi11 =", psi11)
print("  psi21 =", psi21)
print("  |psi11| = %.6f, |psi21| = %.6f  (equal: the pairing below)" % (abs(psi11), abs(psi21)))
print("  conj(psi21) - i psi11 = %.2e  (the pairing the kernel relies on)"
      % abs(np.conj(psi21) - 1j * psi11))
print()

# --- a batch of columns: one march, one row per lambda ------------------------

lams = np.linspace(-2.0, 2.0, 9)
cols = psi_columns(field, lams)
print("batch of %d columns, array shape %s" % (len(lams), cols.shape))
print("  max |conj(psi21) - i psi11| over the batch = %.2e"
      % np.max(np.abs(np.conj(cols[:, 1]) - 1j * cols[:, 0])))
print()

# --- kernel grids -------------------------------------------------------------

pts = np.linspace(-1.0, 1.0, 5)
for x in (1.0, 8.0):
    f = PsiField(x=x, hm=sol)
    kp = kernel_matrix(PII(x=x, field=f), pts)
    kt = kernel_matrix(CubicSine(t=1.0, x=x), pts)
    print("x = %.0f: max |rank-structured - cubic trig| = %.3e"
          % (x, np.max(np.abs(kp - kt))))

ks = kernel_matrix(Sine(x=1.0), pts)
k0 = kernel_matrix(CubicSine(t=0.0, x=1.0), pts)
print("t = 0 cubic trig equals the sine kernel bitwise:", np.array_equal(ks, k0))

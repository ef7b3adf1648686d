"""A frozen copy of the streaming Jacobi recurrence, the reference for ``muntz._jacobi_sum``.

It runs P_n = (a_n t + b_n) P_{n-1} - c_n P_{n-2} one step at a time and adds
coeffs[n] * P_n to a running total after each step.  The package's stacked
form must reproduce its bits; the tests import it rather than the code
under test.
"""

import numpy as np


def streaming_jacobi_sum(coeffs, constants, t):
    """sum_n coeffs[n] * P_n^{(0,k)}(t); ``coeffs`` (depth, orders), ``t`` (points, 1) -> (points, orders)."""
    a, b, c = constants
    total = coeffs[0] * np.ones_like(t)
    prev, cur = 0.0, 1.0
    for n in range(1, len(coeffs)):
        prev, cur = cur, (a[n] * t + b[n]) * cur - c[n] * prev
        total += coeffs[n] * cur
    return total

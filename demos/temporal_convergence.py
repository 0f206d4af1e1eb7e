#!/usr/bin/env python3
"""Temporal convergence of the composition integrators on a traveling soliton.

Evolves the s = 1 cubic Schrodinger soliton to T = 10 on a fixed spectral
grid while halving the time step, then tabulates L2 errors of the real and
imaginary parts against the exact solution.  The q = 3 Yoshida composition
shows fourth order, the plain implicit midpoint rule second order.
"""

import numpy as np

import fnls

DTS = [2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3]


def main():
    for p, label in ((2, "q = 3 (order 4)"), (1, "q = 1 (order 2)")):
        config = fnls.RunConfig(L=16 * np.pi, N=512, s=1.0, dt=DTS[0], T=10.0,
                                scheme_p=p, initial=fnls.SolitonParams(1.0, 0.25))
        rows = fnls.convergence_study(config, DTS)
        print(f"\n{label}")
        print(f"{'dt':>10} {'err_v':>12} {'rate_v':>8} {'err_w':>12} {'rate_w':>8}")
        for row in rows:
            rate_v = f"{row.rate_v:.3f}" if row.rate_v is not None else "-"
            rate_w = f"{row.rate_w:.3f}" if row.rate_w is not None else "-"
            print(f"{row.dt:>10.3g} {row.err_v:>12.4e} {rate_v:>8} "
                  f"{row.err_w:>12.4e} {rate_w:>8}")


if __name__ == "__main__":
    main()

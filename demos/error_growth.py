#!/usr/bin/env python3
"""Linear-in-time error growth for a symplectic soliton run.

Structure-preserving integrators typically accumulate soliton phase error
linearly in time rather than quadratically.  This run records the L2 error
against the exact soliton at regular checkpoints up to T = 50 and fits a
log-log slope, which should be close to 1.
"""

import math

import numpy as np

import fnls


def main():
    config = fnls.RunConfig(L=16 * np.pi, N=512, s=1.0, dt=1.25e-2, T=50.0,
                            scheme_p=2, initial=fnls.SolitonParams(1.0, 0.25))
    checkpoints = [5.0 * i for i in range(1, 11)]
    result = fnls.error_growth_study(config, checkpoints, fit_window=(5.0, 50.0))

    print(f"{'t':>6} {'err_v':>12} {'err_w':>12} {'|err|':>12}")
    for point in result.series:
        print(f"{point.t:>6.1f} {point.err_v:>12.4e} {point.err_w:>12.4e} "
              f"{math.hypot(point.err_v, point.err_w):>12.4e}")
    print(f"\nfitted slope over t in {result.fit_window}: {result.slope:.3f}")


if __name__ == "__main__":
    main()

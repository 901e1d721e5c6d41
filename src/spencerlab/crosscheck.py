"""Finite-difference cross-check of the circle spectrum.

The periodic second-difference Laplacian on N points is compared with the
exact circle modes in double precision.
"""

from __future__ import annotations

import math

from .errors import NumericError, PreconditionError

# Largest N; a larger one exits 3 before any list is built, as JET_BUDGET
# and LATTICE_BUDGET guard the jet and lattice layers.  The tests and the
# benchmark use at most N = 256.  As a fresh command, N = 65536 takes about
# 0.5 s and writes a 2.4 MB report; N = 10^6 takes 4-5 s and writes 37.5 MB
# (Python 3.11, 2 vCPUs); the work and the report grow linearly with N.
CROSSCHECK_BUDGET = 2**16


def fd_spectrum_crosscheck(length, n_points):
    """Periodic finite-difference eigenvalues against exact circle modes.

    The FD Laplacian on N points has eigenvalues 4 sin^2(pi k/N) (N/L)^2;
    the first floor(N/4) nonzero ones must match (2 pi n/L)^2 within the
    second-order discretization bound lambda^2 h^2 / 12 (with slack).
    """
    if n_points < 8:
        raise PreconditionError("crosscheck needs N >= 8")
    if n_points > CROSSCHECK_BUDGET:
        raise PreconditionError(
            f"crosscheck N = {n_points} is past the work budget of {CROSSCHECK_BUDGET} points"
        )
    try:
        return _fd_crosscheck(float(length), n_points)
    except OverflowError:
        raise NumericError(
            f"crosscheck --length {length!r}: the eigenvalues, the mesh size "
            "or the error bounds overflow double precision"
        ) from None


def _fd_crosscheck(L, n):
    h = L / n
    fd = sorted(4 * math.sin(math.pi * k / n) ** 2 * (n / L) ** 2 for k in range(n))[1:]
    exact = []
    m = 1
    while len(exact) < len(fd):
        exact.extend([(2 * math.pi * m / L) ** 2] * 2)
        m += 1
    keep = max(1, n // 4)
    rows = []
    for i in range(keep):
        lam = exact[i]
        resid = abs(fd[i] - lam)
        bound = lam**2 * h**2 / 12 * 1.5 + 1e-12
        rows.append(
            {
                "mode": i + 1,
                "exact": lam,
                "finite_difference": fd[i],
                "residual": resid,
                "bound": bound,
                "within_bound": resid <= bound,
            }
        )
    monotone = all(b - a >= -1e-12 for a, b in zip(fd, fd[1 : 2 * keep]))
    return {
        "length": L,
        "n_points": n,
        "modes_checked": keep,
        "all_within_bound": all(r["within_bound"] for r in rows),
        "ordering_monotone": monotone,
        "rows": rows,
    }

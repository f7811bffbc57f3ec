"""Effective sample size of a scalar Markov-chain trace.

Geyer's initial monotone sequence estimator (Geyer, Statist. Sci. 7,
1992), computed with numpy only.  With autocorrelations rho_k, the pair
sums Gamma_m = rho_{2m} + rho_{2m+1} are kept up to the first one that is
not positive, then made non-increasing; the integrated autocorrelation
time is tau = -1 + 2 * sum_m Gamma_m and the ESS is n / tau.
"""

from __future__ import annotations

import math

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Biased sample autocorrelations rho_0..rho_{n-1}, by zero-padded FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centred = x - x.mean()
    spectrum = np.fft.rfft(centred, 2 * n)
    acov = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:n] / n
    return acov / acov[0]


def geyer_ess(x) -> float:
    """ESS of ``x``; NaN when the trace is non-finite or constant.

    tau is floored at 1 / log10(n), as Stan does, so that an antithetic
    chain cannot report an unbounded ESS.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 samples for an ESS estimate")
    if not np.all(np.isfinite(x)) or not x.var() > 0.0:
        return math.nan
    rho = autocorrelation(x)
    pairs = rho[0 : n - 1 : 2] + rho[1:n:2]
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0] if stop.size else pairs.size]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return n / max(tau, 1.0 / math.log10(n))

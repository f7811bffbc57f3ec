"""Successive-conditional (Geweke) test of the blocked Gibbs sweep.

Geweke, *JASA* 99 (2004), "Getting it right": start from a state of the
truncated prior (``_Sweep.from_prior``), then alternate a fresh y of
``N_OBS`` observations drawn given the state with one ``_Sweep.step``
given y.  If every step leaves its posterior invariant, every state
follows the prior.  For each functional of the state (log sigma, the
largest weight, the log mixture density at 0 and the mean sum_j w_j a_j)
the indicators of falling below the 10%, 50% and 90% quantiles of
``DIRECT`` direct prior draws are compared by a z-score, with a
batch-means variance for the chain.  Indicators are used because the
IG(2, 1/2) law of sigma has no variance.  The direct draws share no code
with ``from_prior``: numpy Beta sticks and base draws for Pitman-Yor,
:func:`~supermix.priors.nig_sample` for N-IG.

The largest |z| must stay at most ``Z_MAX``; over seeds 0-5 of each
config it was at most 2.6.  Each injected bug listed in CHANGES.md (a
wrong residual count or scale in the sigma draw, a dropped latent scale in
the GIG step, wrong stick counts, a wrong allocation, wrong atom updates,
an unpinned last Pitman-Yor stick) gives more than ``Z_MAX`` or raises,
apart from the unpinned last DP stick, whose remainder has mass ~2^-26 at
c = 1 and the 27 sticks of n = 15.
"""

import dataclasses
import math

import numpy as np
import pytest

from supermix.posterior import (
    SCALE_PRIOR,
    FitConfig,
    NIGPartitionPrior,
    _Allocation,
    _Sweep,
    default_py_config,
    default_w2_config,
    stick_truncation,
)
from supermix.priors import NIGParams, nig_sample

N_OBS = 15
SWEEPS = 20_000
DIRECT = 20_000
BATCHES = 50
LEVELS = (0.1, 0.5, 0.9)
Z_MAX = 5.0

CONFIGS = {
    "dp": default_py_config("dp"),
    # the py rule keeps the cap, and at 10 sticks the pinned last one holds
    # mass ~0.06, so an unpinned last stick moves the law
    "py": dataclasses.replace(default_py_config("py"), truncation=10),
    "nig": FitConfig(prior=NIGPartitionPrior(n_cells=8)),
    "w2": default_w2_config(),
}
SEEDS = {"dp": 0, "py": 1, "nig": 2, "w2": 3}


def _functionals(weights, atoms, sigma):
    """(draws, 4): log sigma, the largest weight, the log mixture density
    at 0 and the mean sum_j w_j a_j."""
    z = atoms / sigma[:, None]
    with np.errstate(divide="ignore"):
        log_f0 = np.log((weights * np.exp(-0.5 * z * z)).sum(axis=1)) - np.log(sigma)
    return np.stack([np.log(sigma), weights.max(axis=1), log_f0 - 0.5 * math.log(2 * math.pi),
                     (weights * atoms).sum(axis=1)], axis=1)


def _successive_conditional(cfg, sweeps, rng):
    """Weights, atoms and sigma of the state after each of ``sweeps`` steps."""
    state = _Sweep.from_prior(cfg, N_OBS, rng)
    size = state.block.atoms.size
    weights, atoms, sigma = np.empty((sweeps, size)), np.empty((sweeps, size)), np.empty(sweeps)
    for i in range(sweeps):
        block = state.block
        cum = np.cumsum(block.weights())
        labels = np.searchsorted(cum, rng.random(N_OBS) * cum[-1], side="right")
        y = block.atoms[labels] + state.sigma * rng.standard_normal(N_OBS)
        state.allocation = _Allocation(y, size)
        state.step(rng)
        weights[i], atoms[i], sigma[i] = block.weights(), block.atoms, state.sigma
    return weights, atoms, sigma


def _direct_prior(cfg, draws, rng):
    """Weights, atoms and sigma of ``draws`` independent truncated-prior states."""
    prior = cfg.prior
    if isinstance(prior, NIGPartitionPrior):
        weights = nig_sample(NIGParams(prior.cell_alphas()), rng, draws)
        atoms = np.broadcast_to(prior.cell_midpoints(), weights.shape)
    else:
        js = np.arange(1, stick_truncation(prior, N_OBS, cfg.truncation)[0])
        sticks = rng.beta(1.0 - prior.d, prior.c + prior.d * js, size=(draws, js.size))
        left = np.cumprod(1.0 - sticks, axis=1)
        weights = np.concatenate([sticks[:, :1], sticks[:, 1:] * left[:, :-1], left[:, -1:]],
                                 axis=1)
        base = prior.base
        if base.family == "gaussian":
            atoms = base.scale * rng.standard_normal(weights.shape)
        else:
            atoms = rng.uniform(-base.scale, base.scale, weights.shape)
    if cfg.fixed_sigma is not None:
        sigma = np.full(draws, cfg.fixed_sigma)
    else:
        sigma = SCALE_PRIOR.lam / rng.gamma(SCALE_PRIOR.nu, size=draws)
    return weights, atoms, sigma


def geweke_z(name: str, seed: int) -> np.ndarray:
    """Indicator z-scores of config ``name``: one row per functional (log
    sigma left out when sigma is fixed), one column per level."""
    cfg, rng = CONFIGS[name], np.random.default_rng(seed)
    chain = _functionals(*_successive_conditional(cfg, SWEEPS, rng))
    direct = _functionals(*_direct_prior(cfg, DIRECT, rng))
    if cfg.fixed_sigma is not None:
        chain, direct = chain[:, 1:], direct[:, 1:]
    zs = np.empty((chain.shape[1], len(LEVELS)))
    for f, (c, d) in enumerate(zip(chain.T, direct.T)):
        for k, q in enumerate(np.quantile(d, LEVELS)):
            below_c, below_d = c < q, d < q
            batch_var = below_c.reshape(BATCHES, -1).mean(axis=1).var(ddof=1) / BATCHES
            zs[f, k] = (below_c.mean() - below_d.mean()) / math.sqrt(
                batch_var + below_d.var() / below_d.size)
    return zs


@pytest.mark.parametrize("name", list(CONFIGS))
def test_sweep_leaves_the_prior_invariant(name):
    zs = geweke_z(name, SEEDS[name])
    assert np.isfinite(zs).all()
    assert np.abs(zs).max() <= Z_MAX, zs

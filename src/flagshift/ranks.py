"""Shared numerical-rank policy: SVD cutoffs with resampling margins."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankPolicy:
    """Relative SVD cutoff with a safety margin for borderline spectra.

    Singular values below ``rel_tol * sigma_max`` count as zero.  A spectrum
    is flagged marginal when any singular value lands within a factor
    ``margin`` of the cutoff (on either side); callers are expected to
    resample the point rather than trust a borderline rank.
    """

    rel_tol: float = 1e-8
    margin: float = 10.0
    max_retries: int = 5


DEFAULT_POLICY = RankPolicy()


@dataclass(frozen=True)
class RankResult:
    rank: int
    marginal: bool
    sigmas: np.ndarray


def _threshold(sigmas: np.ndarray, policy: RankPolicy, scale: float | None) -> float:
    if sigmas.size == 0:
        return 0.0
    top = float(sigmas[0])
    if scale is not None:
        # A matrix that is identically zero up to roundoff has sigma_max made
        # of noise; anchoring the cutoff to the caller's natural scale keeps
        # such matrices at rank 0 instead of full rank.
        top = max(top, float(scale))
    return policy.rel_tol * top


def _is_marginal(sigmas: np.ndarray, policy: RankPolicy, scale: float | None = None) -> bool:
    cut = _threshold(sigmas, policy, scale)
    if cut == 0.0:
        return False
    lo, hi = cut / policy.margin, cut * policy.margin
    return bool(np.any((sigmas > lo) & (sigmas < hi)))


def numerical_rank(
    mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY, scale: float | None = None
) -> RankResult:
    """Rank of ``mat`` under the relative cutoff, with a margin flag.

    ``scale`` optionally anchors the cutoff to ``rel_tol * max(sigma_max,
    scale)`` for matrices whose natural magnitude is known and that may be
    exactly zero.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    sigmas = np.linalg.svd(mat, compute_uv=False)
    cut = _threshold(sigmas, policy, scale)
    rank = int(np.count_nonzero(sigmas > cut))
    return RankResult(rank, _is_marginal(sigmas, policy, scale), sigmas)


def nullspace(
    mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY, scale: float | None = None
) -> tuple[np.ndarray, bool]:
    """Orthonormal basis (columns) of the kernel of ``mat``.

    Returns the basis together with the marginal flag of the spectrum.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    _, sigmas, vh = np.linalg.svd(mat, full_matrices=True)
    cut = _threshold(sigmas, policy, scale)
    rank = int(np.count_nonzero(sigmas > cut))
    return vh[rank:].T.conj(), _is_marginal(sigmas, policy, scale)


def row_space(mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, bool]:
    """Orthonormal basis (rows) of the row space of ``mat``.

    Exactly zero rows are dropped first: they change neither the row space
    nor the nonzero spectrum, and LAPACK's gesdd can fail to converge on a
    matrix that carries them.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    mat = mat[np.any(mat != 0.0, axis=1)]
    _, sigmas, vh = np.linalg.svd(mat, full_matrices=False)
    cut = _threshold(sigmas, policy, None)
    rank = int(np.count_nonzero(sigmas > cut))
    return vh[:rank], _is_marginal(sigmas, policy)

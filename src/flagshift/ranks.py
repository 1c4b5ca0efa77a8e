"""Shared numerical-rank policy: one cutoff-and-margin decision (``decide``) for every rank."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class RankResult(NamedTuple):
    rank: int
    marginal: bool


def decide(sigmas: np.ndarray, policy: RankPolicy, scale: float | None = None) -> tuple:
    """(rank, marginal) of each spectrum in a stack (..., k): singular values, or ad eigenvalue gaps.

    Values above the cutoff ``rel_tol * max(largest, scale)`` count; a spectrum
    is marginal if any value lies strictly inside (cut / margin, cut * margin).
    ``scale`` keeps a matrix that vanishes up to noise at rank 0.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    cut = policy.rel_tol * sigmas.max(axis=-1, keepdims=True, initial=0.0 if scale is None else float(scale))
    # array methods, not np.count_nonzero / np.any: half the cost on one short spectrum
    rank = (sigmas > cut).sum(axis=-1)
    marginal = ((sigmas > cut / policy.margin) & (sigmas < cut * policy.margin)).any(axis=-1)
    return rank, marginal


def _nonzero_rows(mat: np.ndarray) -> np.ndarray:
    # Exactly zero rows change neither the row space nor the nonzero spectrum,
    # and LAPACK's gesdd can fail to converge on a matrix that carries them.
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return mat[np.any(mat != 0.0, axis=1)]


def numerical_rank(
    mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY, scale: float | None = None
) -> RankResult:
    """Rank of ``mat`` from its singular values alone, with a margin flag; ``scale`` as in ``decide``."""
    sigmas = np.linalg.svd(_nonzero_rows(mat), compute_uv=False)
    rank, marginal = decide(sigmas, policy, scale)
    return RankResult(int(rank), bool(marginal))


def nullspace(mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, bool]:
    """Orthonormal basis (columns) of the kernel of ``mat``, with the marginal flag of its spectrum."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    _, sigmas, vh = np.linalg.svd(mat, full_matrices=True)
    rank, marginal = decide(sigmas, policy)
    return vh[rank:].T.conj(), bool(marginal)


def row_space(mat: np.ndarray, policy: RankPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, bool]:
    """Orthonormal basis (rows) of the row space of ``mat``, with the marginal flag of its spectrum."""
    _, sigmas, vh = np.linalg.svd(_nonzero_rows(mat), full_matrices=False)
    rank, marginal = decide(sigmas, policy)
    return vh[:rank], bool(marginal)

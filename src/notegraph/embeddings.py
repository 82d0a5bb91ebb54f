"""Interval-class embeddings, GS-scores and a deterministic 2-D PCA
projection.

An interval class is the unsigned pitch difference modulo 12, so octave
placement never matters. Index -> name follows Western convention, from
perfect unison (0 semitones) up to major seventh (11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadSetting, EmptyGraph, EmptyGroup, EmptySet, TooShort, ZeroVariance, ZeroVector
from .graph import TransitionGraph
from . import stats

INTERVAL_NAMES = (
    "perfect unison",
    "minor second",
    "major second",
    "minor third",
    "major third",
    "perfect fourth",
    "tritone",
    "perfect fifth",
    "minor sixth",
    "major sixth",
    "minor seventh",
    "major seventh",
)

N_INTERVALS = 12


def interval_class(pitch_a: int, pitch_b: int) -> int:
    return abs(pitch_a - pitch_b) % 12


def interval_vector(g: TransitionGraph) -> np.ndarray:
    """12-vector of interval counts over the graph's edges: each edge adds
    its weight to the component of its interval class."""
    if g.edge_count == 0:
        raise EmptyGraph("no edges to count intervals from")
    nodes = np.array(g.node_list)
    classes = interval_class(nodes[:, None], nodes[None, :])
    return np.bincount(classes.ravel(), weights=g.weights.ravel(), minlength=N_INTERVALS)


def interval_fractions(counts: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Corpus-level interval shares from per-song interval count vectors
    (``interval_vector(g)``, one row each): summed counts divided by the
    total."""
    if len(counts) == 0:
        raise EmptyGroup("no songs in group")
    total = np.asarray(counts, dtype=float).sum(axis=0)
    return total / total.sum()


def gs_score(vectors: Sequence[np.ndarray]) -> float:
    """Mean cosine similarity of a vector set to its centroid.

    1 means all vectors point the same way (a specialist group); values
    near 0 mean the set is spread out.
    """
    if len(vectors) == 0:
        raise EmptySet("GS-score of an empty set")
    # the reductions of np.mean and np.linalg.norm, called directly
    matrix = np.asarray(vectors, dtype=float)
    k = len(matrix)
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1))
    if (norms == 0).any():
        raise ZeroVector("GS-score undefined with a zero vector")
    centroid = np.add.reduce(matrix, axis=0) / k
    c_norm = np.sqrt(centroid.dot(centroid))
    if c_norm == 0:
        raise ZeroVector("centroid is the zero vector")
    return float(np.add.reduce((matrix @ centroid) / (norms * c_norm)) / k)


def check_min_group_size(size: int) -> None:
    if size < 1:
        raise BadSetting(f"GS-score min group size must be >= 1, got {size}")


def group_embedding(
    label: str, vectors: Sequence[np.ndarray] | np.ndarray, min_group_size: int
) -> float | None:
    """The group's GS-score, or None below the size cut."""
    check_min_group_size(min_group_size)
    if len(vectors) == 0:
        raise EmptyGroup(f"group {label!r} has no members")
    return gs_score(vectors) if len(vectors) >= min_group_size else None


def pca_project(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 2-D PCA: mean-center, SVD, fixed sign convention.
    Returns the (n_rows, 2) coordinates and the explained variance, a
    fraction per component.

    Each component is flipped so its largest-magnitude loading is
    positive. Rank-deficient inputs are zero-padded to 2 components.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size and s[0] > 0 else 0
    n_keep = min(2, rank)
    coords = np.zeros((x.shape[0], 2))
    for i in range(n_keep):
        load = vt[i]
        sign = 1.0 if load[np.argmax(np.abs(load))] >= 0 else -1.0
        coords[:, i] = sign * u[:, i] * s[i]
    total_var = float(np.sum(s**2))
    explained = np.zeros(2)
    if total_var > 0:
        explained[:n_keep] = (s[:n_keep] ** 2) / total_var
    return coords, explained


@dataclass
class CorrelationEntry:
    component: int
    feature: str
    r: float
    p_value: float
    p_adjusted: float
    undefined: bool = False


def component_correlations(
    coordinates: np.ndarray,
    features: dict[str, Sequence[float]],
) -> list[CorrelationEntry]:
    """Pearson r of each projection axis against each feature column.

    A feature's non-finite rows are left out of its pairs. Holm
    adjustment is applied across the whole table; zero-variance pairs,
    and pairs with fewer than 3 rows, are flagged undefined and excluded
    from the family.
    """
    coords = np.asarray(coordinates, dtype=float)
    entries: list[CorrelationEntry] = []
    raw_pvals: list[float] = []
    for comp in range(coords.shape[1]):
        axis = coords[:, comp]
        for name, column in features.items():
            col = np.asarray(column, dtype=float)
            if len(col) != len(axis):
                raise ValueError(f"feature {name!r} length mismatch")
            keep = np.isfinite(col)
            try:
                res = stats.pearson(axis[keep], col[keep])
            except (ZeroVariance, TooShort):
                entries.append(CorrelationEntry(comp, name, np.nan, np.nan, np.nan, True))
                continue
            entries.append(CorrelationEntry(comp, name, res.statistic, res.p_value, np.nan))
            raw_pvals.append(res.p_value)
    adjusted = stats.holm_correction(raw_pvals) if raw_pvals else []
    it = iter(adjusted)
    for e in entries:
        if not e.undefined:
            e.p_adjusted = next(it)
    return entries

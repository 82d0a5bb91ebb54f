"""Interval-class embeddings, GS-scores and a deterministic 2-D PCA
projection.

An interval class is the unsigned pitch difference modulo 12, so octave
placement never matters. Index -> name follows Western convention, from
perfect unison (0 semitones) up to major seventh (11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from .errors import (
    BadSetting, EmptyGraph, EmptyGroup, EmptySet, NotegraphError, TooShort, ZeroVariance, ZeroVector,
)
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
_MAX_QL_ITERATIONS = 30  # per eigenvalue, EISPACK's cap


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
    # elementwise products and numpy sums, never a BLAS product
    matrix = np.asarray(vectors, dtype=float)
    k = len(matrix)
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1))
    if (norms == 0).any():
        raise ZeroVector("GS-score undefined with a zero vector")
    centroid = np.add.reduce(matrix, axis=0) / k
    c_norm = np.sqrt(np.add.reduce(centroid * centroid))
    if c_norm == 0:
        raise ZeroVector("centroid is the zero vector")
    cosines = np.add.reduce(matrix * centroid, axis=1) / (norms * c_norm)
    return float(np.add.reduce(cosines) / k)


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
    """Deterministic 2-D PCA: mean-center, eigen-decompose the columns'
    Gram matrix, fixed sign convention. Returns the (n_rows, 2)
    coordinates and the explained variance, a fraction per component.

    Each component is flipped so its largest-magnitude loading is
    positive. A component is kept when its eigenvalue exceeds 1e-12 of
    the largest (the eigensolve's noise floor is about 1e-16 of it);
    rank-deficient inputs are zero-padded to 2 components. The Gram
    matrix and the coordinates are elementwise products and numpy sums,
    and the eigensolve is plain Python, so no BLAS or LAPACK call is
    made and the bytes do not depend on the kernel the CPU selects.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    # one contiguous row per column: each Gram row is one reduction along it
    ct = (x - x.mean(axis=0)).T.copy()
    width = len(ct)
    gram = [[0.0] * width for _ in range(width)]
    for i in range(width):
        for j, value in enumerate(np.add.reduce(ct[i:] * ct[i], axis=1).tolist(), i):
            gram[i][j] = gram[j][i] = value
    values, vectors = _symmetric_eigen(gram, 2)
    n_keep = sum(v > values[0] * 1e-12 for v in values) if values and values[0] > 0 else 0
    trace = math.fsum(gram[i][i] for i in range(width))
    coords = np.zeros((x.shape[0], 2))
    explained = np.zeros(2)
    for i in range(n_keep):
        load = np.array(vectors[i])
        if load[np.argmax(np.abs(load))] < 0:
            load = -load
        coords[:, i] = np.add.reduce(ct * load[:, None], axis=0)
        explained[i] = values[i] / trace
    return coords, explained


def _symmetric_eigen(a: list[list[float]], count: int) -> tuple[list[float], list[list[float]]]:
    """The ``count`` largest eigenvalues of the symmetric matrix ``a`` (a
    list of rows), in descending order, and their unit eigenvectors.

    Householder tridiagonalization, then implicit QL with Wilkinson's
    shift: EISPACK's tred2 and tql2 (Martin, Reinsch & Wilkinson 1968;
    Bowdler, Martin, Reinsch & Wilkinson 1968), in plain Python floats.
    The reflectors and the QL rotations are kept and applied only to the
    eigenvectors asked for. Raises ``NotegraphError`` when an eigenvalue
    takes more than ``_MAX_QL_ITERATIONS`` QL steps.
    """
    n = len(a)
    a = [row[:] for row in a]
    # reduce row i left of its subdiagonal, from the last row up; e[i]
    # couples i - 1 and i
    e = [0.0] * n
    reflectors = []
    for i in range(n - 1, 1, -1):
        x = a[i][:i]
        scale = math.fsum(map(abs, x))
        if scale == 0.0:
            continue
        u = [v / scale for v in x]
        h = math.fsum(map(mul, u, u))
        f = u[-1]
        g = -math.sqrt(h) if f > 0 else math.sqrt(h)
        e[i] = scale * g
        h -= f * g
        u[-1] = f - g
        # P = I - u u'/h; the leading block becomes P A P = A - u q' - q u'
        p = [math.fsum(map(mul, a[j], u)) / h for j in range(i)]
        half = math.fsum(map(mul, u, p)) / (h + h)
        q = [pj - half * uj for pj, uj in zip(p, u)]
        for j in range(i):
            uj, qj = u[j], q[j]
            a[j][:i] = [v - uj * qk - qj * uk for v, uk, qk in zip(a[j], u, q)]
        reflectors.append((u, h))
    if n > 1:
        e[1] = a[1][0]
    d = [a[i][i] for i in range(n)]
    # from here e[i] couples i and i + 1
    e = e[1:] + [0.0]
    rotations = []
    shift = 0.0
    tst1 = 0.0
    eps = 2.0**-52
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        m = l
        while abs(e[m]) > eps * tst1:  # e[n - 1] is 0
            m += 1
        iterations = 0
        while m > l:
            iterations += 1
            if iterations > _MAX_QL_ITERATIONS:
                raise NotegraphError(
                    f"eigensolve: no convergence in {_MAX_QL_ITERATIONS} QL iterations")
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.hypot(p, 1.0)
            if p < 0:
                r = -r
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, n):
                d[i] -= h
            shift += h
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            for i in range(m - 1, l - 1, -1):
                c3, c2, s2 = c2, c, s
                ei, di = e[i], d[i]
                g = c * ei
                h = c * p
                r = math.hypot(p, ei)
                e[i + 1] = s * r
                s = ei / r
                c = p / r
                p = c * di - s * g
                d[i + 1] = h + s * (c * g + s * di)
                rotations.append((i, c, s))
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
            if abs(e[l]) <= eps * tst1:
                break
        d[l] += shift
        e[l] = 0.0
    order = sorted(range(n), key=d.__getitem__, reverse=True)[:count]
    vectors = []
    for j in order:
        # column j of Q R_1 ... R_K: the rotations, then the reflectors,
        # each applied to e_j last to first
        y = [0.0] * n
        y[j] = 1.0
        for i, c, s in reversed(rotations):
            yi, yk = y[i], y[i + 1]
            y[i] = c * yi + s * yk
            y[i + 1] = c * yk - s * yi
        for u, h in reversed(reflectors):
            t = math.fsum(map(mul, u, y)) / h
            y[: len(u)] = [v - t * uk for v, uk in zip(y, u)]
        vectors.append(y)
    return [d[j] for j in order], vectors


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

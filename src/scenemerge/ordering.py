"""Pseudo-video ordering and overlapping interleaved partitioning.

An unordered image collection is turned into a pseudo-video by solving an
open-path traversal on the pairwise similarity matrix (greedy nearest
neighbor plus 2-opt refinement, maximizing the sum of consecutive
similarities). The path is then dealt into K subsequences by a plain stride
(`interleave`) so each subset spans the whole scene; K = 1 keeps the path
contiguous. Finally the result is cut into sliding windows of subset_size
frames overlapping by exactly `overlap` frames. Adjacent windows are aligned
through the frames they share, so a plan with more than one subset needs
overlap >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidSimilarityError
from .io_formats import Indices, read_tensor

_SIM_TOL = 1e-9
_2OPT_TOL = 1e-12
_2OPT_MAX_PASSES = 10


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarity in [0, 1] with unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidSimilarityError(f"similarity must be square, got shape {v.shape}")
        if v.shape[0] == 0:
            raise InvalidSimilarityError("similarity matrix is empty")
        if not np.all(np.isfinite(v)):
            raise InvalidSimilarityError("similarity contains non-finite entries")
        if np.abs(v - v.T).max() > _SIM_TOL:
            raise InvalidSimilarityError(f"similarity is not symmetric within {_SIM_TOL}")
        if np.abs(np.diag(v) - 1.0).max() > _SIM_TOL:
            raise InvalidSimilarityError(f"similarity diagonal deviates from 1 beyond {_SIM_TOL}")
        if v.min() < -_SIM_TOL or v.max() > 1.0 + _SIM_TOL:
            raise InvalidSimilarityError(f"similarity entries outside [0, 1]: min {v.min()}, max {v.max()}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def read_similarity(path) -> SimilarityMatrix:
    """Read a similarity tensor file; a matrix it holds that fails validation names the file."""
    values = read_tensor(path)
    try:
        return SimilarityMatrix(values)
    except InvalidSimilarityError as e:
        raise InvalidSimilarityError(f"{path}: {e}") from e


@dataclass(frozen=True)
class SceneGraphPlan:
    """Ordering plus partition: which frames form each reconstruction
    subset. Its fields are plan.json's, in file order."""

    subset_size: int
    overlap: int
    n_subsequences: int
    pseudo_order: Indices
    interleaved_order: Indices
    subsets: list[Indices]

    def __post_init__(self):
        object.__setattr__(self, "pseudo_order", np.asarray(self.pseudo_order, dtype=np.int64))
        object.__setattr__(self, "interleaved_order", np.asarray(self.interleaved_order, dtype=np.int64))
        object.__setattr__(self, "subsets", [np.asarray(s, dtype=np.int64) for s in self.subsets])
        self.validate()

    @property
    def n_images(self) -> int:
        return len(self.pseudo_order)

    def validate(self) -> None:
        """Check permutation validity, full coverage, and exact adjacent overlap."""
        n = len(self.pseudo_order)
        if len(self.subsets) > 1 and self.overlap < 1:
            raise ConfigError(
                f"overlap must be >= 1 for a plan of {len(self.subsets)} subsets, got {self.overlap}: "
                "adjacent subsets are aligned through the frames they share"
            )
        for name, order in (("pseudo_order", self.pseudo_order), ("interleaved_order", self.interleaved_order)):
            if sorted(order.tolist()) != list(range(n)):
                raise ConfigError(f"plan field {name} is not a permutation of 0..{n - 1}")
        if not self.subsets:
            raise ConfigError("plan has no subsets")
        covered = set()
        for i, s in enumerate(self.subsets):
            if len(s) > self.subset_size:
                raise ConfigError(f"subset {i} has {len(s)} frames, exceeds subset_size {self.subset_size}")
            covered.update(s.tolist())
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise ConfigError(f"subsets do not cover all images, missing {missing[:5]}")
        for i in range(len(self.subsets) - 1):
            shared = set(self.subsets[i].tolist()) & set(self.subsets[i + 1].tolist())
            if len(shared) != self.overlap:
                raise ConfigError(
                    f"subsets {i} and {i + 1} share {len(shared)} frames, expected exactly {self.overlap}"
                )


def path_objective(order, similarity: SimilarityMatrix) -> float:
    """Sum of similarities along consecutive pairs of the open path."""
    o = np.asarray(order, dtype=np.int64)
    if len(o) < 2:
        return 0.0
    return float(similarity.values[o[:-1], o[1:]].sum())


def build_pseudo_order(similarity: SimilarityMatrix) -> np.ndarray:
    """Order images so consecutive ones are similar (greedy + 2-opt).

    Start at the image with the largest total similarity, repeatedly append
    the most similar unvisited image (ties to the lowest index), then run up
    to 10 sweeps of 2-opt segment reversals. The identity ordering is
    returned instead if it scores at least as well.
    """
    m = similarity.values
    n = similarity.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    row_sums = m.sum(axis=1) - np.diag(m)
    order = np.empty(n, dtype=np.int64)
    order[0] = int(np.argmax(row_sums))
    unvisited = np.ones(n, dtype=bool)
    unvisited[order[0]] = False
    for i in range(1, n):
        sims = np.where(unvisited, m[order[i - 1]], -np.inf)
        order[i] = int(np.argmax(sims))
        unvisited[order[i]] = False

    order = _two_opt(order, m)
    identity = np.arange(n, dtype=np.int64)
    if path_objective(order, similarity) >= path_objective(identity, similarity):
        return order
    return identity


def _two_opt(order: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Segment-reversal refinement maximizing the path similarity sum.

    Reversing order[i..j] removes edges (i-1, i) and (j, j+1) and adds
    (i-1, j) and (i, j+1); boundary cases drop the missing edge. For each
    anchor i the best j is applied if it improves; sweeps repeat until no
    move helps or the pass budget runs out.
    """
    order = order.copy()
    n = len(order)
    if n < 3:
        return order
    for _ in range(_2OPT_MAX_PASSES):
        improved = False
        # prefix reversals: reverse order[0..j], affects only edge (j, j+1)
        j = np.arange(0, n - 1)
        delta = m[order[0], order[j + 1]] - m[order[j], order[j + 1]]
        best = int(np.argmax(delta))
        if delta[best] > _2OPT_TOL:
            order[: best + 1] = order[: best + 1][::-1]
            improved = True
        for i in range(1, n - 1):
            j = np.arange(i, n)
            prev = order[i - 1]
            gain_in = m[prev, order[j]] - m[prev, order[i]]
            # interior moves also swap the outgoing edge; the j = n-1 move
            # (reverse the whole tail) has no outgoing edge
            nxt = order[np.minimum(j + 1, n - 1)]
            gain_out = np.where(j < n - 1, m[order[i], nxt] - m[order[j], nxt], 0.0)
            delta = gain_in + gain_out
            best = int(np.argmax(delta))
            if delta[best] > _2OPT_TOL:
                jb = i + best
                order[i : jb + 1] = order[i : jb + 1][::-1]
                improved = True
        if not improved:
            break
    return order


def interleave(order, n_subsequences: int) -> np.ndarray:
    """Split the path into K subsequences and concatenate them.

    Output position i takes order[(i mod K) * stride + i // K] with
    stride = ceil(n / K); grid slots past the end are skipped. For n = 9,
    K = 3 the identity order becomes (0, 3, 6, 1, 4, 7, 2, 5, 8). Each
    subsequence preserves the relative order of the path and spans it with
    stride K, so every subset covers the whole scene.
    """
    o = np.asarray(order, dtype=np.int64)
    n = len(o)
    k = _check_k(n_subsequences, n)
    stride = math.ceil(n / k)
    grid = np.arange(stride)[:, None] + stride * np.arange(k)[None, :]
    flat = grid.reshape(-1)
    return o[flat[flat < n]]


def expected_subset_count(n_images: int, subset_size: int, overlap: int) -> int:
    """ceil((N - T) / (T - O)) + 1 sliding windows, or 1 when N <= T."""
    if n_images <= subset_size:
        return 1
    return math.ceil((n_images - subset_size) / (subset_size - overlap)) + 1


def make_subsets(interleaved_order, subset_size: int, overlap: int) -> list[np.ndarray]:
    """Cut the interleaved order into windows of subset_size frames.

    Window k starts at k * (subset_size - overlap), so adjacent windows
    share exactly `overlap` frames. The final window is truncated at the
    end of the sequence and kept only if it contributes at least one frame
    not already covered (length > overlap), which preserves full coverage.
    """
    o = np.asarray(interleaved_order, dtype=np.int64)
    n = len(o)
    _check_window_params(subset_size, overlap)
    if n <= subset_size:
        return [o.copy()]
    step = subset_size - overlap
    subsets = []
    start = 0
    while start < n:
        window = o[start : start + subset_size]
        if start == 0 or len(window) > overlap:
            subsets.append(window.copy())
        if start + subset_size >= n:
            break
        start += step
    return subsets


def plan_scene(
    similarity: SimilarityMatrix,
    subset_size: int,
    overlap: int,
    n_subsequences: int | None = None,
) -> SceneGraphPlan:
    """Full partition plan: pseudo-order, interleave, sliding windows.

    n_subsequences defaults to the number of windows the sequence will be
    cut into, so each window draws roughly one frame per subsequence.
    """
    _check_window_params(subset_size, overlap)
    n = similarity.n
    k = n_subsequences if n_subsequences is not None else min(expected_subset_count(n, subset_size, overlap), n)
    _check_k(k, n)
    order = build_pseudo_order(similarity)
    inter = interleave(order, k)
    subsets = make_subsets(inter, subset_size, overlap)
    return SceneGraphPlan(
        pseudo_order=order,
        interleaved_order=inter,
        subsets=subsets,
        subset_size=subset_size,
        overlap=overlap,
        n_subsequences=k,
    )


def _check_k(k: int, n: int) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n:
        raise ConfigError(f"n_subsequences must be an integer in 1..{n}, got {k}")
    return int(k)


def _check_window_params(subset_size: int, overlap: int) -> None:
    if subset_size < 1:
        raise ConfigError(f"subset_size must be >= 1, got {subset_size}")
    if overlap < 0 or overlap >= subset_size:
        raise ConfigError(f"overlap must satisfy 0 <= overlap < subset_size, got {overlap} vs {subset_size}")

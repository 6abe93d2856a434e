"""Ground-truth marker surveying: point-cloud alignment and chain compounding.

Floor markers are square tags surveyed at five points each (two along one
edge, two along the orthogonal edge, one at the corner that defines the
marker origin). Aligning the canonical template to each observation gives
the instrument-to-marker transform; two markers seen from the same station
yield their relative transform, and compounding the chain places every
marker in the navigation frame anchored at marker 0. Surveying the chain
independently in the reverse direction gives a loop-closure error estimate.

All pure functions; map building is sequential but trivially cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Se3Transform, se3_compose

DEFAULT_TAG_SIDE = 0.28
# survey points along each tag edge, as fractions of the side length
EDGE_NEAR = 1.0 / 3.0
EDGE_FAR = 2.0 / 3.0


class RankDeficientError(ValueError):
    """Source points are collinear; the alignment rotation is not unique."""


@dataclass(frozen=True, eq=False)
class MarkerObservation:
    """Five surveyed points of one marker, in one instrument frame."""

    marker_id: int
    points: np.ndarray
    station_id: int

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.shape != (5, 3):
            raise ValueError("an observation holds exactly 5 points")
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", p)


@dataclass(frozen=True, eq=False)
class MarkerMap:
    """Marker positions in the navigation frame anchored at marker 0."""

    marker_ids: tuple[int, ...]
    positions: np.ndarray
    loop_closure_m: float
    path_length_m: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (len(self.marker_ids), 3):
            raise ValueError("one position per marker id required")
        if np.linalg.norm(pos[0]) > 1e-9:
            raise ValueError("marker 0 must sit at the navigation-frame origin")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "marker_ids", tuple(int(i) for i in self.marker_ids))

    def position_of(self, marker_id: int) -> np.ndarray:
        try:
            return self.positions[self.marker_ids.index(int(marker_id))]
        except ValueError:
            raise ValueError(f"marker {int(marker_id)} is not in the marker map") from None


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    transform: Se3Transform
    rms: float


def tag_template(side: float = DEFAULT_TAG_SIDE) -> np.ndarray:
    """Canonical tag-frame survey points: corner origin plus two per edge.

    The exact positions along the edges only affect conditioning, not
    correctness.
    """
    return np.array([
        [0.0, 0.0, 0.0],
        [EDGE_NEAR * side, 0.0, 0.0],
        [EDGE_FAR * side, 0.0, 0.0],
        [0.0, EDGE_NEAR * side, 0.0],
        [0.0, EDGE_FAR * side, 0.0],
    ])


def umeyama_align(source, target) -> AlignmentResult:
    """Least-squares rigid transform T with T.apply(source) ~ target.

    Closed-form SVD solution with unit scale; a reflection-only optimum is
    corrected by flipping the sign of the smallest singular direction, so the
    returned rotation always has determinant +1. Reports the residual RMS.
    """
    s = np.asarray(source, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != 3 or s.shape != t.shape:
        raise ValueError("source and target must be matching (n, 3) arrays")
    n = s.shape[0]
    if n < 3:
        raise ValueError("need at least 3 corresponding points")

    sc = s.mean(axis=0)
    tc = t.mean(axis=0)
    s0 = s - sc
    t0 = t - tc

    src_sv = np.linalg.svd(s0, compute_uv=False)
    if src_sv[1] <= 1e-9 * max(src_sv[0], 1e-30):
        raise RankDeficientError("source points are collinear or coincident")

    H = s0.T @ t0
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    trans = tc - R @ sc
    residuals = s0 @ R.T - t0
    rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    return AlignmentResult(Se3Transform(R, trans), rms)


def frame_to_frame(obs_i: MarkerObservation, obs_next: MarkerObservation,
                   template: np.ndarray) -> Se3Transform:
    """Relative transform taking marker-i coordinates to marker-(i+1) ones.

    Both observations must come from the same station so that the two
    instrument-to-marker alignments share a frame; the result is their
    composition and is independent of where that station stood.
    """
    if obs_i.station_id != obs_next.station_id:
        raise ValueError("observations must share a station (instrument) frame")
    t_i = umeyama_align(obs_i.points, template).transform
    t_next = umeyama_align(obs_next.points, template).transform
    return se3_compose(t_next, t_i.inverse())


def _chain_positions(pairwise: Sequence[Se3Transform]) -> np.ndarray:
    cum = Se3Transform.identity()
    pos = [np.zeros(3)]
    for T in pairwise:
        cum = se3_compose(cum, T.inverse())
        pos.append(cum.translation)
    return np.array(pos)


def build_map(stations: Sequence[Sequence[MarkerObservation]],
              template: np.ndarray) -> MarkerMap:
    """Compound a survey's stations into a marker map anchored at marker 0.

    Holds the survey's pass rules. Each station observes two adjacent
    markers; a pair's first station, in file order, feeds the forward chain
    and its second the reverse one, and no pair is surveyed a third time.
    The forward pairs chain from marker 0, and the reverse pass covers every
    pair or none; with it, the loop-closure error is the distance between
    the two far-end estimates and the path length covers both directions.
    The forward positions are the ones kept.
    """
    if not stations:
        raise ValueError("the survey holds no stations")
    surveyed: dict[tuple[int, int], list[Se3Transform]] = {}
    for obs in stations:
        if len(obs) != 2:
            raise ValueError("each station must observe exactly two markers")
        lo, hi = sorted(obs, key=lambda o: o.marker_id)
        if hi.marker_id != lo.marker_id + 1:
            raise ValueError("stations must observe adjacent marker ids")
        pair = (lo.marker_id, hi.marker_id)
        passes = surveyed.setdefault(pair, [])
        if len(passes) == 2:
            raise ValueError(f"marker pair {pair} surveyed more than twice")
        passes.append(frame_to_frame(lo, hi, template))
    pairs = sorted(surveyed)
    if pairs != [(i, i + 1) for i in range(len(pairs))]:
        raise ValueError("surveyed pairs must form a contiguous chain from marker 0")
    once = [p for p in pairs if len(surveyed[p]) == 1]
    if 0 < len(once) < len(pairs):
        raise ValueError(f"the reverse pass lacks marker pair {once[0]}")
    positions = _chain_positions([surveyed[p][0] for p in pairs])
    path_length = float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())
    closure = 0.0
    if not once:
        rpos = _chain_positions([surveyed[p][1] for p in pairs])
        closure = float(np.linalg.norm(positions[-1] - rpos[-1]))
        path_length += float(np.linalg.norm(np.diff(rpos, axis=0), axis=1).sum())
    return MarkerMap(tuple(range(len(positions))), positions, closure, path_length)

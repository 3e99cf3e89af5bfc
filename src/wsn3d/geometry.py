"""Exponential spatial correlation, event points and regular-dodecahedron geometry.

The correlation law exp(-d**alpha / theta) drives every distance-to-correlation
conversion in the package; check_event is the one check of an event point; the
dodecahedron constants size node sensing ranges.
All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Regular dodecahedron with edge length 1.
CIRCUMRADIUS_PER_EDGE = math.sqrt(3.0) * (1.0 + math.sqrt(5.0)) / 4.0
VOLUME_PER_EDGE_CUBED = (15.0 + 7.0 * math.sqrt(5.0)) / 4.0

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class CorrelationModel:
    """Exponential correlation model with range parameter theta and smoothness alpha."""

    theta: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.theta < math.inf):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")


def check_event(event) -> np.ndarray:
    """The event as a (3,) float array; ValueError unless it is a finite 3D point."""
    point = np.asarray(event, dtype=float)
    if point.shape != (3,) or not np.isfinite(point).all():
        raise ValueError(f"event must be a finite 3D point, got {tuple(point.ravel().tolist())}")
    return point


def correlation(model: CorrelationModel, d):
    """Correlation coefficient exp(-d**alpha / theta) at distance d >= 0.

    Accepts a scalar or an array of distances; equals 1 at d = 0 and decreases
    strictly toward 0 as d grows, reaching it at d = inf. A negative or NaN
    distance raises ValueError.
    """
    arr = np.asarray(d, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("distance must be non-negative")
    with np.errstate(over="ignore"):  # d**alpha / theta past the largest float is inf: a correlation of 0
        out = np.exp(-(arr ** model.alpha) / model.theta)
    return float(out) if np.isscalar(d) or arr.ndim == 0 else out


def pairwise_distances(a, b=None) -> np.ndarray:
    """Euclidean distances from every point of ``a`` to every point of ``b``.

    ``a`` and ``b`` are 3D points or arrays of them, (M, 3) and (K, 3); ``b``
    defaults to ``a``. Returns the (M, K) matrix, the square root of
    _squared_distances, which every caller goes through: a pair gets the same
    bits whichever rows are asked for, and d(p, q) == d(q, p). A distance past
    the largest float is inf.
    """
    out = _squared_distances(a, b)
    return np.sqrt(out, out=out)


def _squared_distances(a, b=None) -> np.ndarray:
    """Squared distances of pairwise_distances: dx**2 + dy**2, then + dz**2, in
    place; (p - q)**2 == (q - p)**2 exactly, so the result is symmetric to the bit."""
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = a if b is None else np.asarray(b, dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore"):
        out = np.subtract.outer(a[:, 0], b[:, 0])
        out *= out
        step = np.empty_like(out)
        for k in (1, 2):
            np.subtract.outer(a[:, k], b[:, k], out=step)
            step *= step
            out += step
    return out


def _squared_bound(radius: float) -> float:
    """The largest float s with sqrt(s) <= radius, for a finite radius >= 0.

    IEEE sqrt is correctly rounded and so monotone: sqrt(s) <= radius holds
    exactly when s <= this bound, an s of inf included. The walk starts at
    radius * radius, a few ulps from the answer, or at inf or 0 past the range.
    """
    s = radius * radius
    while math.sqrt(s) > radius:
        s = math.nextafter(s, -math.inf)
    while math.sqrt(up := math.nextafter(s, math.inf)) <= radius:
        s = up
    return s


def _power(base: float, exponent: float) -> float:
    """base**exponent for base >= 0, or inf where that overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def correlation_radius(model: CorrelationModel, tau: float) -> float:
    """Distance at which the correlation drops to tau: (theta * ln(1/tau))**(1/alpha).

    Inverse of :func:`correlation` for tau in (0, 1); tau = 1 maps to 0. A
    radius beyond the largest float, as a small alpha gives, is inf.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if tau == 1.0:
        return 0.0
    return _power(model.theta * math.log(1.0 / tau), 1.0 / model.alpha)


def event_volume(model: CorrelationModel, tau_e: float) -> float:
    """Volume of the sphere inside which correlation with the event stays >= tau_e; inf past the largest float."""
    r = correlation_radius(model, tau_e)
    return 4.0 / 3.0 * math.pi * _power(r, 3)


def _check_edge(edge: float) -> None:
    if not 0.0 < edge < math.inf:
        raise ValueError(f"edge must be positive and finite, got {edge}")


def dodeca_circumradius(edge: float) -> float:
    """Radius of the sphere through the 20 vertices: edge * (sqrt(3)/4)(1 + sqrt(5))."""
    _check_edge(edge)
    return CIRCUMRADIUS_PER_EDGE * edge


def dodeca_edge_from_circumradius(r: float) -> float:
    """Edge length of the regular dodecahedron with circumradius r (exact inverse)."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"circumradius must be non-negative and finite, got {r}")
    return r / CIRCUMRADIUS_PER_EDGE


def dodeca_volume(edge: float) -> float:
    """Volume edge**3 * (15 + 7*sqrt(5)) / 4 of the regular dodecahedron; inf past the largest float."""
    _check_edge(edge)
    return VOLUME_PER_EDGE_CUBED * _power(edge, 3)


def dodeca_vertices(edge: float = 1.0) -> np.ndarray:
    """The 20 vertices of a regular dodecahedron with the given edge, centered at 0.

    Uses the classic construction from cube corners (+-1, +-1, +-1) plus the
    golden-rectangle points; that set has edge 2/phi and is rescaled.
    """
    _check_edge(edge)
    inv = 1.0 / _PHI
    pts = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                pts.append((sx, sy, sz))
    for a in (-inv, inv):
        for b in (-_PHI, _PHI):
            pts.append((0.0, a, b))
            pts.append((a, b, 0.0))
            pts.append((b, 0.0, a))
    scale = edge / (2.0 / _PHI)
    return np.asarray(pts) * scale

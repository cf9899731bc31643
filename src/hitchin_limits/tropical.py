"""Asymptotic (tropical) holonomy exponents along flat geodesics.

A straight segment in a natural chart has a complex period ``p``.  The three
cube roots of the differential contribute the exponent triple

    nu_j = -2^(2/3) * Re(omega^(j-1) * p),      omega = e^(2*pi*i/3),

and the s^(1/3)-normalized log singular values of the holonomy of a geodesic
path are the componentwise sums of the per-segment triples after sorting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
CBRT4 = 2.0 ** (2.0 / 3.0)


@dataclass(frozen=True)
class WeylVector:
    """Ordered traceless triple: Weyl-chamber-valued lengths/exponents."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        scale = max(1.0, abs(self.x1), abs(self.x3))
        if not (self.x1 >= self.x2 >= self.x3):
            raise ValueError(f"WeylVector not sorted: {self}")
        if abs(self.x1 + self.x2 + self.x3) > 1e-12 * scale:
            raise ValueError(f"WeylVector not trace-free: {self}")

    @classmethod
    def from_values(cls, values) -> "WeylVector":
        a, b, c = sorted(values, reverse=True)
        return cls(a, b, c)

    def as_tuple(self):
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class SegmentExponents:
    """Unsorted exponent triple of one segment plus its sorted form."""

    nu: tuple  # (nu_1, nu_2, nu_3), unsorted, cube-root order
    weyl: WeylVector


def segment_exponents(period: complex) -> SegmentExponents:
    """Exponent triple of a straight segment with the given chart period.

    The sorted triple is invariant under period -> omega*period and under
    conjugation; the unsorted one depends on the cube-root labeling.
    """
    period = complex(period)
    if period == 0:
        raise ValueError("segment period must be nonzero")
    nu = tuple(-CBRT4 * (OMEGA ** j * period).real for j in range(3))
    return SegmentExponents(nu=nu, weyl=WeylVector.from_values(nu))


def path_singular_exponents(periods) -> WeylVector:
    """Componentwise sum of the sorted triples of a path's segments, given
    the iterable of their chart periods.

    Sums use math.fsum (exactly rounded), so reversal antisymmetry holds
    bitwise.
    """
    triples = [segment_exponents(p).weyl for p in periods]
    return WeylVector(math.fsum(w.x1 for w in triples),
                      math.fsum(w.x2 for w in triples),
                      math.fsum(w.x3 for w in triples))

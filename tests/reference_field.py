"""The closure-chain reference for the avatar's implicit field.

:class:`repro.avatar.implicit.PosedBodyField` evaluates its capsule
union through the fused kernel.  The oracle here rebuilds the same
field the slow, obvious way — ``smooth_union`` over one
``rounded_cone`` per posed bone segment plus the cranium
``ellipsoid`` — and applies the field's own expression warp, so it
answers every query the fused field does, to ~1e-9.

Install it on a reconstructor through the ``field_hook`` seam::

    rec = KeypointMeshReconstructor(resolution=64)
    rec.field_hook = reference_field
"""

from __future__ import annotations

import numpy as np

from repro.avatar.implicit import PosedBodyField
from repro.body.template import _HEAD_RADII
from repro.geometry.sdf import ellipsoid, rounded_cone, smooth_union


def reference_field(fld: PosedBodyField):
    """The closure-chain SDF equivalent to ``fld``."""
    primitives = [
        rounded_cone(head, tail, r_head, r_tail)
        for _, head, tail, r_head, r_tail in fld.segments
    ]
    primitives.append(ellipsoid(fld._head_center, _HEAD_RADII))
    chain = smooth_union(primitives, k=fld.blend)

    def sdf(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return chain(fld._warp(points))

    return sdf

"""Reconstruction is a pure function of the transmitted parameters, the
configuration and the gaze budget.

One reconstructor fed a random order of talking, walking and waving
frames, with the gaze budget switched on and off between frames, must
give every frame the mesh bytes and field-evaluation count of a fresh
reconstructor, and both must match the frame's frozen entry
(:data:`tests.geometry.frozen.FROZEN_STATELESS`), on both kernel
backends.
"""

import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.geometry.capsule_kernel import kernel_available
from tests.geometry.frozen import (
    MIXED_ROOT,
    STATELESS_RESOLUTIONS,
    assert_frozen,
    perf_gaze_budget,
    stateless_frames,
    stateless_name,
)

FRAMES = stateless_frames()
BUDGET = perf_gaze_budget()


def _reconstruct(rec, pose, budgeted):
    rec.set_depth_budget(BUDGET if budgeted else None)
    return rec.reconstruct(pose=pose)


def _fresh(resolution):
    return KeypointMeshReconstructor(
        resolution=resolution, octree_base=MIXED_ROOT
    )


@pytest.mark.parametrize("backend", ("c", "numpy"))
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    resolution=st.sampled_from(STATELESS_RESOLUTIONS),
    order=st.lists(
        st.tuples(st.sampled_from(sorted(FRAMES)), st.booleans()),
        min_size=2, max_size=6,
    ),
)
def test_reused_equals_fresh_equals_frozen(backend, resolution, order):
    env = {"REPRO_DISABLE_C_KERNEL": "1"} if backend == "numpy" else {}
    with mock.patch.dict(os.environ, env):
        if backend == "c" and not kernel_available():
            pytest.skip("C capsule kernel unavailable")
        reused = _fresh(resolution)
        for key, budgeted in order:
            pose = FRAMES[key]
            got = _reconstruct(reused, pose, budgeted)
            want = _reconstruct(_fresh(resolution), pose, budgeted)
            assert got.mesh.vertices.tobytes() == \
                want.mesh.vertices.tobytes()
            assert got.mesh.faces.tobytes() == want.mesh.faces.tobytes()
            assert got.field_evaluations == want.field_evaluations
            assert_frozen(
                stateless_name(*key, resolution, budgeted), got.mesh,
                got.field_evaluations, backend=backend,
            )

"""Frozen mesh digests of the retired dense extraction cascade.

Before the octree became the only surface extractor, the dense
coarse-to-fine cascade (with its full-grid pass at resolutions up to 64
and its finest-level seeded warm start) produced the meshes below.
Each entry holds, per kernel backend, the first 32 hex digits of the
sha256 of the mesh's ``vertices`` and ``faces`` bytes, and the field
evaluations the extraction performed.  The octree must reproduce every
mesh bit for bit — and every evaluation count, except on warm frames
of the reconstructor (``None``): its warm start now seeds from every
leaf that may hold surface (a corner within half a cell diagonal of
it), not only the straddling ones, which makes warm equal cold on
coarse grids at the price of a wider seed band.  The C digests assume
the kernel's default build (IEEE double arithmetic, no fused
multiply-add contraction).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.geometry.capsule_kernel import kernel_available

#: name -> ((C vertices, C faces), (NumPy vertices, NumPy faces),
#: field evaluations or None)
FROZEN = {
    "body-r128-base32": (
        (
            "683e65181d38aad90b8de33c91d97dd6",
            "81449e327ccd4aa576b730dd7ec8f8a5",
        ),
        (
            "bc8f061d3911e564cb25915f1b28218a",
            "81449e327ccd4aa576b730dd7ec8f8a5",
        ),
        162744,
    ),
    "body-r64-base32": (
        (
            "9a732b42c6a079d245b60132b71219d1",
            "b2126033e7fff412570206289ba90063",
        ),
        (
            "526a0145fa4a0bce30a1ba5fc4f9470f",
            "b2126033e7fff412570206289ba90063",
        ),
        63231,
    ),
    "expr-r96-f0": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "28a2fc407c8267d673187c1a83f91d1f",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        75218,
    ),
    "expr-r96-f1-changed": (
        (
            "c577e1410408522b8750ab3ae672c570",
            "1f478eb00c86c5b6a241d3c2bfc5479e",
        ),
        (
            "7b91f706b32d8a8d18db00d226a73242",
            "1f478eb00c86c5b6a241d3c2bfc5479e",
        ),
        75367,
    ),
    "identity-r48": (
        (
            "6566eff160349540a8edeca50912e700",
            "c788a7df3cfc1c98c309d56ef390fb97",
        ),
        (
            "3bfbe5a8797f499117c109e6ce55494f",
            "c788a7df3cfc1c98c309d56ef390fb97",
        ),
        117649,
    ),
    "moved-sphere-r96-cold": (
        (
            "33da39bda4b741039b45a873f4c72e8b",
            "9cc561dd367d854d8f757ae9bdbfd9e8",
        ),
        (
            "33da39bda4b741039b45a873f4c72e8b",
            "9cc561dd367d854d8f757ae9bdbfd9e8",
        ),
        121693,
    ),
    "moved-sphere-r96-seeded": (
        (
            "33da39bda4b741039b45a873f4c72e8b",
            "9cc561dd367d854d8f757ae9bdbfd9e8",
        ),
        (
            "33da39bda4b741039b45a873f4c72e8b",
            "9cc561dd367d854d8f757ae9bdbfd9e8",
        ),
        65116,
    ),
    "sphere-r64-iso0.1": (
        (
            "b2239effe92b46be5ecb58763556d76b",
            "e96269955070998880199ebd573b7fc9",
        ),
        (
            "b2239effe92b46be5ecb58763556d76b",
            "e96269955070998880199ebd573b7fc9",
        ),
        274625,
    ),
    "sphere-r96": (
        (
            "6d22c2083b8a6302b13662911b5d3bd3",
            "6b6aa21944cfba67251fd872de801f34",
        ),
        (
            "6d22c2083b8a6302b13662911b5d3bd3",
            "6b6aa21944cfba67251fd872de801f34",
        ),
        121469,
    ),
    "sphere-r96-bad-seed": (
        (
            "e3b0c44298fc1c149afbf4c8996fb924",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        (
            "e3b0c44298fc1c149afbf4c8996fb924",
            "e3b0c44298fc1c149afbf4c8996fb924",
        ),
        12,
    ),
    "talking3-f2-r64-cold": (
        (
            "cbeb462c95ba2e92e7ff4cf77844133c",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        (
            "b14303b419e2443a08a28892f6d9ff67",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        274625,
    ),
    "talking4-r96-f0-cold": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "28a2fc407c8267d673187c1a83f91d1f",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        75218,
    ),
    "talking4-r96-f0-warm": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "28a2fc407c8267d673187c1a83f91d1f",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        75218,
    ),
    "talking4-r96-f1-cold": (
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        (
            "f0a3afaf1090a5942c041ebb64e9e47d",
            "54221bd90569c61535148398f9cc0685",
        ),
        75367,
    ),
    "talking4-r96-f1-warm": (
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        (
            "f0a3afaf1090a5942c041ebb64e9e47d",
            "54221bd90569c61535148398f9cc0685",
        ),
        None,
    ),
    "talking4-r96-f2-cold": (
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        (
            "d83ad3184f1b77e421eed1948b372f3e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        74770,
    ),
    "talking4-r96-f2-warm": (
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        (
            "d83ad3184f1b77e421eed1948b372f3e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        None,
    ),
    "talking4-r96-f3-cold": (
        (
            "da47ca990e773a24f9d572da830dc6d3",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        (
            "ec22a0d7cb9925b1a244b46705554706",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        74443,
    ),
    "talking4-r96-f3-warm": (
        (
            "da47ca990e773a24f9d572da830dc6d3",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        (
            "ec22a0d7cb9925b1a244b46705554706",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        None,
    ),
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()
    ).hexdigest()[:32]


def assert_frozen(name, mesh, evaluations=None, backend=None) -> None:
    """Assert ``mesh`` (and ``evaluations``) match the frozen entry.

    ``backend`` names the kernel backend that evaluated the field;
    ``None`` means the default one (C when it is available).  Fields
    that never reach the capsule kernel give the same digests on both.
    """
    c_digests, numpy_digests, frozen_evals = FROZEN[name]
    if backend is None:
        backend = "c" if kernel_available() else "numpy"
    want = c_digests if backend == "c" else numpy_digests
    got = (_digest(mesh.vertices), _digest(mesh.faces))
    assert got == want, f"{name}: mesh differs from the frozen digest"
    if frozen_evals is not None and evaluations is not None:
        assert evaluations == frozen_evals, (
            f"{name}: {evaluations} field evaluations, "
            f"frozen {frozen_evals}"
        )

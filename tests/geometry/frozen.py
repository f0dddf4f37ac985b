"""Frozen mesh digests of the retired dense extraction cascade.

Before the octree became the only surface extractor, the dense
coarse-to-fine cascade (with its full-grid pass at resolutions up to
64) produced the meshes below.  Each entry holds, per kernel backend,
the first 32 hex digits of the sha256 of the mesh's ``vertices`` and
``faces`` bytes, and the field evaluations the extraction performed
(``None`` where it is not pinned).  The octree must reproduce every
mesh bit for bit, and every pinned evaluation count.  The ``-cold``
suffix names reconstructions that start from the root pass, as every
reconstruction now does.  Entries without an
explicit root (no ``base`` in the name) count the evaluations of the
derived schedule, which halves down to a root of 16; the meshes were
recorded from the dense root pass up to resolution 64 and a root of 32
above it, and a smaller root changed none of them.  The C digests
assume the kernel's default build (IEEE double arithmetic, no fused
multiply-add contraction).  The NumPy evaluator computes the C
kernel's per-point expression, so the two columns hold the same
digests.

:data:`FROZEN_MIXED` pins gaze-budgeted extractions, where leaves stop
at different depths and the mixed-depth polygonisation resolves them on
the finest lattice.  Those digests and evaluation counts were recorded from the sort-based resolution, a
first-occurrence ``np.unique`` over every leaf's expanded corner ids,
before it was replaced by a scatter onto a dense lattice; the
replacement must reproduce them bit for bit.  Regenerate with
``PYTHONPATH=src python -m tests.geometry.frozen`` (set
``REPRO_DISABLE_C_KERNEL=1`` for the NumPy digests).
"""

from __future__ import annotations

import hashlib
import pprint

import numpy as np

from repro.avatar.reconstructor import KeypointMeshReconstructor
from repro.body.motion import talking, waving, walking
from repro.gaze.lod import GazeDepthBudget
from repro.geometry.capsule_kernel import kernel_available
from repro.serve.broadcast import gaze_tiers

#: name -> ((C vertices, C faces), (NumPy vertices, NumPy faces),
#: field evaluations or None)
FROZEN = {
    "body-r128-base32": (
        (
            "683e65181d38aad90b8de33c91d97dd6",
            "81449e327ccd4aa576b730dd7ec8f8a5",
        ),
        (
            "683e65181d38aad90b8de33c91d97dd6",
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
            "9a732b42c6a079d245b60132b71219d1",
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
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        66023,
    ),
    "expr-r96-f1-changed": (
        (
            "c577e1410408522b8750ab3ae672c570",
            "1f478eb00c86c5b6a241d3c2bfc5479e",
        ),
        (
            "c577e1410408522b8750ab3ae672c570",
            "1f478eb00c86c5b6a241d3c2bfc5479e",
        ),
        66180,
    ),
    "identity-r48": (
        (
            "6566eff160349540a8edeca50912e700",
            "c788a7df3cfc1c98c309d56ef390fb97",
        ),
        (
            "6566eff160349540a8edeca50912e700",
            "c788a7df3cfc1c98c309d56ef390fb97",
        ),
        19985,
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
        114902,
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
        63523,
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
        114726,
    ),
    "talking3-f2-r64-cold": (
        (
            "cbeb462c95ba2e92e7ff4cf77844133c",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        (
            "cbeb462c95ba2e92e7ff4cf77844133c",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        34631,
    ),
    "talking4-r96-base32-f0-cold": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        75218,
    ),
    "talking4-r96-base32-f1-cold": (
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        75367,
    ),
    "talking4-r96-base32-f2-cold": (
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        74770,
    ),
    "talking4-r96-f0-cold": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        66023,
    ),
    "talking4-r96-f1-cold": (
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        66180,
    ),
    "talking4-r96-f2-cold": (
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        65539,
    ),
    "talking4-r96-f3-cold": (
        (
            "da47ca990e773a24f9d572da830dc6d3",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        (
            "da47ca990e773a24f9d572da830dc6d3",
            "bc775a94f53886444fb5cdd609efc0cd",
        ),
        65126,
    ),
}

#: Mixed-depth (gaze-budgeted) extractions, same layout as
#: :data:`FROZEN`; see :func:`mixed_depth_runs` for the cases.
FROZEN_MIXED = {
    "gaze-perf-r128-talking-f0-cold": (
        (
            "6308640ccc2ff6a33e485e550e385dce",
            "e5a67b7e0467515976d63ce8cd1e54ad",
        ),
        (
            "6308640ccc2ff6a33e485e550e385dce",
            "e5a67b7e0467515976d63ce8cd1e54ad",
        ),
        64159,
    ),
    "gaze-perf-r128-talking-f1-cold": (
        (
            "20c922ce9417dc077c7a2be6d0e96917",
            "e2cb9c1574ad5177622bd510e573e245",
        ),
        (
            "20c922ce9417dc077c7a2be6d0e96917",
            "e2cb9c1574ad5177622bd510e573e245",
        ),
        63829,
    ),
    "gaze-perf-r128-talking-f2-cold": (
        (
            "2a662437b57f0cde55c6394baa8c9a3d",
            "abccc9d19023afa3b9175badc458b678",
        ),
        (
            "2a662437b57f0cde55c6394baa8c9a3d",
            "abccc9d19023afa3b9175badc458b678",
        ),
        63801,
    ),
    "gaze-perf-r256-talking-f0-cold": (
        (
            "067ce46164d285450d387d1758f8e90d",
            "841f522eef8dd9d787d09caf62125f6a",
        ),
        (
            "067ce46164d285450d387d1758f8e90d",
            "841f522eef8dd9d787d09caf62125f6a",
        ),
        245593,
    ),
    "gaze-perf-r256-talking-f1-cold": (
        (
            "6f66b18c96932c04a963bd8767787206",
            "4421fb64be7c67f4373b8f1f2b994b93",
        ),
        (
            "6f66b18c96932c04a963bd8767787206",
            "4421fb64be7c67f4373b8f1f2b994b93",
        ),
        245532,
    ),
    "gaze-perf-r256-talking-f2-cold": (
        (
            "8b46956b77e3939ecfd6bbad75ebf8ec",
            "94d55d89cd703e8532a0514b5d44ee31",
        ),
        (
            "8b46956b77e3939ecfd6bbad75ebf8ec",
            "94d55d89cd703e8532a0514b5d44ee31",
        ),
        245177,
    ),
    "gaze-perf-r64-talking-f0-cold": (
        (
            "13f25e41397e2c787421ae422c47ed3f",
            "acc8cef51082240ba126ea4f6e3346f8",
        ),
        (
            "13f25e41397e2c787421ae422c47ed3f",
            "acc8cef51082240ba126ea4f6e3346f8",
        ),
        18333,
    ),
    "gaze-perf-r64-talking-f1-cold": (
        (
            "7553f51fc41cd860683d38b9c190ba76",
            "74297c426de51809cad51251bde05e1e",
        ),
        (
            "7553f51fc41cd860683d38b9c190ba76",
            "74297c426de51809cad51251bde05e1e",
        ),
        18089,
    ),
    "gaze-perf-r64-talking-f2-cold": (
        (
            "a68507e88b8b82dd264d73e310c6b78d",
            "4dad9d102ccbb58df3f675b78741ed58",
        ),
        (
            "a68507e88b8b82dd264d73e310c6b78d",
            "4dad9d102ccbb58df3f675b78741ed58",
        ),
        18043,
    ),
    "gaze-tier1-r128-talking-f0-cold": (
        (
            "1f13603d56b934387e20b41dcfc2e9fe",
            "64a9ef4d2ea35516bc9628b3734c9847",
        ),
        (
            "1f13603d56b934387e20b41dcfc2e9fe",
            "64a9ef4d2ea35516bc9628b3734c9847",
        ),
        65554,
    ),
    "gaze-tier1-r128-talking-f1-cold": (
        (
            "dd35657193f738689897850f460a1559",
            "a3a5c7a37f817f1d3a3c24a6dea80e55",
        ),
        (
            "dd35657193f738689897850f460a1559",
            "a3a5c7a37f817f1d3a3c24a6dea80e55",
        ),
        64972,
    ),
    "gaze-tier1-r128-talking-f2-cold": (
        (
            "494f31da515d26f61f8bae8a4bd2f04f",
            "9b43cf74121581b207fecc357002421e",
        ),
        (
            "494f31da515d26f61f8bae8a4bd2f04f",
            "9b43cf74121581b207fecc357002421e",
        ),
        64854,
    ),
    "gaze-tier1-r128-talking-f3-cold": (
        (
            "dcfedb12b534379251ea1c49f92cd27c",
            "9040a55d2c51f700ac0abb7e9423fc49",
        ),
        (
            "dcfedb12b534379251ea1c49f92cd27c",
            "9040a55d2c51f700ac0abb7e9423fc49",
        ),
        64956,
    ),
    "gaze-tier1-r128-walking-f0-cold": (
        (
            "88909a44eb2b4f430b8436ce100d9dc9",
            "de228d086f0ea3c06f207b1e01508bbb",
        ),
        (
            "88909a44eb2b4f430b8436ce100d9dc9",
            "de228d086f0ea3c06f207b1e01508bbb",
        ),
        56248,
    ),
    "gaze-tier1-r128-walking-f1-cold": (
        (
            "ad43db9983f7d86c30cb8b6b4baa986c",
            "91d57c6f885ebb3fa48ff8a9fff0a8d9",
        ),
        (
            "ad43db9983f7d86c30cb8b6b4baa986c",
            "91d57c6f885ebb3fa48ff8a9fff0a8d9",
        ),
        55980,
    ),
    "gaze-tier1-r128-walking-f2-cold": (
        (
            "1fd7327f739aeee468e5ddb21c1f55df",
            "9d20f92304526d06a5cde92f71c8aed2",
        ),
        (
            "1fd7327f739aeee468e5ddb21c1f55df",
            "9d20f92304526d06a5cde92f71c8aed2",
        ),
        55952,
    ),
    "gaze-tier1-r128-walking-f3-cold": (
        (
            "703b8be2574b5f4d1697b3d4456cc7d0",
            "233fcdc48f3d73c2422aeed4ba82f74d",
        ),
        (
            "703b8be2574b5f4d1697b3d4456cc7d0",
            "233fcdc48f3d73c2422aeed4ba82f74d",
        ),
        56240,
    ),
    "gaze-tier1-r128-waving-f0-cold": (
        (
            "ae2997e0f7d741754695cc3ad94ea9bf",
            "3a6f209cf6b3ac834db4f330403912c4",
        ),
        (
            "ae2997e0f7d741754695cc3ad94ea9bf",
            "3a6f209cf6b3ac834db4f330403912c4",
        ),
        56266,
    ),
    "gaze-tier1-r128-waving-f1-cold": (
        (
            "bc270c40d2df7a524639817f7e4dfe0e",
            "ba8452daa51eb39ff91429a7e3de9b5b",
        ),
        (
            "bc270c40d2df7a524639817f7e4dfe0e",
            "ba8452daa51eb39ff91429a7e3de9b5b",
        ),
        55854,
    ),
    "gaze-tier1-r128-waving-f2-cold": (
        (
            "2571d649c6340ac7e5209bfccd6a36c7",
            "5326998cc960a103e10dac50cefdf4e3",
        ),
        (
            "2571d649c6340ac7e5209bfccd6a36c7",
            "5326998cc960a103e10dac50cefdf4e3",
        ),
        55500,
    ),
    "gaze-tier1-r128-waving-f3-cold": (
        (
            "98495099abf1e09d591c2626e2689073",
            "39f69971a0ff10f41ba276539ba3b309",
        ),
        (
            "98495099abf1e09d591c2626e2689073",
            "39f69971a0ff10f41ba276539ba3b309",
        ),
        55252,
    ),
    "gaze-tier2-r128-talking-f0-cold": (
        (
            "01725ba2fd7e5faa57bb712482e5a11d",
            "539bf5ac8eaf35693b4ba00eaa92c205",
        ),
        (
            "01725ba2fd7e5faa57bb712482e5a11d",
            "539bf5ac8eaf35693b4ba00eaa92c205",
        ),
        51092,
    ),
    "gaze-tier2-r128-talking-f1-cold": (
        (
            "da6cdf657963980eb73f99b9ffe365a3",
            "afd0183061d951166491f3850fe65c61",
        ),
        (
            "da6cdf657963980eb73f99b9ffe365a3",
            "afd0183061d951166491f3850fe65c61",
        ),
        50756,
    ),
    "gaze-tier2-r128-talking-f2-cold": (
        (
            "a1eb2450924f56c66d2f5e60031f7bf5",
            "afd5f282b224340dc324f751c823c2ad",
        ),
        (
            "a1eb2450924f56c66d2f5e60031f7bf5",
            "afd5f282b224340dc324f751c823c2ad",
        ),
        50654,
    ),
    "gaze-tier2-r128-talking-f3-cold": (
        (
            "deda491b20b185d053f8b3d54ca1a2f7",
            "306b5f3cd7cba643bdeb0bf3f671e16f",
        ),
        (
            "deda491b20b185d053f8b3d54ca1a2f7",
            "306b5f3cd7cba643bdeb0bf3f671e16f",
        ),
        50682,
    ),
    "gaze-tier2-r128-walking-f0-cold": (
        (
            "8a74924d0c51ab985cae4b17ae5135b6",
            "41e2bd7f669517135bc4c7c08a54c3dd",
        ),
        (
            "8a74924d0c51ab985cae4b17ae5135b6",
            "41e2bd7f669517135bc4c7c08a54c3dd",
        ),
        44058,
    ),
    "gaze-tier2-r128-walking-f1-cold": (
        (
            "38436625c3f7516bcae21fa0410d8edd",
            "5186afa67fca79b48d04c5d59ae648da",
        ),
        (
            "38436625c3f7516bcae21fa0410d8edd",
            "5186afa67fca79b48d04c5d59ae648da",
        ),
        43732,
    ),
    "gaze-tier2-r128-walking-f2-cold": (
        (
            "7b60da6076d8943e5b4c18bfe4704152",
            "ad6ca6465066087e3080924cc485c62e",
        ),
        (
            "7b60da6076d8943e5b4c18bfe4704152",
            "ad6ca6465066087e3080924cc485c62e",
        ),
        43864,
    ),
    "gaze-tier2-r128-walking-f3-cold": (
        (
            "00dd3678a018d3f72fc69f70e7697bbe",
            "4f29e076363afd683db2d9168b33ef8b",
        ),
        (
            "00dd3678a018d3f72fc69f70e7697bbe",
            "4f29e076363afd683db2d9168b33ef8b",
        ),
        44112,
    ),
    "gaze-tier2-r128-waving-f0-cold": (
        (
            "320741af9a5ff922c24f0a205598c2dc",
            "4c9cc62731155e0494c8c638953b153c",
        ),
        (
            "320741af9a5ff922c24f0a205598c2dc",
            "4c9cc62731155e0494c8c638953b153c",
        ),
        45752,
    ),
    "gaze-tier2-r128-waving-f1-cold": (
        (
            "1f4be31c02163143022071ddff22faad",
            "e04aa09b79c8a108cd822a6fa5849040",
        ),
        (
            "1f4be31c02163143022071ddff22faad",
            "e04aa09b79c8a108cd822a6fa5849040",
        ),
        45350,
    ),
    "gaze-tier2-r128-waving-f2-cold": (
        (
            "980b75e531d65065a81333d3f229edae",
            "10ea31bb67f7a21a1531f0984c77f62c",
        ),
        (
            "980b75e531d65065a81333d3f229edae",
            "10ea31bb67f7a21a1531f0984c77f62c",
        ),
        45040,
    ),
    "gaze-tier2-r128-waving-f3-cold": (
        (
            "7752ec43ec7aafc7dcf33b0872cc9d6d",
            "58f2f5f6246bb61047f9a5bec6492b83",
        ),
        (
            "7752ec43ec7aafc7dcf33b0872cc9d6d",
            "58f2f5f6246bb61047f9a5bec6492b83",
        ),
        44840,
    ),
}
FROZEN.update(FROZEN_MIXED)

#: Statelessness frames, same layout as :data:`FROZEN`; see
#: :func:`stateless_runs` for the cases.  Recorded from the
#: reconstructor's cold path before the warm start was removed.
FROZEN_STATELESS = {
    "stateless-talking-r64-f0-cold": (
        (
            "8619c5fc7bb8183320068a3e2f43a410",
            "28e45b39f9db18d602408960e5f8b5f4",
        ),
        (
            "8619c5fc7bb8183320068a3e2f43a410",
            "28e45b39f9db18d602408960e5f8b5f4",
        ),
        35023,
    ),
    "stateless-talking-r64-gaze-f0-cold": (
        (
            "13f25e41397e2c787421ae422c47ed3f",
            "acc8cef51082240ba126ea4f6e3346f8",
        ),
        (
            "13f25e41397e2c787421ae422c47ed3f",
            "acc8cef51082240ba126ea4f6e3346f8",
        ),
        18333,
    ),
    "stateless-talking-r96-f0-cold": (
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        (
            "5ebe802b0cb5e80c7abdce270aa26e38",
            "b89c3416af0cfd28a3b419f6198d7b56",
        ),
        66023,
    ),
    "stateless-talking-r96-gaze-f0-cold": (
        (
            "cd88bc7822e719046956cdfcbd85ed10",
            "5f185aed5874dd4db6e3a8ea63216064",
        ),
        (
            "cd88bc7822e719046956cdfcbd85ed10",
            "5f185aed5874dd4db6e3a8ea63216064",
        ),
        36169,
    ),
    "stateless-talking-r64-f1-cold": (
        (
            "1a0cdb82f75d4878e779d4234d1eeb11",
            "01daaae326031b70447750c177fdf8c9",
        ),
        (
            "1a0cdb82f75d4878e779d4234d1eeb11",
            "01daaae326031b70447750c177fdf8c9",
        ),
        34649,
    ),
    "stateless-talking-r64-gaze-f1-cold": (
        (
            "7553f51fc41cd860683d38b9c190ba76",
            "74297c426de51809cad51251bde05e1e",
        ),
        (
            "7553f51fc41cd860683d38b9c190ba76",
            "74297c426de51809cad51251bde05e1e",
        ),
        18089,
    ),
    "stateless-talking-r96-f1-cold": (
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        (
            "89e7c04264e7e2417ca67bea039be013",
            "54221bd90569c61535148398f9cc0685",
        ),
        66180,
    ),
    "stateless-talking-r96-gaze-f1-cold": (
        (
            "ece589c01025b485c3970de3f8e8b0e5",
            "be698ab6a064d40ce898a37e27bd244e",
        ),
        (
            "ece589c01025b485c3970de3f8e8b0e5",
            "be698ab6a064d40ce898a37e27bd244e",
        ),
        36156,
    ),
    "stateless-talking-r64-f2-cold": (
        (
            "cbeb462c95ba2e92e7ff4cf77844133c",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        (
            "cbeb462c95ba2e92e7ff4cf77844133c",
            "dbd02cd32e6a228a2d7227a53371030b",
        ),
        34631,
    ),
    "stateless-talking-r64-gaze-f2-cold": (
        (
            "a68507e88b8b82dd264d73e310c6b78d",
            "4dad9d102ccbb58df3f675b78741ed58",
        ),
        (
            "a68507e88b8b82dd264d73e310c6b78d",
            "4dad9d102ccbb58df3f675b78741ed58",
        ),
        18043,
    ),
    "stateless-talking-r96-f2-cold": (
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        (
            "40a87fbec00c9979bd2504fef4fcbb7e",
            "f23c6acdc3261e767f3d10a9964ce153",
        ),
        65539,
    ),
    "stateless-talking-r96-gaze-f2-cold": (
        (
            "1a801bf16d7d8f6a1a18aa536616a6ff",
            "ff812c0d0686ffe90ca51e832e8d1efc",
        ),
        (
            "1a801bf16d7d8f6a1a18aa536616a6ff",
            "ff812c0d0686ffe90ca51e832e8d1efc",
        ),
        35681,
    ),
    "stateless-walking-r64-f0-cold": (
        (
            "eaeaacf23be4de4059a86d7006b4a4ff",
            "6b4f24a1cc549920958f215fdb24d5fa",
        ),
        (
            "eaeaacf23be4de4059a86d7006b4a4ff",
            "6b4f24a1cc549920958f215fdb24d5fa",
        ),
        29903,
    ),
    "stateless-walking-r64-gaze-f0-cold": (
        (
            "0409a97d3c03e2dc9f4c3514b12a31d1",
            "f74af241ed8eb425eeb593e758089bed",
        ),
        (
            "0409a97d3c03e2dc9f4c3514b12a31d1",
            "f74af241ed8eb425eeb593e758089bed",
        ),
        15987,
    ),
    "stateless-walking-r96-f0-cold": (
        (
            "507878c57069519d6771437b3ad7b11b",
            "7636fa43a8dad3ca1d8c864fbb0c2483",
        ),
        (
            "507878c57069519d6771437b3ad7b11b",
            "7636fa43a8dad3ca1d8c864fbb0c2483",
        ),
        56739,
    ),
    "stateless-walking-r96-gaze-f0-cold": (
        (
            "c3c9a6b0b105a599ac4f573e343f67be",
            "a9f8932f08bc495e0e58d6ce1f8ce5f4",
        ),
        (
            "c3c9a6b0b105a599ac4f573e343f67be",
            "a9f8932f08bc495e0e58d6ce1f8ce5f4",
        ),
        30495,
    ),
    "stateless-walking-r64-f1-cold": (
        (
            "8cfe65fdf04046086ee34d5681aad440",
            "303db142ba4561e5099f52811cab3535",
        ),
        (
            "8cfe65fdf04046086ee34d5681aad440",
            "303db142ba4561e5099f52811cab3535",
        ),
        29879,
    ),
    "stateless-walking-r64-gaze-f1-cold": (
        (
            "ea4379f641c80007db23283b63ad9d91",
            "8626017d1fa912b2d18cbf8b8c19c1f3",
        ),
        (
            "ea4379f641c80007db23283b63ad9d91",
            "8626017d1fa912b2d18cbf8b8c19c1f3",
        ),
        15835,
    ),
    "stateless-walking-r96-f1-cold": (
        (
            "cc00b9c208e5302dc43168274876e02f",
            "0e0c80636aba0378996b9f3bee05d64f",
        ),
        (
            "cc00b9c208e5302dc43168274876e02f",
            "0e0c80636aba0378996b9f3bee05d64f",
        ),
        56461,
    ),
    "stateless-walking-r96-gaze-f1-cold": (
        (
            "3e25786cfc8f679587cbe68aaa59e32a",
            "ffacefa956666c4db21a2851c07685aa",
        ),
        (
            "3e25786cfc8f679587cbe68aaa59e32a",
            "ffacefa956666c4db21a2851c07685aa",
        ),
        30301,
    ),
    "stateless-walking-r64-f2-cold": (
        (
            "df32fe56dff619bbb07ec4819d1bc7d2",
            "69b9443d70366a1e3824bfc35cbc65e8",
        ),
        (
            "df32fe56dff619bbb07ec4819d1bc7d2",
            "69b9443d70366a1e3824bfc35cbc65e8",
        ),
        29823,
    ),
    "stateless-walking-r64-gaze-f2-cold": (
        (
            "20e95a591b8dde6e76d60ba47e667a91",
            "299ee9471791da09912ae70f3b6c3866",
        ),
        (
            "20e95a591b8dde6e76d60ba47e667a91",
            "299ee9471791da09912ae70f3b6c3866",
        ),
        15767,
    ),
    "stateless-walking-r96-f2-cold": (
        (
            "82428b44312339fbd901fa05329a2389",
            "0c46f5c4ade1f547d79800311bda51e5",
        ),
        (
            "82428b44312339fbd901fa05329a2389",
            "0c46f5c4ade1f547d79800311bda51e5",
        ),
        56453,
    ),
    "stateless-walking-r96-gaze-f2-cold": (
        (
            "3146829fdbba880be1bd852c68b88a89",
            "26fe579c83bdbfc4126e1a438c8875b3",
        ),
        (
            "3146829fdbba880be1bd852c68b88a89",
            "26fe579c83bdbfc4126e1a438c8875b3",
        ),
        30111,
    ),
    "stateless-waving-r64-f0-cold": (
        (
            "1b5c34f6e663777b8a111d08caf7fd28",
            "3a469961ca1a0404b9bda14b138627bc",
        ),
        (
            "1b5c34f6e663777b8a111d08caf7fd28",
            "3a469961ca1a0404b9bda14b138627bc",
        ),
        28319,
    ),
    "stateless-waving-r64-gaze-f0-cold": (
        (
            "a07b249b090da204baddfaad8469e383",
            "229fd33cee2daea6c7d8decf8681fbda",
        ),
        (
            "a07b249b090da204baddfaad8469e383",
            "229fd33cee2daea6c7d8decf8681fbda",
        ),
        16233,
    ),
    "stateless-waving-r96-f0-cold": (
        (
            "7b5fd0d1534eca3194ab957c803aa7fe",
            "b4c3fc700ccef65938c395c3377b8833",
        ),
        (
            "7b5fd0d1534eca3194ab957c803aa7fe",
            "b4c3fc700ccef65938c395c3377b8833",
        ),
        53473,
    ),
    "stateless-waving-r96-gaze-f0-cold": (
        (
            "0e363db41da021fb28961d0145a8a5a2",
            "ed65cceee5d19008a3148c36aaa8777c",
        ),
        (
            "0e363db41da021fb28961d0145a8a5a2",
            "ed65cceee5d19008a3148c36aaa8777c",
        ),
        31089,
    ),
    "stateless-waving-r64-f1-cold": (
        (
            "9738e1df225d44f6533ba0b305749f73",
            "6b65f67cad6750658e3670ad37c0c8c4",
        ),
        (
            "9738e1df225d44f6533ba0b305749f73",
            "6b65f67cad6750658e3670ad37c0c8c4",
        ),
        28223,
    ),
    "stateless-waving-r64-gaze-f1-cold": (
        (
            "c0edd0ddfff85a0b4b79fe44c02cfbde",
            "2c02fb21f6b4941fed186723657998d3",
        ),
        (
            "c0edd0ddfff85a0b4b79fe44c02cfbde",
            "2c02fb21f6b4941fed186723657998d3",
        ),
        16197,
    ),
    "stateless-waving-r96-f1-cold": (
        (
            "ad6f986f0ed5a8127ba1cd94f32f855f",
            "c38df74c4bb54823dcfe9e77e6a05cd6",
        ),
        (
            "ad6f986f0ed5a8127ba1cd94f32f855f",
            "c38df74c4bb54823dcfe9e77e6a05cd6",
        ),
        53201,
    ),
    "stateless-waving-r96-gaze-f1-cold": (
        (
            "bb1c1d7741670cf9b8bf689fffef8cc3",
            "b1bc941d949f1c1797eeb21ebe5a856f",
        ),
        (
            "bb1c1d7741670cf9b8bf689fffef8cc3",
            "b1bc941d949f1c1797eeb21ebe5a856f",
        ),
        31013,
    ),
    "stateless-waving-r64-f2-cold": (
        (
            "39830a082357b7e4c189f617fbd0e891",
            "0ace734127d6a9473ecfd2cbcc588dee",
        ),
        (
            "39830a082357b7e4c189f617fbd0e891",
            "0ace734127d6a9473ecfd2cbcc588dee",
        ),
        28155,
    ),
    "stateless-waving-r64-gaze-f2-cold": (
        (
            "fbac3dbc37e72433777f40c55dceda0f",
            "0342ee0e0328aa0baba6087818d96208",
        ),
        (
            "fbac3dbc37e72433777f40c55dceda0f",
            "0342ee0e0328aa0baba6087818d96208",
        ),
        16189,
    ),
    "stateless-waving-r96-f2-cold": (
        (
            "a33d5f3ac16c5d723d999fb1cf676bae",
            "7863a43c948cecad154eb29773b13399",
        ),
        (
            "a33d5f3ac16c5d723d999fb1cf676bae",
            "7863a43c948cecad154eb29773b13399",
        ),
        52985,
    ),
    "stateless-waving-r96-gaze-f2-cold": (
        (
            "402d8b2b4beb3929ea56305b31ecaa9e",
            "c5f0c859b702ea280aee411e1376778d",
        ),
        (
            "402d8b2b4beb3929ea56305b31ecaa9e",
            "c5f0c859b702ea280aee411e1376778d",
        ),
        30969,
    ),
}
FROZEN.update(FROZEN_STATELESS)


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


# --- mixed-depth (gaze-budgeted) extractions -------------------------

#: Root grid of every mixed-depth case (the perf sweep's octree rows).
MIXED_ROOT = 16


def perf_gaze_budget() -> GazeDepthBudget:
    """The reconstruction perf sweep's viewer: seated in front of the
    body, a 12-degree cone on the head/chest, two levels dropped
    everywhere else."""
    return GazeDepthBudget(
        eye=np.array([0.0, 1.4, 2.6]),
        direction=np.array([0.0, -0.05, -1.0]),
        cone_degrees=12.0,
        peripheral_drop=2,
    )


def _mixed_depth_sequences() -> tuple:
    """``(prefix, budget, resolution, motion, frames)`` per sequence:
    the perf budget at r64/r128/r256 over talking frames 0-2, and the
    broadcast's gaze tiers 1 and 2 at r128 over talking, waving and
    walking frames 0-3, all on a root-16 octree."""
    sequences = [
        (f"gaze-perf-r{resolution}-talking", perf_gaze_budget(),
         resolution, talking, 3)
        for resolution in (64, 128, 256)
    ]
    tiers = gaze_tiers(3)
    for tier in (1, 2):
        for motion in (talking, waving, walking):
            sequences.append(
                (f"gaze-tier{tier}-r128-{motion.__name__}", tiers[tier],
                 128, motion, 4)
            )
    return tuple(sequences)


MIXED_SEQUENCES = _mixed_depth_sequences()


def mixed_depth_runs(sequence):
    """Yield ``(name, mesh, field_evaluations)`` per frame of one of
    :data:`MIXED_SEQUENCES`."""
    prefix, budget, resolution, motion, n_frames = sequence
    frames = motion(n_frames=n_frames).frames
    rec = KeypointMeshReconstructor(
        resolution=resolution, octree_base=MIXED_ROOT
    )
    rec.set_depth_budget(budget)
    for index, frame in enumerate(frames):
        result = rec.reconstruct(pose=frame.pose)
        yield (
            f"{prefix}-f{index}-cold",
            result.mesh,
            result.field_evaluations,
        )


# --- statelessness frames --------------------------------------------

#: Frames the statelessness property draws from: the first
#: ``STATELESS_FRAMES`` frames of each motion at each resolution,
#: unbudgeted and under :func:`perf_gaze_budget` (both on a root-16
#: octree).
STATELESS_MOTIONS = (talking, walking, waving)
STATELESS_FRAMES = 3
STATELESS_RESOLUTIONS = (64, 96)


def stateless_frames() -> dict:
    """``(motion name, frame index) -> pose`` of every statelessness
    frame."""
    return {
        (motion.__name__, index): frame.pose
        for motion in STATELESS_MOTIONS
        for index, frame in enumerate(
            motion(n_frames=STATELESS_FRAMES).frames
        )
    }


def stateless_name(motion: str, index: int, resolution: int,
                   budgeted: bool) -> str:
    """The frozen entry of one statelessness frame."""
    gaze = "-gaze" if budgeted else ""
    return f"stateless-{motion}-r{resolution}{gaze}-f{index}-cold"


def stateless_runs():
    """Yield ``(name, mesh, field_evaluations)`` per statelessness frame,
    each from a fresh reconstructor."""
    for (motion, index), pose in stateless_frames().items():
        for resolution in STATELESS_RESOLUTIONS:
            for budgeted in (False, True):
                rec = KeypointMeshReconstructor(
                    resolution=resolution, octree_base=MIXED_ROOT
                )
                if budgeted:
                    rec.set_depth_budget(perf_gaze_budget())
                result = rec.reconstruct(pose=pose)
                yield (
                    stateless_name(motion, index, resolution, budgeted),
                    result.mesh,
                    result.field_evaluations,
                )


if __name__ == "__main__":
    # Print fresh mixed-depth and statelessness entries for the active
    # kernel backend.
    runs = [
        run for sequence in MIXED_SEQUENCES
        for run in mixed_depth_runs(sequence)
    ]
    runs.extend(stateless_runs())
    pprint.pprint(
        {
            name: ((_digest(mesh.vertices), _digest(mesh.faces)), evals)
            for name, mesh, evals in runs
        },
        width=72,
    )

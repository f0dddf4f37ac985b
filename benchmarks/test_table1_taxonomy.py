"""Table 1: the semantics taxonomy, derived from measurements.

The paper rates keypoint / image / text semantics L/M/H on extraction
overhead, reconstruction overhead, data size, and visual quality.  We
run all three pipelines on the talking workload, measure those four
quantities, map them through the documented thresholds in
``repro.core.taxonomy``, and compare the letters with the paper's.
"""

import numpy as np
import pytest

from conftest import register
from repro.bench.harness import ExperimentTable
from repro.core.image_pipeline import ImageSemanticPipeline
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.metrics import visual_quality
from repro.core.taxonomy import (
    PAPER_TABLE1,
    grade_data_size,
    grade_extraction,
    grade_quality,
    grade_reconstruction,
)
from repro.core.text_pipeline import TextSemanticPipeline
from tests.reference_field import reference_field

FPS = 30.0
FRAMES = 4


def _run_pipeline(pipe, dataset, quality):
    """Measure (extract_s, recon_s, mbps) for one pipeline.

    Quality is measured separately (see ``_quality_*``) with the
    dataset's ground-truth parameters, mirroring §4's setup where the
    X-Avatar dataset supplies fitted SMPL-X poses.
    """
    pipe.reset()
    extract, recon, payload = [], [], []
    for i in range(FRAMES):
        frame = dataset.frame(i)
        encoded = pipe.encode(frame)
        extract.append(encoded.timing.total)
        payload.append(encoded.payload_bytes)
        decoded = pipe.decode(encoded)
        recon.append(decoded.timing.total)
    return (
        float(np.mean(extract)),
        float(np.mean(recon[1:])) if len(recon) > 1 else recon[0],
        float(np.mean(payload)) * FPS * 8.0 / 1e6,
        quality,
    )


def _quality_keypoint(truth_frame):
    from repro.avatar.reconstructor import KeypointMeshReconstructor

    result = KeypointMeshReconstructor(resolution=128).reconstruct(
        truth_frame.body_state.pose,
        expression=truth_frame.body_state.expression,
    )
    return visual_quality(
        result.mesh, truth_frame.ground_truth_mesh, samples=4000
    ).f_score_1cm


def _quality_text(truth_frame, model):
    from repro.textsem.captioner import BodyCaptioner
    from repro.textsem.generator import TextTo3DGenerator

    captioner = BodyCaptioner()
    generator = TextTo3DGenerator(model=model, points=20000)
    caption = captioner.caption(
        truth_frame.body_state.pose, truth_frame.body_state.expression
    )
    generated = generator.generate(caption)
    return visual_quality(
        generated.point_cloud,
        truth_frame.ground_truth_mesh,
        samples=4000,
    ).f_score_1cm


def _quality_image(pipe, dataset):
    from repro.core.metrics import image_psnr

    pipe.reset()
    decoded = pipe.decode(pipe.encode(dataset.frame(0)))
    rendered = decoded.metadata["rendered"]
    reference = decoded.metadata["views"][0].rgb
    h, w = reference.shape[:2]
    psnr = image_psnr(rendered[:h, :w], reference)
    # 30 dB is photorealistic at this scale; map onto [0, 1].
    return float(np.clip(psnr / 30.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def taxonomy_rows(bench_model, bench_talking):
    truth_frame = bench_talking.frame(FRAMES - 1)
    image_pipe = ImageSemanticPipeline(
        pretrain_steps=60, finetune_steps=15
    )
    rows = {}
    # Table 1 rates the *surveyed* state of the art — X-Avatar style
    # per-frame implicit reconstruction — so the keypoint row measures
    # the reference field, not this repo's fused-kernel fast path
    # (whose gains are quantified in test_perf_reconstruction.py
    # instead).
    keypoint_pipe = KeypointSemanticPipeline(resolution=128)
    keypoint_pipe.reconstructor.field_hook = reference_field
    rows["keypoint"] = _run_pipeline(
        keypoint_pipe,
        bench_talking,
        _quality_keypoint(truth_frame),
    )
    rows["image"] = _run_pipeline(
        image_pipe,
        bench_talking,
        _quality_image(image_pipe, bench_talking),
    )
    rows["text"] = _run_pipeline(
        TextSemanticPipeline(model=bench_model, points=20000),
        bench_talking,
        _quality_text(truth_frame, bench_model),
    )
    return rows


def test_table1_regenerates(taxonomy_rows, benchmark):
    table = ExperimentTable(
        title="Table 1 — taxonomy of holographic-communication semantics",
        columns=["semantics", "extract", "recon", "size", "quality",
                 "format", "measured (s / s / Mbps / F@1cm)"],
        paper_note=(
            "keypoint L/H/L/M mesh; image -/H/M/H image; "
            "text H/H/L/M ptcl"
        ),
    )
    formats = {"keypoint": "mesh", "image": "image",
               "text": "point_cloud"}
    derived = {}
    for name, (extract_s, recon_s, mbps, quality) in \
            taxonomy_rows.items():
        grades = (
            grade_extraction(extract_s) if name != "image" else "-",
            grade_reconstruction(recon_s),
            grade_data_size(mbps),
            grade_quality(quality),
        )
        derived[name] = grades
        table.add_row(
            name,
            *grades,
            formats[name],
            f"{extract_s:.3f} / {recon_s:.3f} / {mbps:.2f} / "
            f"{quality:.2f}",
        )
    table.show()

    # The paper's load-bearing cells must match.
    assert derived["keypoint"][2] == PAPER_TABLE1["keypoint"].data_size
    assert derived["keypoint"][1] == \
        PAPER_TABLE1["keypoint"].reconstruction
    assert derived["text"][2] == PAPER_TABLE1["text"].data_size
    # Ordering claims: keypoint extraction cheapest, text most
    # expensive; image ships the most data of the three semantics.
    kp_extract = taxonomy_rows["keypoint"][0]
    text_extract = taxonomy_rows["text"][0]
    assert kp_extract < text_extract
    assert taxonomy_rows["image"][2] > taxonomy_rows["keypoint"][2]
    assert taxonomy_rows["image"][2] > taxonomy_rows["text"][2]
    register(benchmark, table.render)


def test_bench_text_caption(benchmark, bench_model, bench_talking):
    """Captioning cost per frame (text extraction path)."""
    pipe = TextSemanticPipeline(model=bench_model, points=2000)
    pipe.reset()
    frame = bench_talking.frame(0)
    benchmark(pipe.encode, frame)

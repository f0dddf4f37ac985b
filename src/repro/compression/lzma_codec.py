"""Keypoint-semantics payload codec.

The keypoint pipeline transmits SMPL-X-aligned parameters per frame:
55 joint rotations, root translation, shape betas, expression
coefficients, and per-joint detection confidences.  Serialised raw this
is ~1.9 KB — the paper's measured per-frame size — and the paper
compresses it with LZMA, which we do too (same stdlib algorithm).
"""

from __future__ import annotations

import lzma
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.body.expression import NUM_EXPRESSION, ExpressionParams
from repro.body.pose import BodyPose
from repro.body.shape import NUM_BETAS, ShapeParams
from repro.body.skeleton import NUM_JOINTS
from repro.errors import CodecError

__all__ = ["SemanticKeypointPayload", "KeypointPayloadCodec"]

_MAGIC = b"SHKP"
_VERSION = 1


@dataclass
class SemanticKeypointPayload:
    """Everything the keypoint pipeline ships for one frame.

    Attributes:
        pose: fitted body pose.
        shape: fitted shape parameters.
        expression: fitted expression coefficients.
        confidences: (55,) per-joint fit confidence.
        frame_index: sender frame number.
    """

    pose: BodyPose
    shape: ShapeParams = field(default_factory=ShapeParams.neutral)
    expression: ExpressionParams = field(
        default_factory=ExpressionParams.neutral
    )
    confidences: np.ndarray = field(
        default_factory=lambda: np.ones(NUM_JOINTS, dtype=np.float32)
    )
    frame_index: int = 0

    def __post_init__(self) -> None:
        self.confidences = np.asarray(
            self.confidences, dtype=np.float32
        ).ravel()
        if self.confidences.shape != (NUM_JOINTS,):
            raise CodecError(
                f"confidences must have {NUM_JOINTS} entries"
            )


class KeypointPayloadCodec:
    """Serialise / compress :class:`SemanticKeypointPayload`.

    ``encode``/``decode`` handle the raw wire format; ``compress``/
    ``decompress`` wrap it in LZMA exactly as the paper does (§4.2).
    """

    # 6 matches the library default the paper's numbers imply.  Its
    # 8 MiB dictionary is not: the encoder sizes its match finder's
    # hash table from the dictionary, so a preset-6 encoder costs
    # milliseconds to set up for a payload of a few KB.  ``compress``
    # keeps the preset but shrinks the dictionary to the payload.
    lzma_preset = 6

    def encode(self, payload: SemanticKeypointPayload) -> bytes:
        """Raw (uncompressed) wire format."""
        header = _MAGIC + struct.pack(
            "<BIBBB",
            _VERSION,
            payload.frame_index,
            NUM_JOINTS,
            NUM_BETAS,
            NUM_EXPRESSION,
        )
        body = b"".join(
            [
                payload.pose.joint_rotations.astype("<f8").tobytes(),
                payload.pose.translation.astype("<f8").tobytes(),
                payload.shape.betas.astype("<f8").tobytes(),
                payload.expression.coefficients.astype("<f8").tobytes(),
                payload.confidences.astype("<f4").tobytes(),
            ]
        )
        return header + body

    def decode(self, data: bytes) -> SemanticKeypointPayload:
        """Inverse of :meth:`encode`."""
        if len(data) < 12 or data[:4] != _MAGIC:
            raise CodecError("not a keypoint payload")
        version, frame_index, joints, betas, expressions = struct.unpack(
            "<BIBBB", data[4:12]
        )
        if version != _VERSION:
            raise CodecError(f"unsupported payload version {version}")
        if joints != NUM_JOINTS:
            raise CodecError("joint count mismatch")
        offset = 12
        expected = (
            offset
            + joints * 3 * 8
            + 3 * 8
            + betas * 8
            + expressions * 8
            + joints * 4
        )
        if len(data) != expected:
            raise CodecError(
                f"payload length {len(data)} != expected {expected}"
            )

        def _take(count: int, dtype: str, itemsize: int) -> np.ndarray:
            nonlocal offset
            chunk = np.frombuffer(
                data[offset: offset + count * itemsize], dtype=dtype
            ).copy()
            offset += count * itemsize
            return chunk

        rotations = _take(joints * 3, "<f8", 8).reshape(joints, 3)
        translation = _take(3, "<f8", 8)
        shape = _take(betas, "<f8", 8)
        expression = _take(expressions, "<f8", 8)
        confidences = _take(joints, "<f4", 4)
        return SemanticKeypointPayload(
            pose=BodyPose(
                joint_rotations=rotations, translation=translation
            ),
            shape=ShapeParams(betas=shape),
            expression=ExpressionParams(coefficients=expression),
            confidences=confidences,
            frame_index=frame_index,
        )

    def compress(self, payload: SemanticKeypointPayload) -> bytes:
        """LZMA-compressed wire format (the paper's §4.2 configuration).

        An LZMA2 filter at ``lzma_preset`` with the smallest
        power-of-two dictionary (at least LZMA's 4 KiB minimum) that
        holds the whole payload: every match stays in the window, so
        the stream is as long as ``lzma.compress(raw, preset=...)``
        gives and differs only in the header's dictionary-size byte.
        """
        raw = self.encode(payload)
        dict_size = 4096
        while dict_size < len(raw):
            dict_size *= 2
        return lzma.compress(raw, filters=[{
            "id": lzma.FILTER_LZMA2,
            "preset": self.lzma_preset,
            "dict_size": dict_size,
        }])

    def decompress(self, blob: bytes) -> SemanticKeypointPayload:
        """Inverse of :meth:`compress`."""
        try:
            raw = lzma.decompress(blob)
        except lzma.LZMAError as exc:
            raise CodecError(f"LZMA decompression failed: {exc}") from exc
        return self.decode(raw)

    def raw_size(self, payload: Optional[SemanticKeypointPayload] = None
                 ) -> int:
        """Size in bytes of the raw wire format (constant per frame)."""
        payload = payload or SemanticKeypointPayload(
            pose=BodyPose.identity()
        )
        return len(self.encode(payload))

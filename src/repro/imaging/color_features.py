"""Colour feature variant (Chapter 5 future work).

The thesis reports an attempt to "make use of color information in color
natural scene images.  We used RGB values separately and used a similar
approach as we did with gray-scale images, tripling the number of dimensions
of feature vectors."  This module implements that variant: each region
yields one vector per colour channel, concatenated to a ``3 * h**2``-dim
instance, each channel block normalised independently (so the Section 3.4
correlation correspondence holds per channel).

:class:`RgbRegionCorpus` adapts an :class:`~repro.database.store.ImageDatabase`
to the corpus protocol with these tripled features, so the standard feedback
loop and ranking run unchanged — mirroring how the thesis swapped feature
representations without touching the learner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DatabaseError, FeatureError
from repro.imaging.features import FeatureConfig
from repro.imaging.smoothing import smooth_and_sample, smooth_and_sample_stack
from repro.imaging.transform import normalize_feature

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.core.retrieval import RetrievalCandidate
    from repro.database.store import ImageDatabase


class RgbFeatureExtractor:
    """Region features with per-channel RGB blocks (3 * h**2 dims)."""

    def __init__(self, config: FeatureConfig | None = None):
        self._config = config or FeatureConfig()

    @property
    def config(self) -> FeatureConfig:
        """The pipeline configuration (resolution, regions, mirrors)."""
        return self._config

    @property
    def n_dims(self) -> int:
        """Tripled feature dimensionality."""
        return 3 * self._config.n_dims

    def extract(self, rgb: np.ndarray) -> np.ndarray:
        """Instance matrix of one RGB image.

        The per-channel work is batched: each region is cropped once from
        the ``(m, n, 3)`` array, the channel variances reduce over views
        of that one crop (computed per channel so the floating-point
        summation matches the reference loop bit-for-bit), and all three
        channels ride through a single integral-image smoothing pass
        (:func:`~repro.imaging.smoothing.smooth_and_sample_stack`) instead
        of three — the feature vectors are identical to the per-channel
        loop (:func:`extract_rgb_by_loop`, asserted by the test suite).

        Args:
            rgb: ``(m, n, 3)`` float array in [0, 1].

        Returns:
            ``(n_instances, 3 * resolution**2)`` matrix.

        Raises:
            FeatureError: if no region survives (constant image) or the
                input is not an RGB array.
        """
        rgb = np.asarray(rgb, dtype=np.float64)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise FeatureError(
                f"RGB features require an (m, n, 3) array, got shape {rgb.shape}"
            )
        cfg = self._config
        vectors: list[np.ndarray] = []
        for index, region in enumerate(cfg.region_family):
            top, left, height, width = region.pixel_box(rgb.shape[0], rgb.shape[1])
            crop = rgb[top : top + height, left : left + width, :]
            keep_anyway = cfg.keep_full_frame and index == 0
            if not keep_anyway:
                # Per-channel .var() over 2-D views that share the reference
                # loop's memory layout — a joint var(axis=(0, 1)) groups
                # numpy's pairwise summation differently and can move a
                # region sitting exactly on the threshold by ulps.
                variance = float(
                    np.mean([crop[..., channel].var() for channel in range(3)])
                )
                if variance < cfg.variance_threshold:
                    continue
            stack = smooth_and_sample_stack(crop, cfg.resolution)
            for mirrored in (False, True) if cfg.include_mirrors else (False,):
                oriented = stack[:, ::-1, :] if mirrored else stack
                blocks = []
                failed = False
                for channel in range(3):
                    try:
                        blocks.append(
                            normalize_feature(oriented[..., channel].reshape(-1))
                        )
                    except FeatureError:
                        failed = True
                        break
                if not failed:
                    vectors.append(np.concatenate(blocks))
        if not vectors:
            raise FeatureError("no region survived RGB feature extraction")
        return np.vstack(vectors)


def extract_rgb_by_loop(
    rgb: np.ndarray, config: FeatureConfig | None = None
) -> np.ndarray:
    """The per-region/per-channel reference implementation of RGB extraction.

    Crops, measures and smooths each colour channel separately — three
    :func:`~repro.imaging.smoothing.smooth_and_sample` calls per region.
    Kept as the reference the batched
    :meth:`RgbFeatureExtractor.extract` is asserted feature-identical to
    (``tests/test_color_features.py``); production code should use the
    extractor.

    Raises:
        FeatureError: if no region survives or the input is not RGB.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FeatureError(
            f"RGB features require an (m, n, 3) array, got shape {rgb.shape}"
        )
    cfg = config or FeatureConfig()
    vectors: list[np.ndarray] = []
    for index, region in enumerate(cfg.region_family):
        crops = [region.extract(rgb[..., channel]) for channel in range(3)]
        variance = float(np.mean([crop.var() for crop in crops]))
        keep_anyway = cfg.keep_full_frame and index == 0
        if not keep_anyway and variance < cfg.variance_threshold:
            continue
        matrices = [smooth_and_sample(crop, cfg.resolution) for crop in crops]
        for mirrored in (False, True) if cfg.include_mirrors else (False,):
            blocks = []
            failed = False
            for matrix in matrices:
                oriented = matrix[:, ::-1] if mirrored else matrix
                try:
                    blocks.append(normalize_feature(oriented.reshape(-1)))
                except FeatureError:
                    failed = True
                    break
            if not failed:
                vectors.append(np.concatenate(blocks))
    if not vectors:
        raise FeatureError("no region survived RGB feature extraction")
    return np.vstack(vectors)


class RgbRegionCorpus:
    """Corpus adapter serving tripled-RGB region bags over a database.

    Implements ``instances_for`` / ``category_of`` / ``packed`` so the
    standard
    :class:`~repro.core.feedback.FeedbackLoop` and the vectorised
    :class:`~repro.core.retrieval.Ranker` run on colour features.
    """

    def __init__(self, database: ImageDatabase, config: FeatureConfig | None = None):
        from repro.core.retrieval import CorpusPacker

        self._database = database
        self._extractor = RgbFeatureExtractor(config)
        self._cache: dict[str, np.ndarray] = {}
        self._packer = CorpusPacker()

    @property
    def extractor(self) -> RgbFeatureExtractor:
        """The underlying extractor."""
        return self._extractor

    def instances_for(self, image_id: str) -> np.ndarray:
        """Tripled-RGB instance matrix of one image (cached)."""
        if image_id not in self._cache:
            record = self._database.record(image_id)
            rgb = record.image.rgb
            if rgb is None:
                raise DatabaseError(
                    f"image {image_id!r} has no stored RGB data; the colour "
                    "variant needs colour images"
                )
            self._cache[image_id] = self._extractor.extract(rgb)
        return self._cache[image_id]

    def category_of(self, image_id: str) -> str:
        """Ground-truth category (delegates to the database)."""
        return self._database.category_of(image_id)

    def packed(self, ids=None):
        """Columnar tripled-RGB corpus view (cached over the whole database,
        keyed on the database's mutation counter).

        Raises:
            DatabaseError: for an unknown id or a gray-only image.
        """
        return self._packer.packed(
            ids,
            all_ids=self._database.image_ids,
            category_of=self.category_of,
            instances_for=self.instances_for,
            version=self._database.version,
        )

    def retrieval_candidates(self, ids) -> "list[RetrievalCandidate]":
        """Per-image view for the ``rank_by_loop`` oracle (zero-copy)."""
        from repro.core.retrieval import RetrievalCandidate

        return [
            RetrievalCandidate(
                image_id=image_id,
                category=self.category_of(image_id),
                instances=self.instances_for(image_id),
            )
            for image_id in ids
        ]

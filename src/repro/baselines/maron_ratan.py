"""The "previous approach" (Section 4.2.4): Maron & Lakshmi Ratan, ICML 1998.

Maron & Lakshmi Ratan applied Diverse Density to natural-scene retrieval
using *colour* bag generators rather than region correlation.  Their best
performer, reproduced here, is the **single blob with neighbours** (SBN)
representation: the image is smoothed to a coarse colour grid; each instance
describes one cell ("blob") by its mean RGB plus the RGB *differences* to
its four neighbours — 15 dimensions per instance, one instance per interior
grid cell.

This baseline reuses the package's DD core unchanged; only the bag
representation differs.  :class:`ColorCorpus` adapts an
:class:`~repro.database.store.ImageDatabase` to the corpus protocol so the
same :class:`~repro.core.feedback.FeedbackLoop` drives both systems — the
paper's comparison then differs in exactly one variable, the features.

As the paper notes, this approach "has been specifically tuned to retrieving
color natural scene images, and would not work with object images"; it
requires stored RGB data and raises for gray-only databases.
"""

from __future__ import annotations

import numpy as np

from repro.core.retrieval import CorpusPacker, PackedCorpus, RetrievalCandidate
from repro.database.store import ImageDatabase
from repro.errors import DatabaseError, FeatureError

#: Side length of the coarse colour grid the SBN features live on.
DEFAULT_GRID = 6


def _mean_pool_rgb(rgb: np.ndarray, grid: int) -> np.ndarray:
    """Reduce an ``(m, n, 3)`` image to a ``(grid, grid, 3)`` mean grid."""
    rows, cols = rgb.shape[0], rgb.shape[1]
    if rows < grid or cols < grid:
        raise FeatureError(f"image {rgb.shape} too small for a {grid}x{grid} colour grid")
    row_edges = np.linspace(0, rows, grid + 1).astype(int)
    col_edges = np.linspace(0, cols, grid + 1).astype(int)
    pooled = np.empty((grid, grid, 3), dtype=np.float64)
    for i in range(grid):
        for j in range(grid):
            block = rgb[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            pooled[i, j] = block.reshape(-1, 3).mean(axis=0)
    return pooled


def single_blob_with_neighbors(rgb: np.ndarray, grid: int = DEFAULT_GRID) -> np.ndarray:
    """SBN instances of one RGB image.

    Args:
        rgb: ``(m, n, 3)`` float array in [0, 1].
        grid: coarse grid side; instances come from the ``(grid-2)**2``
            interior cells.

    Returns:
        ``((grid-2)**2, 15)`` instance matrix: blob RGB plus the RGB
        differences to the up/down/left/right neighbours.

    Raises:
        FeatureError: on malformed input or a grid below 3.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FeatureError(f"SBN requires an (m, n, 3) colour image, got shape {rgb.shape}")
    if grid < 3:
        raise FeatureError(f"SBN grid must be >= 3, got {grid}")
    pooled = _mean_pool_rgb(rgb, grid)
    instances = []
    for i in range(1, grid - 1):
        for j in range(1, grid - 1):
            blob = pooled[i, j]
            up = pooled[i - 1, j] - blob
            down = pooled[i + 1, j] - blob
            left = pooled[i, j - 1] - blob
            right = pooled[i, j + 1] - blob
            instances.append(np.concatenate([blob, up, down, left, right]))
    return np.vstack(instances)


class ColorCorpus:
    """Corpus adapter exposing SBN colour bags over an image database.

    Implements the :class:`~repro.core.feedback.Corpus` protocol
    (``instances_for`` / ``category_of`` / ``packed``) so the standard feedback loop and the
    vectorised :class:`~repro.core.retrieval.Ranker` run unmodified on
    colour features — both learner families share one fast path.

    Args:
        database: must contain images stored with RGB data.
        grid: the SBN grid side.
    """

    def __init__(self, database: ImageDatabase, grid: int = DEFAULT_GRID):
        self._database = database
        self._grid = grid
        self._cache: dict[str, np.ndarray] = {}
        self._packer = CorpusPacker()

    @property
    def grid(self) -> int:
        """The SBN grid side."""
        return self._grid

    def instances_for(self, image_id: str) -> np.ndarray:
        """SBN instance matrix of one image (cached)."""
        if image_id not in self._cache:
            record = self._database.record(image_id)
            rgb = record.image.rgb
            if rgb is None:
                raise DatabaseError(
                    f"image {image_id!r} has no stored RGB data; the colour "
                    "baseline needs colour images"
                )
            self._cache[image_id] = single_blob_with_neighbors(rgb, self._grid)
        return self._cache[image_id]

    def category_of(self, image_id: str) -> str:
        """Ground-truth category (delegates to the database)."""
        return self._database.category_of(image_id)

    def packed(self, ids=None) -> PackedCorpus:
        """Columnar SBN corpus view (cached over the whole database).

        Built once from every image's SBN bag — the same packed layout the
        region-bag path uses, so both learner families share the ranking
        kernel.  ``ids`` selects a sub-corpus in the given order; a subset
        request before the cache exists packs only the requested images
        (mixed colour/gray databases stay rankable by colour subset).
        The cache is keyed on the database's mutation counter, so adding
        images is picked up on the next call.

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

    def retrieval_candidates(self, ids) -> list[RetrievalCandidate]:
        """Per-image view for the ``rank_by_loop`` oracle (zero-copy)."""
        return [
            RetrievalCandidate(
                image_id=image_id,
                category=self.category_of(image_id),
                instances=self.instances_for(image_id),
            )
            for image_id in ids
        ]

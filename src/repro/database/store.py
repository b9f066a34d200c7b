"""The in-memory image database.

:class:`ImageDatabase` stores :class:`~repro.database.records.ImageRecord`
objects, assigns ids, answers category queries and exposes the corpus views
the learning stack consumes:

* ``instances_for(image_id)`` — the image's bag instance matrix,
* ``category_of(image_id)`` — ground-truth label,
* ``packed(ids)`` — the canonical columnar
  :class:`~repro.core.retrieval.PackedCorpus` view (built once, cached,
  invalidated by mutation or reconfiguration),
* ``retrieval_candidates(ids)`` — per-image view (zero-copy over the
  record caches) feeding the :func:`~repro.core.retrieval.rank_by_loop`
  reference ranking.

The database owns one :class:`~repro.bags.generation.BagGenerator`; changing
the feature configuration (:meth:`ImageDatabase.reconfigure`) invalidates all
cached features.  :meth:`precompute_features` is the bulk pre-processing pass
of Section 3.5 ("every image in our database is preprocessed as follows...").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.bags.bag import Bag
from repro.bags.generation import BagGenerator
from repro.core.retrieval import CorpusPacker, PackedCorpus, RetrievalCandidate
from repro.database.records import ImageRecord
from repro.errors import DatabaseError
from repro.imaging.features import FeatureConfig
from repro.imaging.image import GrayImage


class ImageDatabase:
    """An in-memory content-addressed image store.

    Args:
        feature_config: the feature pipeline configuration all queries use;
            defaults to the paper's (h=10, 20 regions, mirrors on).
        name: optional database name, used in snapshots and reports.
    """

    def __init__(self, feature_config: FeatureConfig | None = None, name: str = ""):
        self._generator = BagGenerator(feature_config)
        self._records: dict[str, ImageRecord] = {}
        self._by_category: dict[str, list[str]] = {}
        self._name = name
        self._counter = 0
        self._version = 0
        self._packer = CorpusPacker()

    # ------------------------------------------------------------------ #
    # Mutation                                                            #
    # ------------------------------------------------------------------ #

    def add_image(
        self,
        pixels: np.ndarray | GrayImage,
        category: str,
        image_id: str | None = None,
    ) -> str:
        """Insert one image and return its id.

        Args:
            pixels: gray or RGB array, or an existing :class:`GrayImage`.
            category: ground-truth label (any non-empty string).
            image_id: explicit id; autogenerated (``img-000042``) if omitted.

        Raises:
            DatabaseError: on empty category or duplicate id.
        """
        if not category:
            raise DatabaseError("category must be a non-empty string")
        if image_id is None:
            image_id = f"img-{self._counter:06d}"
        if image_id in self._records:
            raise DatabaseError(f"duplicate image id {image_id!r}")
        if isinstance(pixels, GrayImage):
            image = GrayImage(
                pixels=pixels.pixels,
                image_id=image_id,
                category=category,
                _rgb=pixels.rgb,
            )
        else:
            image = GrayImage.from_array(pixels, image_id=image_id, category=category)
        self._records[image_id] = ImageRecord(image_id=image_id, image=image, category=category)
        self._by_category.setdefault(category, []).append(image_id)
        self._counter += 1
        self._version += 1
        return image_id

    def add_images(
        self, items: Iterable[tuple[np.ndarray, str]], id_prefix: str = ""
    ) -> list[str]:
        """Insert many ``(pixels, category)`` pairs; returns the new ids."""
        ids = []
        for index, (pixels, category) in enumerate(items):
            image_id = f"{id_prefix}{index:06d}" if id_prefix else None
            ids.append(self.add_image(pixels, category, image_id))
        return ids

    def reconfigure(self, feature_config: FeatureConfig) -> None:
        """Swap the feature configuration, dropping all cached features."""
        self._generator = BagGenerator(feature_config)
        self._version += 1
        for record in self._records.values():
            record.invalidate_features()

    def precompute_features(self) -> int:
        """Eagerly extract features for every image; returns the image count.

        Useful before timing experiments so extraction cost is not charged
        to the first query.
        """
        for record in self._records.values():
            record.features(self._generator)
        return len(self._records)

    # ------------------------------------------------------------------ #
    # Lookup                                                              #
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Database name."""
        return self._name

    @property
    def feature_config(self) -> FeatureConfig:
        """The active feature configuration."""
        return self._generator.config

    @property
    def generator(self) -> BagGenerator:
        """The bag generator shared by all queries."""
        return self._generator

    @property
    def version(self) -> int:
        """Mutation counter: bumped by :meth:`add_image` and
        :meth:`reconfigure`.  Corpus adapters key their packed-view caches
        on it so a mutated database is never served from a stale view."""
        return self._version

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._records

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self._records.values())

    def record(self, image_id: str) -> ImageRecord:
        """Fetch one record.

        Raises:
            DatabaseError: for an unknown id.
        """
        try:
            return self._records[image_id]
        except KeyError:
            raise DatabaseError(f"unknown image id {image_id!r}") from None

    @property
    def image_ids(self) -> tuple[str, ...]:
        """All ids in insertion order."""
        return tuple(self._records)

    def categories(self) -> tuple[str, ...]:
        """All categories, sorted."""
        return tuple(sorted(self._by_category))

    def ids_in_category(self, category: str) -> tuple[str, ...]:
        """Ids of one category, in insertion order.

        Raises:
            DatabaseError: for an unknown category.
        """
        try:
            return tuple(self._by_category[category])
        except KeyError:
            raise DatabaseError(f"unknown category {category!r}") from None

    def category_sizes(self) -> dict[str, int]:
        """Mapping of category to image count."""
        return {category: len(ids) for category, ids in self._by_category.items()}

    # ------------------------------------------------------------------ #
    # Corpus views (consumed by repro.core)                               #
    # ------------------------------------------------------------------ #

    def instances_for(self, image_id: str) -> np.ndarray:
        """Instance matrix of one image (features computed on demand)."""
        return self.record(image_id).instances(self._generator)

    def category_of(self, image_id: str) -> str:
        """Ground-truth category of one image."""
        return self.record(image_id).category

    def bag_for(self, image_id: str, label: bool) -> Bag:
        """A labelled bag for one image (used to assemble training sets)."""
        return Bag(instances=self.instances_for(image_id), label=label, bag_id=image_id)

    def packed(self, ids: Sequence[str] | None = None) -> PackedCorpus:
        """The canonical columnar corpus view for the ranking kernels.

        The full-database packed view is built once (featurising every
        image) and cached; mutation (:meth:`add_image`) or
        :meth:`reconfigure` invalidates it.  Once cached, subsets are
        gathered from it, so repeated subset ranking stays cheap.  A subset
        request before the cache exists packs only the requested images —
        it never featurises images outside the subset.

        Args:
            ids: which images to include, in order; all images (insertion
                order) when omitted.

        Raises:
            DatabaseError: for an unknown id.
        """
        return self._packer.packed(
            ids,
            all_ids=self.image_ids,
            category_of=self.category_of,
            instances_for=self.instances_for,
            version=self._version,
        )

    @property
    def cached_packed(self) -> PackedCorpus | None:
        """The cached full packed view, or ``None`` when absent or stale.

        Never triggers a build — persistence uses this to decide whether a
        snapshot can carry the packed corpus along.
        """
        return self._packer.cached(self._version)

    def adopt_packed(self, packed: PackedCorpus) -> None:
        """Install a packed view restored from a snapshot as the cache.

        The view must cover exactly this database's images, though not
        necessarily in insertion order — a view re-packed in clustered-
        centroid order
        (:meth:`~repro.core.retrieval.PackedCorpus.reordered_by_centroid`)
        adopts fine, because the view carries its own id/category columns
        and subset selections gather by id.  A view covering a different
        id *set* would silently serve wrong rankings and is rejected.

        Raises:
            DatabaseError: if the packed ids do not cover the database.
        """
        if set(packed.image_ids) != set(self.image_ids):
            raise DatabaseError(
                "adopted packed corpus does not cover the database's images "
                f"({packed.n_bags} packed vs {len(self)} stored)"
            )
        self._packer.adopt(packed, self._version)

    def retrieval_candidates(
        self, ids: Sequence[str] | None = None
    ) -> list[RetrievalCandidate]:
        """Per-image view (zero-copy over the record caches).

        Duplicate ids are allowed and no whole-database packing is
        forced.  It feeds the :func:`~repro.core.retrieval.rank_by_loop`
        reference ranking; the ranking kernels consume :meth:`packed`.

        Args:
            ids: which images to include; all images when omitted.
        """
        chosen = self.image_ids if ids is None else tuple(ids)
        return [
            RetrievalCandidate(
                image_id=image_id,
                category=self.category_of(image_id),
                instances=self.instances_for(image_id),
            )
            for image_id in chosen
        ]

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"ImageDatabase({len(self)} images{label}, "
            f"{len(self._by_category)} categories)"
        )

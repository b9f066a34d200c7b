"""Zero-copy shared-memory corpora for multi-process serving.

A :class:`~repro.core.retrieval.PackedCorpus` is a handful of flat arrays
— the stacked ``(N, d)`` instance matrix, bag offsets, parallel id and
category arrays, optionally the squared-instance cache and the PR 5
:class:`~repro.core.sharding.ShardIndex` envelopes.  That layout is
exactly what ``multiprocessing.shared_memory`` wants: :class:`
SharedPackedCorpus.create` lays every array into **one** shared segment
(64-byte aligned, described by a JSON-safe :meth:`spec`), and
:meth:`SharedPackedCorpus.attach` in a worker process rebuilds a fully
functional ``PackedCorpus`` whose arrays are *views* into that segment —
N workers rank against one corpus mapping with zero per-worker copies of
the instance matrix, the squares cache or the index envelopes.

The spec travels to workers over the spawn pickle (or any transport — it
is a plain dict of names, dtypes, shapes and offsets).  The creator owns
the segment: :meth:`unlink` releases it once, attachments only
:meth:`close`.  Attaching unregisters the segment from the per-process
``resource_tracker`` so a worker exiting can never tear the mapping down
under its siblings (CPython's tracker would otherwise unlink segments it
merely attached to).

What is *not* shared: the per-bag python-string tuples and the id →
position dict every ``PackedCorpus`` carries.  Those are O(n_bags)
per-process metadata, dwarfed by the O(n_instances × d) matrices this
module exists to deduplicate.
"""

from __future__ import annotations

import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

from repro.core.retrieval import PackedCorpus
from repro.core.sharding import DEFAULT_GROUP_BAGS, ShardIndex
from repro.errors import ServeError

#: Spec-format version; :meth:`SharedPackedCorpus.attach` rejects others.
SPEC_VERSION = 1
#: Array start alignment inside the segment (cache-line friendly).
_ALIGN = 64


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    CPython registers every ``SharedMemory`` with the resource tracker,
    which *unlinks* whatever is still registered when its owner exits —
    correct for the creator, destructive for attachments: spawned workers
    share the parent's tracker process and its registry is a plain set, so
    a worker registering and later unregistering the segment would erase
    the owner's registration (or, worse, a dying worker would pull the
    corpus out from under its siblings).  Python 3.13+ exposes
    ``track=False``; on older interpreters the registration call is
    suppressed for the duration of the attach (single-threaded worker
    startup, so the swap cannot race another allocation).
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class SharedPackedCorpus:
    """One shared-memory segment holding a packed corpus (plus its index).

    Build with :meth:`create` (parent / segment owner) or :meth:`attach`
    (worker); call :meth:`corpus` for the zero-copy ``PackedCorpus`` view.

    Context-manager support closes the local mapping on exit; the owner
    must additionally :meth:`unlink` (or rely on the garbage-collection
    finalizer) to release the segment system-wide.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: dict,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._corpus: PackedCorpus | None = None
        self._closed = False
        # The owner's segment must not outlive the interpreter even when
        # stop() is never reached (a test that errors out, a killed CLI).
        self._finalizer = (
            weakref.finalize(self, _release, shm) if owner else None
        )

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        packed: PackedCorpus,
        *,
        index: ShardIndex | None = None,
        share_squares: bool = True,
        name: str | None = None,
    ) -> "SharedPackedCorpus":
        """Copy a packed corpus into a fresh shared segment (the one copy).

        Args:
            packed: the corpus to share.
            index: a shard index to share alongside (defaults to the
                corpus's cached one; pass one explicitly to share an index
                built out of band).
            share_squares: also share the squared-instance kernel cache —
                doubles the segment but stops every worker from building
                its own private ``(N, d)`` squares array on first query.
            name: explicit segment name (``None`` lets the OS pick).

        Raises:
            ServeError: when the segment cannot be allocated.
        """
        if index is None:
            index = packed.cached_shard_index
        plan: list[tuple[str, np.ndarray]] = [
            ("instances", packed.instances),
            ("offsets", packed.offsets),
            ("image_ids", packed.id_array),
            ("categories", packed.category_array),
        ]
        if share_squares and packed.n_instances:
            # Filled below via np.multiply straight into the segment; the
            # plan only needs the shape/dtype.
            plan.append(("squared", packed.instances))
        if index is not None:
            plan.append(("index_lower", index.lower))
            plan.append(("index_upper", index.upper))
            plan.append(("index_boundaries", index.boundaries))
            # The derived arrays too (group envelopes + extent): spec
            # evolution is add-only, so old attachers simply ignore them,
            # while new ones skip the per-worker O(n_bags x d) rederive.
            plan.append(("index_group_lower", index.group_lower))
            plan.append(("index_group_upper", index.group_upper))
            plan.append(("index_extent", index.extent))

        arrays: dict[str, dict] = {}
        cursor = 0
        for key, array in plan:
            array = np.ascontiguousarray(array)
            arrays[key] = {
                "shape": [int(n) for n in array.shape],
                "dtype": array.dtype.str,
                "offset": cursor,
            }
            cursor = _aligned(cursor + max(array.nbytes, 1))
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(cursor, 1)
            )
        except OSError as exc:
            raise ServeError(
                f"cannot allocate a {cursor}-byte shared-memory segment "
                f"for the corpus: {exc}"
            ) from exc
        spec = {
            "version": SPEC_VERSION,
            "segment": shm.name,
            "nbytes": int(shm.size),
            "arrays": arrays,
            "index": None if index is None else {
                "group_size": int(index.group_size),
            },
        }
        shared = cls(shm, spec, owner=True)
        for key, array in plan:
            view = shared._view(key)
            if key == "squared":
                np.multiply(view_of := shared._view("instances"),
                            view_of, out=view)
            else:
                np.copyto(view, np.ascontiguousarray(array))
        return shared

    @classmethod
    def attach(cls, spec: Mapping) -> "SharedPackedCorpus":
        """Open an existing segment described by a :meth:`spec` dict.

        Raises:
            ServeError: unknown spec version, missing segment, or a spec
                whose arrays do not fit the segment (a corrupted handoff
                must fail loudly, not serve garbage views).
        """
        spec = dict(spec)
        if spec.get("version") != SPEC_VERSION:
            raise ServeError(
                f"shared corpus spec has version {spec.get('version')!r}, "
                f"expected {SPEC_VERSION}"
            )
        try:
            shm = _attach_untracked(str(spec["segment"]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ServeError(
                f"cannot attach shared corpus segment "
                f"{spec.get('segment')!r}: {exc}"
            ) from exc
        shared = cls(shm, spec, owner=False)
        try:
            for key in spec.get("arrays", {}):
                shared._view(key)  # validates offsets/sizes up front
        except ServeError:
            shared.close()
            raise
        return shared

    # ------------------------------------------------------------------ #
    # Views                                                               #
    # ------------------------------------------------------------------ #

    def _view(self, key: str) -> np.ndarray:
        """A zero-copy ndarray over one array of the segment."""
        try:
            info = self._spec["arrays"][key]
            shape = tuple(int(n) for n in info["shape"])
            dtype = np.dtype(str(info["dtype"]))
            offset = int(info["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(
                f"shared corpus spec has no usable array {key!r}: {exc}"
            ) from exc
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if offset < 0 or offset + nbytes > self._shm.size:
            raise ServeError(
                f"shared corpus array {key!r} ({nbytes} bytes at offset "
                f"{offset}) falls outside the {self._shm.size}-byte segment"
            )
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                          offset=offset)

    @property
    def spec(self) -> dict:
        """The JSON-safe descriptor workers attach with."""
        return self._spec

    @property
    def segment_name(self) -> str:
        """The OS-level shared-memory segment name."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total segment size in bytes."""
        return int(self._shm.size)

    def corpus(self) -> PackedCorpus:
        """The zero-copy :class:`PackedCorpus` over the segment (cached).

        The heavy arrays — instances, offsets, the id/category arrays, the
        squared cache and the index envelopes — are views into shared
        memory; only the per-bag python tuples and the position dict are
        process-local.
        """
        if self._corpus is not None:
            return self._corpus
        if self._closed:
            raise ServeError("shared corpus is closed")
        instances = self._view("instances")
        offsets = self._view("offsets")
        id_array = self._view("image_ids")
        category_array = self._view("categories")
        packed = PackedCorpus(
            instances=instances,
            offsets=offsets,
            image_ids=tuple(id_array.tolist()),
            categories=tuple(category_array.tolist()),
        )
        # The constructor rebuilt private copies of the id/category arrays
        # and would lazily build a private squares cache; swap in the
        # shared views (same values, one physical copy across workers).
        object.__setattr__(packed, "_id_array", id_array)
        object.__setattr__(packed, "_category_array", category_array)
        if "squared" in self._spec.get("arrays", {}):
            object.__setattr__(packed, "_squared", self._view("squared"))
        index_info = self._spec.get("index")
        if index_info is not None:
            derived_keys = (
                "index_group_lower", "index_group_upper", "index_extent"
            )
            present = self._spec.get("arrays", {})
            derived = (
                tuple(self._view(key) for key in derived_keys)
                if all(key in present for key in derived_keys)
                # Spec written before the derived arrays shipped: the
                # constructor rederives them locally (same values).
                else None
            )
            packed.adopt_shard_index(
                ShardIndex(
                    packed,
                    lower=self._view("index_lower"),
                    upper=self._view("index_upper"),
                    boundaries=self._view("index_boundaries"),
                    group_size=int(
                        index_info.get("group_size", DEFAULT_GROUP_BAGS)
                    ),
                    _derived=derived,
                )
            )
        self._corpus = packed
        return packed

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        # Live numpy views pin the exported buffer; release our reference
        # to them first so close() can succeed.
        self._corpus = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller still holds views
            pass

    def unlink(self) -> None:
        """Release the segment system-wide (owner only, idempotent)."""
        if not self._owner:
            raise ServeError(
                "only the creating process may unlink a shared corpus"
            )
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedPackedCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:
        kind = "owner" if self._owner else "attachment"
        return (
            f"SharedPackedCorpus({self.segment_name!r}, {self.nbytes} bytes, "
            f"{kind})"
        )


def _release(shm: shared_memory.SharedMemory) -> None:
    """Finalizer body: best-effort close + unlink of an owned segment."""
    try:  # pragma: no cover - interpreter-exit path
        shm.close()
        shm.unlink()
    except Exception:  # noqa: BLE001
        pass

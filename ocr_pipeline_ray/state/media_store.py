"""Media payload resolution for media spans.

Two scale regimes:

* **BroadcastMediaStore** — the small-side-lookup pattern: the media
  table is ``ray.put`` ONCE on the driver and each actor ``ray.get``\\ s
  the shared object in ``__init__`` (zero-copy from the local object
  store on each node; never re-shipped per batch). Right when media
  fits in object-store memory (tests, dimension-table-sized media).

* **Bucketed join** — at 100 TB media does NOT fit: span rows and
  media rows are hash-partitioned on ``media_ref`` and joined
  per-bucket (see
  :func:`ocr_pipeline_ray.pipelines.extract.join_media_spans`), then
  extraction runs on the joined rows with the payload inline.
  ``build_extraction_pipeline(media_mode="join")`` wires this.

Both regimes require ``media_ref`` to be unique in the media table
(:func:`check_unique_refs`): a lookup over a duplicated ref would
silently keep one of its payloads.

The reference's analog is each service holding its model/files in
process memory, loaded once at import (reference std-detection/api.py:40-60).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def check_unique_refs(media_refs) -> None:
    """Raise ``ValueError`` naming a ``media_ref`` that occurs twice."""
    counts = pc.value_counts(media_refs)
    dup = counts.filter(pc.greater(counts.field("counts"), 1))
    if len(dup):
        raise ValueError(
            f"duplicate media_ref {dup.field('values')[0].as_py()!r} in the media "
            "table: each ref must name exactly one payload"
        )


def broadcast_media(media: pa.Table) -> "ray.ObjectRef":
    """Put the media table into the object store once (driver-side).
    This is where broadcast payloads enter, so the table is checked
    here: it must be a ``pa.Table`` with unique ``media_ref``."""
    if not isinstance(media, pa.Table):
        raise ValueError(
            f"broadcast media must be a pyarrow.Table, not {type(media).__name__} "
            '(a media Dataset needs media_mode="join")'
        )
    check_unique_refs(media.column("media_ref"))
    return ray.put(media)


class BroadcastMediaStore:
    """Actor-side view over a broadcast media table.

    Lookup is binary search over the ref column (the broadcaster sorts
    it once); payload bytes are materialized lazily per hit. Building
    eager dicts here would copy every payload into every actor — an
    O(media x pool_size) anti-scaling init cost and a heap copy of the
    whole media table per worker; the sorted-search view keeps actor
    init ~free and the payload column shared in the object store.
    """

    def __init__(self, media_object_ref: "ray.ObjectRef"):
        table: pa.Table = ray.get(media_object_ref)  # zero-copy, node-local
        self._table = table
        self._refs = np.asarray(table["media_ref"].to_pandas(), dtype=object)
        if len(self._refs) > 1 and not bool((self._refs[:-1] <= self._refs[1:]).all()):
            order = np.argsort(self._refs)
            self._table = table.take(order)
            self._refs = self._refs[order]
        self._payload_col = self._table["payload"].combine_chunks()

    def _index(self, media_ref: str) -> int:
        i = int(np.searchsorted(self._refs, media_ref))
        if i < len(self._refs) and self._refs[i] == media_ref:
            return i
        return -1

    def get(self, media_ref: str) -> bytes | None:
        i = self._index(media_ref)
        return self._payload_col[i].as_py() if i >= 0 else None

    def payloads(self, media_refs) -> pa.Array:
        """The payload of every ref in ``media_refs``, null where the
        store has none: one ``searchsorted`` over the sorted refs and an
        equality check, vectorized over the batch."""
        refs = pc.fill_null(media_refs, "").to_numpy(zero_copy_only=False)
        if not len(self._refs):
            return pa.nulls(len(refs), self._payload_col.type)
        idx = np.minimum(np.searchsorted(self._refs, refs), len(self._refs) - 1)
        return self._payload_col.take(pa.array(idx, mask=self._refs[idx] != refs))

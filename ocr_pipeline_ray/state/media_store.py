"""Media payload resolution for media spans.

Two scale regimes:

* **BroadcastMediaStore** — the small-side-lookup pattern: the media
  table is ``ray.put`` ONCE on the driver, and each worker process that
  runs an extract task ``ray.get``\\ s it once into its warm cache. The
  payload buffers stay where ``ray.get`` put them (the node's shared
  object store): the store keeps a sorted ref index and hands the
  engine read-only views of those buffers, so a node holds one copy of
  the payloads, however many worker processes read them. Right when
  media fits in object-store memory (tests, dimension-table-sized
  media).

* **Bucketed join** — at 100 TB media does NOT fit: span rows and
  media rows are hash-partitioned on ``media_ref`` and joined
  per-bucket (see
  :func:`ocr_pipeline_ray.pipelines.extract.join_media_spans`), then
  extraction runs on the joined rows with the payload inline, read
  through the same views (:func:`payload_views`).
  ``build_extraction_pipeline(media_mode="join")`` wires this.

Both regimes require ``media_ref`` to be non-null and unique in the
media table (:func:`check_unique_refs`): a lookup over a duplicated ref
would silently keep one of its payloads, and a null ref would never
match.

The reference's analog is each service holding its model/files in
process memory, loaded once at import (reference std-detection/api.py:40-60).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray


def check_unique_refs(media_refs) -> None:
    """Raise ``ValueError`` on a null ``media_ref``, or naming one that
    occurs twice."""
    if media_refs.null_count:
        raise ValueError(
            f"null media_ref in {media_refs.null_count} row(s) of the media table: "
            "each payload must be named by a ref"
        )
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
    here: it must be a ``pa.Table`` with unique ``media_ref``. It is
    put as given, unsorted: sorting it here would copy every payload
    on the driver, and the store sorts its ref index instead."""
    if not isinstance(media, pa.Table):
        raise ValueError(
            f"broadcast media must be a pyarrow.Table, not {type(media).__name__} "
            '(a media Dataset needs media_mode="join")'
        )
    check_unique_refs(media.column("media_ref"))
    return ray.put(media)


def _payload_slices(column) -> tuple[list[memoryview], np.ndarray, np.ndarray, np.ndarray]:
    """Where each value of a ``binary`` or ``large_binary`` column lies
    in its chunks' data buffers, read from their offsets buffers:
    ``(buffers, chunk, start, end)`` — one read-only byte view per
    chunk, and per row the index of its chunk's view (``-1`` for a
    null) and its ``[start, end)`` there. Honours each chunk's slice
    offset and validity bitmap; copies no value."""
    chunks = column.chunks if isinstance(column, pa.ChunkedArray) else [column]
    bufs = []
    chunk, start, end = [np.empty(0, np.int32)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for k, c in enumerate(chunks):
        if pa.types.is_binary(c.type):
            width = np.int32
        elif pa.types.is_large_binary(c.type):
            width = np.int64
        else:
            raise TypeError(f"payload column must be binary or large_binary, not {c.type}")
        validity, offsets, data = c.buffers()
        bufs.append(memoryview(data if data is not None else b"").cast("B").toreadonly())
        n = len(c)
        if n == 0:
            continue
        off = np.frombuffer(offsets, width)[c.offset : c.offset + n + 1].astype(np.int64)
        ids = np.full(n, k, np.int32)
        if c.null_count:
            bits = np.unpackbits(np.frombuffer(validity, np.uint8), bitorder="little")
            ids[bits[c.offset : c.offset + n] == 0] = -1
        chunk.append(ids)
        start.append(off[:-1])
        end.append(off[1:])
    return bufs, np.concatenate(chunk), np.concatenate(start), np.concatenate(end)


def _slice_views(bufs, chunk, start, end) -> list[memoryview | None]:
    """The read-only view of each row that :func:`_payload_slices`
    located; ``None`` where ``chunk`` is ``-1``."""
    return [
        bufs[c][s:e] if c >= 0 else None
        for c, s, e in zip(chunk.tolist(), start.tolist(), end.tolist())
    ]


def payload_views(column) -> list[memoryview | None]:
    """Every value of a ``binary``/``large_binary`` column as a
    read-only ``memoryview`` of its buffer (``None`` for a null): the
    column's values without a copy."""
    return _slice_views(*_payload_slices(column))


class BroadcastMediaStore:
    """Per-process view over a broadcast media table.

    Keeps the table exactly as ``ray.get`` returned it — chunked,
    unsorted, its payloads in the object store — and builds only a
    lookup index: the refs (sorted here when the table is not) and,
    in the same order, where each payload lies in the payload buffers
    (:func:`_payload_slices`). A lookup is one ``searchsorted`` over the
    refs and returns views of the object-store buffers, so building
    the store and looking payloads up copy no payload.
    """

    def __init__(self, media_object_ref: "ray.ObjectRef"):
        self._table: pa.Table = ray.get(media_object_ref)
        refs = np.asarray(self._table["media_ref"].to_pandas(), dtype=object)
        self._bufs, chunk, start, end = _payload_slices(self._table["payload"])
        if len(refs) > 1 and not bool((refs[:-1] <= refs[1:]).all()):
            order = np.argsort(refs)
            refs, chunk, start, end = refs[order], chunk[order], start[order], end[order]
        self._refs, self._chunk, self._start, self._end = refs, chunk, start, end

    def get(self, media_ref: str) -> bytes | None:
        """One ref's payload as ``bytes`` (``None``: not in the store)."""
        i = int(np.searchsorted(self._refs, media_ref))
        if i == len(self._refs) or self._refs[i] != media_ref or self._chunk[i] < 0:
            return None
        return bytes(self._bufs[self._chunk[i]][self._start[i] : self._end[i]])

    def payloads(self, media_refs) -> list[memoryview | None]:
        """The payload of every ref in ``media_refs`` as a read-only
        view of the object-store buffer, ``None`` where the store has
        none: one ``searchsorted`` over the sorted refs and an equality
        check, vectorized over the batch."""
        refs = pc.fill_null(media_refs, "").to_numpy(zero_copy_only=False)
        if not len(self._refs):
            return [None] * len(refs)
        idx = np.minimum(np.searchsorted(self._refs, refs), len(self._refs) - 1)
        chunk = np.where(self._refs[idx] == refs, self._chunk[idx], -1)
        return _slice_views(self._bufs, chunk, self._start[idx], self._end[idx])

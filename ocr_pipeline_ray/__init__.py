"""ocr_pipeline_ray — a Ray-Data-native main-content extraction engine.

A brand-new engine (NOT a port) with the query and data-processing
capabilities of the reference ``watanka/ocr-pipeline``: per-document
ordered span extraction (HTML boilerplate strip for text spans, warm
OCR / PDF-layout engines for media spans), re-expressed as a streaming
``ray.data.Dataset`` pipeline over Arrow batches, plus the relational /
dedup / similarity / text-analysis operators a large-scale
training-data pipeline needs.

Reference semantics preserved (see SURVEY.md):
  * per document, an ordered list of extracted spans
    ``(kind, text, media_ref, offset)`` — the reference's ordered
    ``(bbox, text)`` result lines (reference pipeline/file_utils.py:48-51)
    generalized to interleaved text+media documents.
  * every input span appears in the output; failures carry an in-band
    error channel (reference str-recognition/api.py:216-224).
  * stateful engines are loaded once per worker (reference
    std-detection/api.py:40-60) — here: a per-process warm cache behind
    stateless ``map_batches`` tasks.

Nothing here calls ``ray.init()`` — sessions are owned by the caller:
``bench.py``, ``perfbench/run.py``, ``tools/run_extraction_job.py``,
whoever calls ``__ray_entry__.py`` and the pytest fixture.
"""

__version__ = "0.1.0"

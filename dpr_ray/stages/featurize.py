"""Featurize: corpus rows → docstore rows (SURVEY §7 M0).

Adds per row: ``ext_id = repo + "/" + path`` (the DPR id-prefix analog,
reference ``dpr/data/retriever_data.py:280-283``), ``title`` (DPR passages
carry a title; for code, title := ext_id), ``sha256(content)`` (the
north-rule per-row invariant), ``doclen`` (token count under the analyzer)
and a deterministic ``docid`` if the corpus does not already carry one.

docid strategies:
- "provided": the corpus already has a ``docid`` column (e.g. derived from
  the documents table) — kept as-is.
- "hash64": low 63 bits of sha256(ext_id). Deterministic, shuffle-free and
  independent of block boundaries / resume points (SURVEY §7 hard part (e)).
  Collision probability is ~n²/2^64; fine through ~10^8 docs. At 10^12-doc
  scale assign ids per ingest shard instead: docid = (shard_ordinal << 40) |
  row_in_shard, a pure function of the sorted input file list (driver-side
  parquet-footer prefix sums), still shuffle-free.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import analyzer

DOCSTORE_COLUMNS = [
    "docid", "ext_id", "repo", "path", "commit", "lang",
    "title", "doclen", "sha256", "content",
]


def docid_from_ext_id(ext_id: str) -> int:
    return int.from_bytes(hashlib.sha256(ext_id.encode()).digest()[:8], "big") >> 1


class FeaturizeRows:
    """map_batches callable: the row work of :class:`Featurize`, every
    docstore column except ``doclen``. ``build_index`` counts tokens where
    it tokenizes each document anyway (``DocstoreWriter``) and inserts
    ``doclen`` there with :func:`with_doclen`."""

    def __init__(self, docid_strategy: str = "hash64", num_dbuckets: int = 16):
        self.docid_strategy = docid_strategy
        self.num_dbuckets = num_dbuckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        check = ["repo", "path", "content"]
        if "docid" in batch.column_names and self.docid_strategy == "provided":
            check.append("docid")
        null_cols = {
            name: pc.sum(pc.cast(pc.is_null(batch[name]), pa.int64())).as_py()
            for name in check
        }
        if any(null_cols.values()):
            raise ValueError(
                "corpus batch has null values in "
                f"{sorted(k for k, v in null_cols.items() if v)} "
                f"(null counts {null_cols}): every row needs repo/path (they "
                "form ext_id) and content (the per-row sha256-equality "
                "invariant has no value for a null document), and a provided "
                "docid column must be non-null — filter or repair the corpus "
                "upstream"
            )
        ext_id = pc.binary_join_element_wise(batch["repo"], batch["path"], "/")
        content = batch["content"]
        sha = [hashlib.sha256(t.encode()).hexdigest()
               for t in content.to_pylist()]
        if "docid" in batch.column_names and self.docid_strategy == "provided":
            docid = pc.cast(batch["docid"], pa.uint64())
        else:
            ids = ext_id.to_pylist()
            docid = pa.array(
                np.fromiter(
                    (docid_from_ext_id(e) for e in ids), dtype=np.uint64, count=len(ids)
                ),
                pa.uint64(),
            )
        dbucket = pa.array(
            (docid.to_numpy(zero_copy_only=False) % self.num_dbuckets).astype(np.int32),
            pa.int32(),
        )
        return pa.table(
            {
                "docid": docid,
                "ext_id": ext_id,
                "repo": batch["repo"],
                "path": batch["path"],
                "commit": batch["commit"],
                "lang": batch["lang"],
                "title": ext_id,
                "sha256": pa.array(sha, pa.string()),
                "content": pc.cast(content, pa.large_string()),
                "dbucket": dbucket,
            }
        )


def with_doclen(rows: pa.Table, doclen) -> pa.Table:
    """``rows`` (``FeaturizeRows`` output) with the ``doclen`` column in
    its docstore position, just before ``sha256``."""
    return rows.add_column(
        rows.schema.get_field_index("sha256"), "doclen",
        pa.array(doclen, pa.int64()),
    )


class Featurize(FeaturizeRows):
    """map_batches callable: corpus rows → docstore rows, ``doclen``
    counted by ``analyzer.doc_lengths``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return with_doclen(
            super().__call__(batch),
            analyzer.doc_lengths(batch["content"].to_pylist()),
        )

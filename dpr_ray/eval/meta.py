"""Compressed-meta results path (reference ``save_results_from_meta`` /
``check_answer_from_meta``, ``dense_retriever.py:383-421``,
``qa_validation.py:144-172``): the result rows CARRY their passage text as
zlib-compressed bytes so validation needs no doc-store join — the trade the
reference makes when the index stores metadata. Title is prepended to the
text before matching (``qa_validation.py:165-167``)."""

from __future__ import annotations

import zlib

import pyarrow as pa

from .qa import AttachHasAnswer, match_batch


def attach_meta(batch: pa.Table, text_col: str = "content",
                title_col: str = "title") -> pa.Table:
    """Add a zlib-compressed ``meta`` binary column carrying the text."""
    blobs = [
        zlib.compress(t.encode()) for t in batch[text_col].to_pylist()
    ]
    return batch.append_column("meta", pa.array(blobs, pa.large_binary()))


class AttachHasAnswerFromMeta(AttachHasAnswer):
    """Like AttachHasAnswer but reads the carried compressed text and
    prepends the title (reference meta_compressed + title handling)."""

    def __init__(self, answers_ref, match: str = "string",
                 prepend_title: bool = True):
        super().__init__(answers_ref, match)
        self.prepend_title = prepend_title

    def __call__(self, batch: pa.Table) -> pa.Table:
        titles = (
            batch["title"].to_pylist()
            if self.prepend_title and "title" in batch.column_names
            else [None] * batch.num_rows
        )
        # explicit modes (KeyError on any other): the old fallback silently
        # compiled match='kilt' (or any typo) as regex patterns
        if self.match not in ("string", "regex"):
            raise KeyError(self.match)
        codes, distinct = [], {}
        for blob, title in zip(batch["meta"].to_pylist(), titles):
            text = zlib.decompress(blob).decode()
            if title:
                # the reference's ' . ' separator (qa_validation.py:167)
                # is load-bearing for string mode: a plain space lets an
                # answer span the title/text boundary as a contiguous
                # token subsequence the reference would reject
                text = f"{title} . {text}"
            codes.append(distinct.setdefault(text, len(distinct)))
        qids = batch["qid"].to_pylist()
        flags = match_batch(self.match, self.answers, qids, codes, list(distinct))
        return batch.append_column("has_answer", flags)

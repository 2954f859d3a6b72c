"""Reference copies of the segment rewrite paths that predate
``segments.decode_blocks`` / ``encode_bucket``, kept as the independent
oracles of the codec equivalence tests:

- ``ref_merge_bucket`` — build's per-(tbucket, salt) group rewrite with
  its ``_bulk_decode_group`` decode (the slice overflow assert left out:
  the cases here stay inside 64 slices a salt);
- ``ref_remerge_bucket`` — merge's per-tbucket group rewrite, upsert
  keep-mask included.

``check_decode_blocks`` compares ``decode_blocks`` with the row-dict
reader ``segments.decode_rows`` term by term over a whole index.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from dpr_ray.index import segments as seg
from dpr_ray.index.merge import _keep_mask


def ref_bulk_decode_group(group: pa.Table):
    terms_col = group["term"].to_pylist()
    uniq_terms = sorted(set(terms_col))
    t_to_i = {t: i for i, t in enumerate(uniq_terms)}
    d_blobs, tf_blobs, dl_blobs, row_tidx = [], [], [], []
    for i in range(group.num_rows):
        for b_d, b_t, b_l in zip(
            group["block_docids"][i].as_py(),
            group["block_tfs"][i].as_py(),
            group["block_dls"][i].as_py(),
        ):
            d_blobs.append(b_d)
            tf_blobs.append(b_t)
            dl_blobs.append(b_l)
            row_tidx.append(t_to_i[terms_col[i]])
    if not d_blobs:
        z = np.empty(0, np.uint64)
        return z, z, z, np.empty(0, np.int64), uniq_terms
    docids, vals_per_blob = seg.concat_delta_decode(d_blobs)
    tfs, _ = seg.concat_varint_decode(tf_blobs)
    dls, _ = seg.concat_varint_decode(dl_blobs)
    tidx = np.repeat(np.asarray(row_tidx, dtype=np.int64), vals_per_blob)
    return docids, tfs, dls, tidx, uniq_terms


def _encode_sorted(d_all, tf_all, dl_all, tidx, terms_sorted, single_ok,
                   avgdl, params, num_tbuckets, block_size, max_pps,
                   slice_id_offset):
    order = np.lexsort((d_all, tidx))
    d_all, tf_all, dl_all, tidx = (
        d_all[order], tf_all[order], dl_all[order], tidx[order],
    )
    bounds = np.flatnonzero(np.diff(tidx)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(tidx)]])
    small_terms, s_off, s_idx, out_rows = [], [0], [], []
    for s, e in zip(starts, ends):
        term = terms_sorted[tidx[s]]
        n = e - s
        if n <= block_size and single_ok:
            small_terms.append(term)
            s_idx.append(np.arange(s, e))
            s_off.append(s_off[-1] + n)
        else:
            out_rows.extend(seg.encode_posting_list(
                term, d_all[s:e], tf_all[s:e], dl_all[s:e],
                avgdl, params, num_tbuckets, block_size, max_pps,
                slice_id_offset=slice_id_offset,
            ))
    parts = []
    if small_terms:
        sel = np.concatenate(s_idx)
        small_tbl, _ = seg.encode_single_block_lists(
            small_terms, np.asarray(s_off, dtype=np.int64),
            d_all[sel], tf_all[sel], dl_all[sel],
            avgdl, params, num_tbuckets,
        )
        parts.append(small_tbl)
    if out_rows:
        parts.append(seg.rows_to_table(out_rows))
    if not parts:
        return seg.rows_to_table([])
    return pa.concat_tables(parts)


def ref_merge_bucket(group, avgdl, params, num_tbuckets, block_size, max_pps):
    salt = int(group["salt"][0].as_py())
    d_all, tf_all, dl_all, tidx, terms_sorted = ref_bulk_decode_group(group)
    if len(d_all) == 0:
        return seg.rows_to_table([])
    return _encode_sorted(
        d_all, tf_all, dl_all, tidx, terms_sorted, salt == 0, avgdl, params,
        num_tbuckets, block_size, max_pps, salt * 64,
    )


def ref_remerge_bucket(group, shadow, avgdl, params, num_tbuckets,
                       block_size, max_pps):
    """``shadow`` is merge's (sorted docids, winning rank) arbitration
    map for upsert groups (which carry ``src_rank``), None for disjoint."""
    upsert = shadow is not None
    terms_col = group["term"].to_pylist()
    uniq_terms = sorted(set(terms_col))
    t_to_i = {t: i for i, t in enumerate(uniq_terms)}
    ranks_col = (
        group["src_rank"].to_numpy(zero_copy_only=False) if upsert else None
    )
    d_blobs, tf_blobs, dl_blobs, row_tidx, row_rank = [], [], [], [], []
    for i in range(group.num_rows):
        for b_d, b_t, b_l in zip(
            group["block_docids"][i].as_py(),
            group["block_tfs"][i].as_py(),
            group["block_dls"][i].as_py(),
        ):
            d_blobs.append(b_d)
            tf_blobs.append(b_t)
            dl_blobs.append(b_l)
            row_tidx.append(t_to_i[terms_col[i]])
            if upsert:
                row_rank.append(int(ranks_col[i]))
    if not d_blobs:
        return seg.rows_to_table([])
    docids, vals_per_blob = seg.concat_delta_decode(d_blobs)
    tfs, _ = seg.concat_varint_decode(tf_blobs)
    dls, _ = seg.concat_varint_decode(dl_blobs)
    tidx = np.repeat(np.asarray(row_tidx, dtype=np.int64), vals_per_blob)
    if upsert:
        rk = np.repeat(np.asarray(row_rank, dtype=np.int64), vals_per_blob)
        m = _keep_mask(docids, rk, *shadow)
        docids, tfs, dls, tidx = docids[m], tfs[m], dls[m], tidx[m]
        if len(docids) == 0:
            return seg.rows_to_table([])
    return _encode_sorted(
        docids, tfs, dls, tidx, uniq_terms, True, avgdl, params,
        num_tbuckets, block_size, max_pps, 0,
    )


def assert_tables_identical(got: pa.Table, want: pa.Table) -> None:
    """Same schema, same values, same Parquet bytes."""
    import pyarrow.parquet as pq

    assert got.schema == want.schema
    assert got.equals(want)
    bufs = []
    for t in (got, want):
        sink = pa.BufferOutputStream()
        pq.write_table(t, sink)
        bufs.append(sink.getvalue().to_pybytes())
    assert bufs[0] == bufs[1]


def segment_table(index_dir: str) -> pa.Table:
    """Every segment row of an index, sorted by (term, slice_id)."""
    return pads.dataset(
        os.path.join(index_dir, "segments"), partitioning="hive"
    ).to_table().sort_by([("term", "ascending"), ("slice_id", "ascending")])


def check_decode_blocks(index_dir: str, docid_range=None) -> int:
    """``decode_blocks`` over the whole index equals ``decode_rows`` of
    each term's rows, term by term; with ``docid_range=(lo, hi)`` only
    blocks intersecting [lo, hi) are decoded on both sides. Returns the
    number of postings compared."""
    tbl = segment_table(index_dir)
    mask = None
    rows = tbl.to_pylist()
    if docid_range is not None:
        lo, hi = docid_range
        keep = [
            [bl >= lo and bf < hi
             for bf, bl in zip(r["block_first"], r["block_last"])]
            for r in rows
        ]
        mask = np.array([k for ks in keep for k in ks], bool)
        rows = [
            {**r, **{c: [b for b, k in zip(r[c], ks) if k]
                     for c in ("block_docids", "block_tfs", "block_dls")}}
            for r, ks in zip(rows, keep)
        ]
    docids, tfs, dls, prow, vpb = seg.decode_blocks(tbl, mask)
    n_blocks = pc.list_value_length(tbl["block_docids"]).to_numpy()
    want_vpb = [
        len(seg.decode_rows([{**r, **{c: [r[c][j]] for c in (
            "block_docids", "block_tfs", "block_dls")}}])[0])
        for r in rows for j in range(len(r["block_docids"]))
    ]
    assert vpb.tolist() == want_vpb
    assert len(docids) == len(tfs) == len(dls) == len(prow) == sum(want_vpb)
    if mask is None:
        assert len(vpb) == int(n_blocks.sum())
    by_term: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        by_term.setdefault(r["term"], []).append(i)
    for term, idx in by_term.items():
        sel = np.isin(prow, idx)
        want = seg.decode_rows([rows[i] for i in idx])
        for got_a, want_a in zip((docids[sel], tfs[sel], dls[sel]), want):
            assert got_a.dtype == want_a.dtype, term
            np.testing.assert_array_equal(got_a, want_a, err_msg=term)
    return len(docids)

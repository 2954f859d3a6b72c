"""Per-partition (term-bucket) checkpointing: a build killed between
bucket merges resumes at the first unfinished bucket — no re-tokenize —
and converges to the clean-run segment bytes."""

import json
import os
import shutil

import pyarrow.dataset as pads

from dpr_ray import corpus as corpus_mod
from dpr_ray.index.build import build_index


def _segment_rows(index_dir):
    d = pads.dataset(os.path.join(index_dir, "segments"), partitioning="hive")
    return sorted(d.to_table().to_pylist(), key=lambda r: (r["term"], r["slice_id"]))


def _checkpoints(index_dir):
    with open(os.path.join(index_dir, "checkpoints.json")) as f:
        return json.load(f)


def _edit_checkpoints(index_dir, edit):
    """Hand-edit checkpoints.json on disk (simulating what a kill or an
    old writer left): ``edit`` mutates the parsed entries in place."""
    entries = _checkpoints(index_dir)
    edit(entries)
    with open(os.path.join(index_dir, "checkpoints.json"), "w") as f:
        json.dump(entries, f)


def _set_buckets(index_dir, buckets):
    _edit_checkpoints(
        index_dir, lambda e: e["segments"].update(buckets=buckets)
    )


def test_partition_resume_converges(ray_session, tmp_path):
    import ray.data

    tbl = corpus_mod.synth_corpus_table(70, seed=17)
    clean = str(tmp_path / "clean")
    killed = str(tmp_path / "killed")
    ds = lambda: ray.data.from_arrow(tbl).repartition(3)  # noqa: E731

    build_index(ds(), clean, docid_strategy="hash64", partition_resume=True,
                group_budget=25, sample_mod=1)
    assert os.path.exists(os.path.join(clean, "postings_spill"))
    assert _checkpoints(clean)["segments"]["buckets"] == list(range(16))

    # full build, then simulate a kill after bucket 5: wipe manifest, wipe
    # segment dirs > 5, truncate the checkpointed bucket list
    build_index(ds(), killed, docid_strategy="hash64", partition_resume=True,
                group_budget=25, sample_mod=1)
    os.remove(os.path.join(killed, "manifest.json"))
    seg_root = os.path.join(killed, "segments")
    for b in range(6, 16):
        shutil.rmtree(os.path.join(seg_root, f"tbucket={b}"), ignore_errors=True)
    _set_buckets(killed, list(range(6)))

    stats = build_index(ds(), killed, docid_strategy="hash64", resume=True,
                        partition_resume=True, group_budget=25, sample_mod=1)
    assert stats["N"] == 70
    assert _segment_rows(killed) == _segment_rows(clean)

    # resumed index answers queries identically to the clean one
    import pyarrow as pa

    from dpr_ray.query.executor import QueryExecutor

    q = pa.table({"qid": ["x"], "question": ["def import return class"]})
    a = QueryExecutor(clean, k=10)(q).to_pylist()
    b = QueryExecutor(killed, k=10)(q).to_pylist()
    assert a == b


def test_partition_resume_equals_single_pass(ray_session, tmp_path):
    """The spill+per-bucket path and the single-pass path produce identical
    segments (same skew plan ⇒ same bytes)."""
    import ray.data

    tbl = corpus_mod.synth_corpus_table(50, seed=23)
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    build_index(ray.data.from_arrow(tbl).repartition(2), a,
                docid_strategy="hash64", partition_resume=True,
                group_budget=20, sample_mod=1)
    build_index(ray.data.from_arrow(tbl).repartition(2), b,
                docid_strategy="hash64", partition_resume=False,
                group_budget=20, sample_mod=1)
    assert _segment_rows(a) == _segment_rows(b)


def test_partition_resume_refuses_stale_spill(ray_session, tmp_path):
    """The postings spill holds pre-ENCODED postings: its bytes depend on
    the segment params (k1/b/num_tbuckets/block_size) and the corpus, so
    its checkpoint entry records resume_sig + corpus_fp and a resumed run whose
    params or corpus changed must refuse. Without this, a changed
    num_tbuckets reused a spill whose tbucket assignment no longer matches
    query-time term hashing — terms silently missing from results."""
    import pyarrow.parquet as pq
    import pytest
    import ray.data

    tbl = corpus_mod.synth_corpus_table(30, seed=9)
    cdir = tmp_path / "corp"
    cdir.mkdir()
    pq.write_table(tbl, str(cdir / "part.parquet"))
    idx = str(tmp_path / "idx")
    ds = lambda: ray.data.read_parquet(str(cdir))  # noqa: E731

    build_index(ds(), idx, docid_strategy="hash64", partition_resume=True,
                block_size=64, group_budget=20, sample_mod=1)
    # simulate a kill after the spill, mid-segments
    os.remove(os.path.join(idx, "manifest.json"))
    _set_buckets(idx, list(range(4)))
    # segment-level param changed: the docstore entry passes by design
    # (doc bytes don't depend on it) — the SPILL entry must refuse
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", partition_resume=True,
                    block_size=32, group_budget=20, sample_mod=1, resume=True)
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", partition_resume=True,
                    block_size=64, num_tbuckets=8, group_budget=20,
                    sample_mod=1, resume=True)
    # refusals are non-destructive: same-params resume still completes the
    # remaining buckets and converges to the clean-run bytes
    stats = build_index(ds(), idx, docid_strategy="hash64",
                        partition_resume=True, block_size=64,
                        group_budget=20, sample_mod=1, resume=True)
    assert stats["N"] == 30
    clean = str(tmp_path / "clean")
    build_index(ds(), clean, docid_strategy="hash64", partition_resume=True,
                block_size=64, group_budget=20, sample_mod=1)
    assert _segment_rows(idx) == _segment_rows(clean)
    # changed corpus with only the spill entry surviving (manifest AND
    # docstore entry gone): the docstore would rebuild from the new corpus,
    # so the SPILL entry's own fingerprint must refuse the stale spill
    pq.write_table(corpus_mod.synth_corpus_table(35, seed=10),
                   str(cdir / "part.parquet"))
    os.remove(os.path.join(idx, "manifest.json"))
    _edit_checkpoints(idx, lambda e: e.pop("docstore"))
    with pytest.raises(ValueError, match="fingerprint"):
        build_index(ds(), idx, docid_strategy="hash64", partition_resume=True,
                    block_size=64, group_budget=20, sample_mod=1, resume=True)


def test_partition_resume_rebuilds_on_bad_spill_marker(ray_session, tmp_path):
    """A spill entry in an unparseable checkpoints.json (pre-atomic-write
    kill artifact) or without a signature ({"complete": true} only) is NOT
    user error: it is treated as absent — the spill is rebuilt from the
    current corpus+params (safe: the signed docstore entry upstream
    refuses corpus changes) and the resumed build converges to clean-run
    bytes instead of crashing with JSONDecodeError or silently reusing an
    unverifiable spill."""
    import pyarrow.parquet as pq
    import ray.data

    tbl = corpus_mod.synth_corpus_table(30, seed=9)
    cdir = tmp_path / "corp"
    cdir.mkdir()
    pq.write_table(tbl, str(cdir / "part.parquet"))
    idx = str(tmp_path / "idx")
    kw = dict(docid_strategy="hash64", partition_resume=True, block_size=64,
              group_budget=20, sample_mod=1)
    build_index(ray.data.read_parquet(str(cdir)), idx, **kw)
    clean = str(tmp_path / "clean")
    build_index(ray.data.read_parquet(str(cdir)), clean, **kw)

    def truncate(idx):
        with open(os.path.join(idx, "checkpoints.json"), "w") as f:
            f.write('{"postings_spill": {"complete": tru')

    def unsign(idx):
        _edit_checkpoints(
            idx, lambda e: e.update(postings_spill={"complete": True})
        )

    for corrupt in (truncate, unsign):
        os.remove(os.path.join(idx, "manifest.json"))
        corrupt(idx)
        stats = build_index(ray.data.read_parquet(str(cdir)), idx,
                            resume=True, **kw)
        assert stats["N"] == 30
        assert _segment_rows(idx) == _segment_rows(clean)
        # the rebuilt entry is signed: a stale-params resume refuses again
        smark = _checkpoints(idx)["postings_spill"]
        assert smark.get("resume_sig") and smark.get("corpus_fp")


def test_resume_rebuilds_on_truncated_markers(ray_session, tmp_path):
    """EVERY resume record shares one trust policy: a truncated/unparseable
    file (kill landed mid-json.dump before records were written
    atomically), an unsigned entry or a non-object entry reads as ABSENT
    — the stage reruns and converges to clean bytes — instead of crashing
    the resume with JSONDecodeError/KeyError. Affirmative signature
    mismatches still refuse loudly (test_resume_refuses_changed_params)."""
    import pyarrow.parquet as pq
    import ray.data

    tbl = corpus_mod.synth_corpus_table(30, seed=11)
    cdir = tmp_path / "corp"
    cdir.mkdir()
    pq.write_table(tbl, str(cdir / "part.parquet"))
    idx = str(tmp_path / "idx")
    kw = dict(docid_strategy="hash64", partition_resume=True, block_size=64,
              group_budget=20, sample_mod=1)
    build_index(ray.data.read_parquet(str(cdir)), idx, **kw)
    clean = str(tmp_path / "clean")
    build_index(ray.data.read_parquet(str(cdir)), clean, **kw)

    def write(fname, text):
        def corrupt():
            with open(os.path.join(idx, fname), "w") as f:
                f.write(text)
        return corrupt

    def entry(key, value):
        return lambda: _edit_checkpoints(idx, lambda e: e.update({key: value}))

    cases = [
        # (record file, corruption) — truncated json, unsigned, non-object
        ("checkpoints.json", write("checkpoints.json",
                                   '{"docstore": {"resume_sig": tru')),
        ("checkpoints.json", entry("docstore", {"complete": True})),
        ("checkpoints.json", write("checkpoints.json",
                                   '{"segments": {"buckets": [0, 1')),
        ("checkpoints.json", entry("segments", "not-an-object")),
        ("manifest.json", write("manifest.json",
                                '{"complete": true, "stats": {"N"')),
    ]
    for fname, corrupt in cases:
        # fresh complete state, then corrupt exactly one record
        stats = build_index(ray.data.read_parquet(str(cdir)), idx,
                            resume=True, **kw)
        corrupt()
        if fname != "manifest.json":
            # a complete manifest short-circuits before checkpoints load
            os.remove(os.path.join(idx, "manifest.json"))
        stats = build_index(ray.data.read_parquet(str(cdir)), idx,
                            resume=True, **kw)
        assert stats["N"] == 30, fname
        assert _segment_rows(idx) == _segment_rows(clean), fname


def test_read_json_marker_policy(tmp_path):
    """Unit contract of the shared helper: missing / unparseable /
    non-object → None (absent); valid object → the dict. write_json_atomic
    leaves no partial file at the destination path."""
    from dpr_ray.index.manifest import read_json_marker, write_json_atomic

    p = str(tmp_path / "m.json")
    assert read_json_marker(p) is None  # missing
    for bad in ('{"a": 1', "", "[1, 2]", '"str"', "\xff\xfe"):
        with open(p, "w") as f:
            f.write(bad)
        assert read_json_marker(p) is None, bad
    write_json_atomic(p, {"a": 1})
    assert read_json_marker(p) == {"a": 1}
    assert not os.path.exists(p + ".tmp")


def test_sign_names_fields_and_ignores_their_order():
    """The one resume signer: field order does not matter, and a value
    never signs alike under two different field names (or scopes)."""
    from dpr_ray.index.manifest import sign

    assert sign("s", a=1, b="x") == sign("s", b="x", a=1)
    assert sign("s", a=1) != sign("s", b=1)
    assert sign("s", a=1) != sign("t", a=1)
    assert sign("s", a=1, b=2) != sign("s", a=2, b=1)
    assert sign("s", a="1", b="") != sign("s", a="", b="1")


def test_unsigned_complete_manifest_rebuilds(ray_session, tmp_path):
    """A complete manifest without resume_sig is absent under the shared
    trust policy: build_index(resume=True) rebuilds instead of returning
    its stats (an unsigned stage record was always rebuilt), and
    is_complete (the serving-cache reuse check) does not trust it."""
    from dpr_ray.index import manifest as man

    import ray.data

    tbl = corpus_mod.synth_corpus_table(20, seed=13)
    idx = str(tmp_path / "idx")
    ds = lambda: ray.data.from_arrow(tbl).repartition(1)  # noqa: E731
    build_index(ds(), idx, docid_strategy="hash64")
    mpath = os.path.join(idx, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    m.pop("resume_sig")
    # stale stats mark what trusting the unsigned manifest would return
    m["stats"]["N"] = 999
    with open(mpath, "w") as f:
        json.dump(m, f)
    with open(os.path.join(idx, "stats.json"), "w") as f:
        json.dump(m["stats"], f)
    assert not man.is_complete(idx)
    stats = build_index(ds(), idx, docid_strategy="hash64", resume=True)
    assert stats["N"] == 20
    with open(mpath) as f:
        assert json.load(f)["resume_sig"]
    assert man.is_complete(idx)


def test_resume_refuses_changed_corpus(ray_session, tmp_path):
    """resume=True must not silently serve a DIFFERENT corpus: the
    docstore checkpoint and the manifest record a best-effort corpus
    fingerprint (input file list + size + mtime); a resume whose input
    files don't match fails loudly instead of building segments over the
    stale docstore. tools/build_job.py defaults to resume=True, so an
    operator re-pointing --corpus at a new table hits exactly this path.
    In-memory corpora carry no file lineage — the check is skipped and
    old semantics apply."""
    import pyarrow.parquet as pq
    import pytest
    import ray.data

    a = corpus_mod.synth_corpus_table(30, seed=1)
    b = corpus_mod.synth_corpus_table(40, seed=2)
    cdir = tmp_path / "corp"
    cdir.mkdir()
    pq.write_table(a, str(cdir / "part.parquet"))
    idx = str(tmp_path / "idx")
    build_index(ray.data.read_parquet(str(cdir)), idx,
                docid_strategy="hash64", resume=True)
    # unchanged corpus: complete-manifest resume skips cleanly
    stats = build_index(ray.data.read_parquet(str(cdir)), idx,
                        docid_strategy="hash64", resume=True)
    assert stats["N"] == 30
    # changed corpus under a complete manifest: loud refusal
    pq.write_table(b, str(cdir / "part.parquet"))
    with pytest.raises(ValueError, match="fingerprint"):
        build_index(ray.data.read_parquet(str(cdir)), idx,
                    docid_strategy="hash64", resume=True)
    # killed-after-docstore shape (no manifest, checkpoint survives): the
    # docstore checkpoint's fingerprint also refuses
    os.remove(os.path.join(idx, "manifest.json"))
    with pytest.raises(ValueError, match="fingerprint"):
        build_index(ray.data.read_parquet(str(cdir)), idx,
                    docid_strategy="hash64", resume=True)
    # in-memory corpus: no lineage → no refusal; plain rebuild clears state
    stats = build_index(ray.data.from_arrow(b).repartition(1), idx,
                        docid_strategy="hash64")
    assert stats["N"] == 40


def test_resume_refuses_changed_params(ray_session, tmp_path):
    """The corpus fingerprint alone is not enough for resume safety:
    rerunning into an existing index dir with the SAME corpus but different
    build parameters must refuse instead of silently serving (complete
    manifest) or building on top of (docstore checkpoint) an index that does
    not match the requested parameters. Segment-level params may
    legitimately change across a docstore-marker resume — the docstore
    bytes don't depend on them — so that combination rebuilds instead of
    refusing. In-memory corpora (fp=None) get the parameter guard too."""
    import pytest
    import ray.data

    from dpr_ray.config import BM25Params

    tbl = corpus_mod.synth_corpus_table(25, seed=5)
    idx = str(tmp_path / "idx")
    ds = lambda: ray.data.from_arrow(tbl).repartition(1)  # noqa: E731

    build_index(ds(), idx, docid_strategy="hash64", block_size=64)
    # same params: complete-manifest resume skips cleanly
    stats = build_index(ds(), idx, docid_strategy="hash64", block_size=64,
                        resume=True)
    assert stats["N"] == 25
    # segment-level param changed under a complete manifest: loud refusal
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", block_size=32,
                    resume=True)
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", block_size=64,
                    params=BM25Params(k1=0.5), resume=True)
    # featurize-level param changed under a complete manifest: loud refusal
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", block_size=64,
                    dedup_ids=True, resume=True)
    # killed-after-docstore shape (checkpoint survives, no manifest): a
    # featurize-level change refuses...
    os.remove(os.path.join(idx, "manifest.json"))
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", block_size=64,
                    dedup_ids=True, resume=True)
    # ...but a segment-level change is FINE there: the docstore is still
    # valid, only segments rebuild — with the new params, recorded in the
    # new manifest
    stats = build_index(ds(), idx, docid_strategy="hash64", block_size=32,
                        resume=True)
    assert stats["N"] == 25 and stats["block_size"] == 32
    # and the new manifest now freezes block_size=32
    with pytest.raises(ValueError, match="parameters"):
        build_index(ds(), idx, docid_strategy="hash64", block_size=64,
                    resume=True)


def test_partition_resume_removes_stale_bucket_dirs(ray_session, tmp_path):
    """A prior partition build with a LARGER num_tbuckets killed
    mid-segments leaves tbucket dirs the current range never rewrites;
    rebuilding with resume=False must remove them — their postings use
    the old bucket assignment (phantom terms in full-segment scans,
    inflated stats). The non-partition path wipes segments_dir whole."""
    import pyarrow.parquet as pq
    import ray.data

    tbl = corpus_mod.synth_corpus_table(25, seed=19)
    cdir = tmp_path / "corp"
    cdir.mkdir()
    pq.write_table(tbl, str(cdir / "part.parquet"))
    kw = dict(docid_strategy="hash64", partition_resume=True,
              num_tbuckets=4, group_budget=20, sample_mod=1)
    clean = str(tmp_path / "clean")
    build_index(ray.data.read_parquet(str(cdir)), clean, **kw)
    idx = str(tmp_path / "idx")
    build_index(ray.data.read_parquet(str(cdir)), idx, **kw)
    # plant a stale out-of-range bucket dir (simulates the killed
    # larger-num_tbuckets run) with a real segment file inside
    seg_root = os.path.join(idx, "segments")
    src_dir = next(
        os.path.join(seg_root, d) for d in sorted(os.listdir(seg_root))
        if d.startswith("tbucket=") and os.listdir(os.path.join(seg_root, d))
    )
    stale = os.path.join(seg_root, "tbucket=9")
    shutil.copytree(src_dir, stale)
    stats = build_index(ray.data.read_parquet(str(cdir)), idx,
                        resume=False, **kw)
    assert not os.path.exists(stale)
    assert stats["N"] == 25
    assert _segment_rows(idx) == _segment_rows(clean)


def test_nonpartition_rebuild_clears_partition_markers(
    ray_session, tmp_path, monkeypatch
):
    """Run A completes with partition_resume=True (postings_spill +
    segments checkpoint entries on disk). Run B rebuilds with
    partition_resume=False and dies mid-segments — it must have REMOVED
    the partition entries first: run C (partition_resume=True, resume)
    would otherwise trust a bucket journal whose segment dirs run B
    wiped, skip every bucket, and write a manifest-complete index with
    silently EMPTY segments (live-reproduced before the guard)."""
    import ray.data

    from dpr_ray import corpus as corpus_mod
    from dpr_ray.index import io as iomod
    from dpr_ray.index import segments as seg
    from dpr_ray.index.build import build_index

    import pytest

    tbl = corpus_mod.synth_corpus_table(40, seed=11)
    d = str(tmp_path / "idx")
    ref = str(tmp_path / "ref")
    build_index(ray.data.from_arrow(tbl).repartition(2), d,
                docid_strategy="hash64", partition_resume=True)
    assert {"postings_spill", "segments"} <= _checkpoints(d).keys()
    # simulate run A killed AFTER the segments phase but BEFORE the
    # manifest write: partition entries present, no completeness claim —
    # the state from which run B (resume=True) actually re-runs the
    # segments phase instead of early-returning
    for f in ("manifest.json", "stats.json"):
        os.remove(os.path.join(d, f))

    real = iomod.write_partitioned

    def boom(*a, **k):
        raise RuntimeError("injected mid-segments kill")

    monkeypatch.setattr(iomod, "write_partitioned", boom)
    with pytest.raises(Exception, match="injected"):
        build_index(ray.data.from_arrow(tbl).repartition(2), d,
                    docid_strategy="hash64", partition_resume=False,
                    resume=True)
    assert not {"postings_spill", "segments"} & _checkpoints(d).keys()
    monkeypatch.setattr(iomod, "write_partitioned", real)

    # run C: partition resume rebuilds the spill + every bucket — the
    # result must match a clean build, never an empty segment set
    stats = build_index(ray.data.from_arrow(tbl).repartition(2), d,
                        docid_strategy="hash64", partition_resume=True,
                        resume=True)
    build_index(ray.data.from_arrow(tbl).repartition(2), ref,
                docid_strategy="hash64", partition_resume=True)
    want = seg.read_stats(ref)
    for k in ("N", "postings", "n_terms"):
        if k in want:
            assert stats[k] == want[k], k
    import pyarrow.dataset as pads

    n_rows = pads.dataset(
        os.path.join(d, "segments"), partitioning="hive"
    ).count_rows()
    assert n_rows == pads.dataset(
        os.path.join(ref, "segments"), partitioning="hive"
    ).count_rows()
    assert n_rows > 0

"""Index-directory state: one signer, one checkpoint file, one manifest.

The reference resumes only whole output files (re-run a missing shard id
— ``generate_dense_embeddings.py:145-149``). Here this module owns every
resume decision for an index directory. ``sign`` signs the inputs and
parameters an output was written from, under a scope naming the writer.
``checkpoints.json`` holds one signed entry per output subdirectory:
``docstore`` (build and merge share it; their scopes differ, so neither
trusts the other's state), ``postings_spill`` and ``segments`` (the
``partition_resume`` bucket list). ``manifest.json`` is the completeness
claim: stats, stage times, skew plan, partition tables, the writer's
signature, the corpus fingerprint and each output's resume decision.

Trust policy, the same for every record: a missing, unparseable or
unsigned record is ABSENT and its output is rewritten, which is always
safe because every stage is deterministic. An affirmative signature or
fingerprint MISMATCH refuses loudly under ``strict`` (build_index: user
error) and is rewritten otherwise (merges and tools: new inputs mean
recompute). Files of older layouts are never read.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import pyarrow.parquet as pq

log = logging.getLogger(__name__)

CHECKPOINTS = "checkpoints.json"


def sign(scope: str, **fields) -> str:
    """Each field is tagged by its name, so differently named fields never
    collide and their order does not matter. Values hash through
    ``repr``; that byte layout must not change: complete manifests written
    by earlier builds verify against it."""
    h = hashlib.blake2b(digest_size=16)
    h.update(scope.encode())
    for k in sorted(fields):
        h.update(f"|{k}={fields[k]!r}".encode())
    return h.hexdigest()


def _signed(record) -> bool:
    return isinstance(record, dict) and bool(record.get("resume_sig"))


def _partition_table(root: str) -> list[dict]:
    out = []
    for dirpath, _dirs, files in sorted(os.walk(root)):
        for f in sorted(files):
            if not f.endswith(".parquet"):
                continue
            p = os.path.join(dirpath, f)
            try:
                rows = pq.ParquetFile(p).metadata.num_rows
            except Exception:
                rows = -1
            out.append(
                {
                    "file": os.path.relpath(p, root),
                    "rows": rows,
                    "bytes": os.path.getsize(p),
                }
            )
    return out


def write_json_atomic(path: str, obj: dict, **dump_kwargs) -> None:
    """Write-then-rename so a kill mid-dump never leaves a truncated JSON
    file at ``path`` — resume records are trusted by filename, so a
    half-written one must not be observable."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, **dump_kwargs)
    os.replace(tmp, path)


def read_json_marker(path: str) -> dict | None:
    """The JSON object at ``path``; None when it is missing, unparseable
    (a pre-atomic-write kill artifact) or not an object."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return obj if isinstance(obj, dict) else None


def _refuse_mismatch(entry: dict, sig: str, corpus_fp, what: str) -> None:
    recorded = entry.get("corpus_fp")
    if recorded and corpus_fp and recorded != corpus_fp:
        why = (f"the input corpus does not match (fingerprint {corpus_fp} "
               f"!= recorded {recorded})")
    elif entry["resume_sig"] != sig:
        why = ("the build parameters (docid_strategy / dedup_ids / "
               "block_size / num_tbuckets / k1 / b / ...) do not match, or "
               f"a merge wrote it (signature {sig} != recorded "
               f"{entry['resume_sig']})")
    else:
        return
    raise ValueError(
        f"resume=True but {why} for the {what}: resuming would silently "
        "serve a stale index. Rebuild without resume (or into a fresh "
        "index dir) if the corpus or parameters really changed."
    )


def reuse(
    path: str, key: str | None, sig: str, *, resume: bool = True,
    strict: bool = False, corpus_fp: str | None = None,
) -> tuple[dict | None, str]:
    """Resume decision for one output: ``(entry or None, decision)``.

    ``path`` is a ``checkpoints.json`` and ``key`` the output subdirectory
    beside it that the entry vouches for, or ``key=None`` for a record
    that is a file of its own (``manifest.json``, a curation
    ``_SUCCESS``). The entry comes back when it is signed ``sig`` (and a
    keyed entry's output directory is non-empty); otherwise the record is
    dropped, the caller rewrites the output, and ``decision`` says why."""
    index_dir = os.path.dirname(path)
    what = f"{key or os.path.basename(path)} in {index_dir!r}"
    entry = read_json_marker(path) if resume else None
    if entry is not None and key is not None:
        out = os.path.join(index_dir, key)
        has_output = os.path.isdir(out) and os.listdir(out)
        entry = entry.get(key) if has_output else None
    if not resume:
        decision = "rebuilt: resume off"
    elif not _signed(entry):
        decision = "rebuilt: absent"
    else:
        if strict:
            _refuse_mismatch(entry, sig, corpus_fp, what)
        decision = ("resumed" if entry["resume_sig"] == sig
                    else "rebuilt: signature changed")
    if decision != "resumed":
        entry = None
        drop(path, *([] if key is None else [key]))
    log.info("resume %s: %s", what, decision)
    return entry, decision


def commit(path: str, key: str | None, sig: str, **payload) -> None:
    """Record an output, signed ``sig``, with the payload a resumed run
    needs instead of recomputing it. Call it only once the output is
    completely written: the record is the claim that it is."""
    entry = {"resume_sig": sig, **payload}
    if key is not None:
        entry = {**(read_json_marker(path) or {}), key: entry}
    write_json_atomic(path, entry, sort_keys=True)


def drop(path: str, *keys: str) -> None:
    """Withdraw the given checkpoint entries, or the whole file when no
    key is given, before the outputs they vouch for are rewritten."""
    entries = read_json_marker(path) if keys else None
    if not keys and os.path.exists(path):
        os.remove(path)
    elif entries is not None and not entries.keys().isdisjoint(keys):
        write_json_atomic(
            path, {k: v for k, v in entries.items() if k not in keys},
            sort_keys=True,
        )


def resume_index(
    index_dir: str, sig: str, *, resume: bool, strict: bool = False,
    corpus_fp: str | None = None,
) -> tuple[dict | None, str]:
    """``(stats, decision)`` for ``index_dir``'s manifest: the stats of a
    complete index signed ``sig`` (the caller skips its write), or None
    after withdrawing every completeness claim before the caller mutates
    outputs: manifest.json, stats.json (merge_indexes and SegmentStore
    read it without a completeness check) and, on a non-resume run,
    every checkpoint."""
    m, decision = reuse(
        os.path.join(index_dir, "manifest.json"), None, sig, resume=resume,
        strict=strict, corpus_fp=corpus_fp,
    )
    if m is not None:
        return m["stats"], decision
    drop(os.path.join(index_dir, "stats.json"))
    if not resume:
        drop(os.path.join(index_dir, CHECKPOINTS))
    return None, decision


def write_manifest(
    index_dir: str, *, stats: dict, timings: dict, salt_map: dict,
    resume_sig: str, resume: dict, corpus_fp: str | None = None,
    merge_plan: dict | None = None,
) -> dict:
    """Write ``manifest.json``; a merge passes ``merge_plan``, the counts
    of its work units (docstore cells, input parts they read, segment
    tasks), which shows the read amplification of its cell plan."""
    manifest = {
        "complete": True,
        "corpus_fp": corpus_fp,
        "resume_sig": resume_sig,
        "resume": resume,
        "stats": stats,
        "timings": timings,
        "skew_plan": {"salted_terms": len(salt_map), "salt_map": dict(sorted(salt_map.items())[:1000])},
        "partitions": {
            "docstore": _partition_table(os.path.join(index_dir, "docstore")),
            "segments": _partition_table(os.path.join(index_dir, "segments")),
        },
    }
    if merge_plan is not None:
        manifest["merge_plan"] = merge_plan
    write_json_atomic(
        os.path.join(index_dir, "manifest.json"), manifest,
        indent=1, sort_keys=True,
    )
    return manifest


def read_manifest(index_dir: str) -> dict | None:
    # truncated manifest (kill mid-write, pre-atomic-write artifact) reads
    # as absent: is_complete() then returns False and the build reruns
    return read_json_marker(os.path.join(index_dir, "manifest.json"))


def is_complete(index_dir: str) -> bool:
    """The trust policy without a signature to compare: a complete
    manifest that is signed (an unsigned one is absent, as in ``reuse``)."""
    m = read_manifest(index_dir)
    return _signed(m) and bool(m.get("complete"))

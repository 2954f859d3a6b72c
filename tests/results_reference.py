"""Reference copy of the results-JSON writer that predates the column
encoder in ``qa.save_results``, kept as the independent oracle of its
byte-identity tests: every row folds into a dict, the entries sort by
(question, qid), each entry's ctxs by rank (a stable sort), and
``json.dump(entries, f, indent=1)`` writes the file."""

import json
from operator import itemgetter

import ray


def ref_save_results(results_ds, out_path: str, answers_ref=None) -> int:
    answers = ray.get(answers_ref) if answers_ref is not None else {}
    cols = ["qid", "question", "rank", "ext_id", "title", "content", "score", "has_answer"]
    by_qid: dict = {}
    for b in results_ds.iter_batches(batch_format="pyarrow"):
        rows = zip(*(b[c].to_pylist() for c in cols))
        for qid, question, rank, ext_id, title, text, score, hit in rows:
            ctx = {"id": ext_id, "title": title, "text": text,
                   "score": f"{score:.6f}", "has_answer": bool(hit)}
            by_qid.setdefault(qid, (question, []))[1].append((rank, ctx))
    out = []
    for qid, (question, ctxs) in sorted(by_qid.items(), key=lambda e: (e[1][0], e[0])):
        out.append({"question": question, "answers": answers.get(qid, []),
                    "ctxs": [c for _, c in sorted(ctxs, key=itemgetter(0))]})
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    return len(out)

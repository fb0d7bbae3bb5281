"""The correctness gate and the ledger check.

Every reply the benchmark receives is checked against a known answer
(`answers.json`, keyed by input, not by request id) and, for corpus
problems that have one, against the program section of the
conformance golden. A traced replay record is checked for a ledger
that sums exactly.
"""

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_answers(path=HERE / "answers.json"):
    with open(path) as f:
        return json.load(f)


def golden_program(root, key):
    """The `program:` section of the conformance golden for a tableau
    corpus key (`corpus:<name>`), or None when the name has no golden."""
    if not key.startswith("corpus:"):
        return None
    path = Path(root) / "crates/conformance/goldens" / (key[len("corpus:"):] + ".golden")
    if not path.is_file():
        return None
    text = path.read_text()
    return text.split("program:\n", 1)[1] if "program:\n" in text else None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answer_of(reply):
    """The part of a reply that is the input's answer: everything but
    the request id and the cache counters (which depend on what the
    daemon served before)."""
    keep = ("status", "states", "transitions", "verified", "phase", "reason", "resumable")
    out = {k: reply[k] for k in keep if k in reply}
    if "program" in reply:
        out["program_sha256"] = digest(reply["program"])
    return out


def check(rid, expect, line, answers, goldens):
    """Problems with one reply line (empty list when it is correct).
    `expect` is the input's answer key, `goldens` maps answer keys to
    golden program text."""
    if line is None:
        return [f"{rid}: lost reply"]
    try:
        reply = json.loads(line)
    except ValueError as e:
        return [f"{rid}: unparsable reply ({e})"]
    problems = []
    if reply.get("id") != rid:
        problems.append(f"{rid}: reply carries id {reply.get('id')!r}")
    want = answers.get(expect)
    if want is None:
        return problems + [f"{rid}: no known answer for {expect}"]
    got = answer_of(reply)
    if got.get("status") != want["status"]:
        return problems + [f"{rid}: status {got.get('status')!r}, expected {want['status']!r} ({expect})"]
    if want["status"] == "solved" and reply.get("verified") is not True:
        problems.append(f"{rid}: solved but not verified ({expect})")
    for k in sorted(set(want) | set(got)):
        if got.get(k) != want.get(k):
            problems.append(f"{rid}: {k} is {got.get(k)!r}, expected {want.get(k)!r} ({expect})")
    golden = goldens.get(expect)
    if golden is not None and reply.get("program", "").rstrip("\n") != golden.rstrip("\n"):
        problems.append(f"{rid}: program differs from the golden of {expect}")
    return problems


def check_ledger(rec):
    """Problems with one traced request record: spans must be ordered,
    disjoint and inside the request span, and spans plus the explicit
    residual must sum exactly to the request span."""
    total, residual, spans = rec["total_ns"], rec["residual_ns"], rec["spans"]
    problems = []
    prev_end = 0
    for layer, name, start, end in spans:
        if not (prev_end <= start <= end <= total):
            problems.append(f"{rec['id']}: span {layer}/{name} [{start},{end}] is out of order")
        prev_end = end
    covered = sum(end - start for _, _, start, end in spans)
    if residual < 0 or covered + residual != total:
        problems.append(
            f"{rec['id']}: spans {covered} ns + residual {residual} ns != request span {total} ns"
        )
    return problems

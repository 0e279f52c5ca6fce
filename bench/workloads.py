"""The benchmark's workloads and their correctness gate.

A workload is a fixed list of CLI commands.  Each command writes one
report file; the report is cut into units (scan rows, lemma reports, or
the whole file for a graded command) and every unit is checked twice:
against seed-independent invariants, and, for seeds with recorded
digests in ``reference.json``, byte for byte through its SHA-256.
"""

from __future__ import annotations

import hashlib
import json

# Every workload, in run order: (label, argv).  The label names the
# command in results and in the cli.cmd.<label>_s per-layer metric.  The
# seed reaches the program only through --seed; the graded commands take
# none because their output does not depend on one.
WORKLOADS = {
    "scan": [
        ("scan-n5", ["scan-classes", "--n", "5"]),
        ("scan-n6", ["scan-classes", "--n", "6"]),
    ],
    "lemmas": [("verify-lemmas", ["verify-lemmas"])],
    "graded": [
        ("nichols-n3-sgn-sgn", ["nichols-dim", "--n", "3", "--preset", "--char", "sgn-sgn", "--max-degree", "5"]),
        ("nichols-n3-eps-sgn", ["nichols-dim", "--n", "3", "--preset", "--char", "eps-sgn", "--max-degree", "5"]),
        ("nichols-n4-sgn-sgn", ["nichols-dim", "--n", "4", "--preset", "--char", "sgn-sgn", "--max-degree", "4"]),
        ("nichols-n4-eps-sgn", ["nichols-dim", "--n", "4", "--preset", "--char", "eps-sgn", "--max-degree", "4"]),
        ("hilbert-fk-n4", ["hilbert", "--algebra", "fk", "--n", "4", "--cap", "13"]),
        ("hilbert-fk-n5", ["hilbert", "--algebra", "fk", "--n", "5", "--cap", "8"]),
    ],
}

SEEDED = {"scan-classes", "verify-lemmas"}

# Published values the graded commands must reproduce (Fomin-Kirillov:
# total 12 for n = 3 and 576 for n = 4).
_GRADED_EXPECT = {
    "nichols-n3": lambda d: d["dims"] == [1, 3, 4, 3, 1, 0] and d["exact"] is True,
    "nichols-n4": lambda d: d["dims"] == [1, 6, 19, 42, 71],
    "hilbert-fk-n4": lambda d: d["terminated"] is True and sum(d["dims"]) == 576,
    "hilbert-fk-n5": lambda d: d["dims"] == [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796],
}


def commands(workload: str, seed: int) -> list:
    """(label, argv) for each command of the workload, seeded."""
    return [
        (label, argv + (["--seed", str(seed)] if argv[0] in SEEDED else []))
        for label, argv in WORKLOADS[workload]
    ]


def expected_units(label: str) -> list:
    """Unit ids a command must produce, from the program's own counts."""
    from weylrack.verify import LEMMA_CHECKS, count_nontrivial_classes

    if label.startswith("scan-n"):
        return [f"{label}#{i}" for i in range(count_nontrivial_classes(int(label[6:])))]
    if label == "verify-lemmas":
        return [f"{label}#{name}" for name, _ in LEMMA_CHECKS]
    return [label]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split(label: str, raw: bytes) -> dict:
    """{unit id: (unit bytes, parsed unit)}; raises ValueError when the
    file is not the canonical JSON the CLI emits."""
    items = json.loads(raw)
    canonical = json.dumps(items, sort_keys=True, indent=2) + "\n"
    if canonical.encode() != raw:
        raise ValueError("report is not canonical JSON")
    if label.startswith("scan-n") or label == "verify-lemmas":
        if label == "verify-lemmas":
            ids = [f"{label}#{item['check']}" for item in items]
        else:
            ids = [f"{label}#{i}" for i in range(len(items))]
        return {
            uid: (json.dumps(item, sort_keys=True, indent=2).encode(), item)
            for uid, item in zip(ids, items)
        }
    return {label: (raw, items)}


def _invariant(label: str, item) -> str | None:
    """Why a unit breaks a seed-independent invariant, or None."""
    if label == "verify-lemmas":
        return None if item["status"] == "pass" else f"status {item['status']}"
    if label.startswith("scan-n"):
        if item["n"] != int(label[6:]):
            return f"row for n = {item['n']}"
        if item["outcome"] not in ("certificate", "exception-list"):
            return f"outcome {item['outcome']}"
        return None
    for prefix, ok in _GRADED_EXPECT.items():
        if label.startswith(prefix):
            return None if ok(item) else f"unexpected result {item}"
    return f"no invariant for {label}"


def gate(label: str, raw: bytes | None, reference: dict | None) -> dict:
    """{unit id: {"digest": hex or None, "error": reason or None}} for one
    command's report.  `raw` is None when the command raised or exited
    non-zero; every expected unit then fails."""
    expected = expected_units(label)
    if raw is None:
        return {uid: {"digest": None, "error": "command failed"} for uid in expected}
    try:
        units = _split(label, raw)
    except (ValueError, KeyError, TypeError) as exc:
        return {uid: {"digest": None, "error": f"unreadable report: {exc}"} for uid in expected}
    out = {}
    for uid in expected:
        if uid not in units:
            out[uid] = {"digest": None, "error": "missing"}
            continue
        data, item = units[uid]
        digest = _digest(data)
        try:
            error = _invariant(label, item)
        except (KeyError, TypeError) as exc:
            error = f"malformed unit: {exc!r}"
        if error is None and reference is not None and reference.get(uid) != digest:
            error = "digest differs from reference"
        out[uid] = {"digest": digest, "error": error}
    for uid in units.keys() - set(expected):
        out[uid] = {"digest": None, "error": "unexpected unit"}
    return out

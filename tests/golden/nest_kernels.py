#!/usr/bin/env python3
"""Check that a regenerated trace golden differs from the old one only by
moving each conversion-fed kernel span inside the Redistribute span before
it (PR 18: every kernel span nests in the redistribution that feeds it).

    git show HEAD~1:tests/golden/trace_p2_id0.json > /tmp/old.json
    python3 tests/golden/nest_kernels.py /tmp/old.json tests/golden/trace_p2_id0.json

Per rank, drop `seq` (event ordinals), then rewrite the old stream: a
`spmm`/`gemm` span that opens right after a `redistribute` closes moves in
front of that close. The result must equal the new stream event for event.
"""
import json
import sys


def ranks(path):
    out = {}
    for e in json.load(open(path))["traceEvents"]:
        e = dict(e)
        e.get("args", {}).pop("seq", None)
        out.setdefault(e["tid"], []).append(e)
    return out


def nest(events):
    """The old stream with kernel spans nested; returns (events, moved)."""
    out, i, moved = [], 0, 0
    while i < len(events):
        e = events[i]
        nxt = events[i + 1] if i + 1 < len(events) else None
        if (e["name"], e["ph"]) == ("redistribute", "E") and nxt and (
            nxt["name"] in ("spmm", "gemm") and nxt["ph"] == "B"
        ):
            j = i + 1
            while (events[j]["name"], events[j]["ph"]) != (nxt["name"], "E"):
                j += 1
            out.extend(events[i + 1 : j + 1])
            out.append(e)
            moved += 1
            i = j + 1
        else:
            out.append(e)
            i += 1
    return out, moved


moved = 0
old, new = ranks(sys.argv[1]), ranks(sys.argv[2])
assert old.keys() == new.keys(), "different ranks"
for tid in old:
    assert len(old[tid]) == len(new[tid]), f"rank {tid}: event count changed"
    nested, n = nest(old[tid])
    assert nested == new[tid], f"rank {tid}: not a pure nesting move"
    moved += n
print(f"ok: {moved} kernel spans moved inside their redistribution; nothing else changed")

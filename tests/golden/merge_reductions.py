#!/usr/bin/env python3
"""Check that a regenerated trace golden differs from the old one only by
merging the step's three 2-element scoring all-reduces (loss, train
accuracy, test accuracy) into one 6-element all-reduce.

    git show HEAD~1:tests/golden/trace_p2_id0.json > /tmp/old.json
    python3 tests/golden/merge_reductions.py /tmp/old.json tests/golden/trace_p2_id0.json

Per rank, drop `seq` (event ordinals), then rewrite the old stream: a run
of three consecutive 8-byte `allreduce` sends to one peer becomes one
24-byte send, and every later send to that peer has its `msg_seq` lowered
by the two messages saved. The result must equal the new stream event for
event.
"""
import json
import sys


def ranks(path):
    out = {}
    for e in json.load(open(path))["traceEvents"]:
        e = dict(e)
        e["args"] = dict(e.get("args", {}))
        e["args"].pop("seq", None)
        out.setdefault(e["tid"], []).append(e)
    return out


def is_scoring_send(e):
    a = e["args"]
    return e["name"] == "send" and a.get("kind") == "allreduce" and a.get("bytes") == 8


def merge(events):
    """The old stream with scoring reductions merged; returns (events, merged)."""
    out, saved, merged, i = [], {}, 0, 0
    while i < len(events):
        e = events[i]
        run = events[i : i + 3]
        if len(run) == 3 and all(is_scoring_send(r) for r in run):
            peer = e["args"]["peer"]
            assert all(r["args"]["peer"] == peer for r in run), "mixed peers"
            one = dict(e, args=dict(e["args"], bytes=24, dense_bytes=24))
            one["args"]["msg_seq"] -= saved.get(peer, 0)
            out.append(one)
            saved[peer] = saved.get(peer, 0) + 2
            merged += 1
            i += 3
            continue
        if e["name"] == "send":
            peer = e["args"]["peer"]
            e = dict(e, args=dict(e["args"]))
            e["args"]["msg_seq"] -= saved.get(peer, 0)
        out.append(e)
        i += 1
    return out, merged


merged = 0
old, new = ranks(sys.argv[1]), ranks(sys.argv[2])
assert old.keys() == new.keys(), "different ranks"
for tid in old:
    rewritten, n = merge(old[tid])
    assert n > 0, f"rank {tid}: no scoring reduction to merge"
    assert rewritten == new[tid], f"rank {tid}: not a pure reduction merge"
    merged += n
print(f"ok: {merged} scoring reductions merged into one each; nothing else changed")

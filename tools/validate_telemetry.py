#!/usr/bin/env python3
"""Schema validator for the observability artifacts.

Validates the JSON documents the serving driver exports so CI catches
format drift before a human tries to load one in Perfetto or a
plotting notebook:

  --chrome FILE.json    slow-trace / full-trace Chrome trace-event JSON
  --timeline FILE.json  obs::GaugeSeries JSON
  --csv FILE.csv        obs::GaugeSeries CSV (checked against --timeline)

Exit 0 when every named artifact validates; the first violation is
reported with its path and the offending record.
"""

import argparse
import csv
import json
import sys


def fail(path, msg):
    print(f"FAIL {path}: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_chrome(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, '"traceEvents" is not a list')
    durations = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            fail(path, f"{where} has unknown phase {ph!r}")
        if not isinstance(ev.get("pid"), int):
            fail(path, f"{where} pid is not an integer")
        if not isinstance(ev.get("tid"), int):
            fail(path, f"{where} tid is not an integer")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            fail(path, f"{where} has no name")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(path, f"{where} ts {ts!r} is not a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(path, f"{where} dur {dur!r} is invalid")
            durations += 1
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            fail(path, f"{where} instant has invalid scope")
    print(f"ok {path}: {len(events)} events ({durations} spans)")
    return doc


def validate_timeline(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc.get("intervalUs"), (int, float)) or \
            doc["intervalUs"] <= 0:
        fail(path, '"intervalUs" is not a positive number')
    columns = doc.get("columns")
    if not isinstance(columns, list) or \
            not all(isinstance(c, str) and c for c in columns):
        fail(path, '"columns" is not a list of non-empty strings')
    rows = doc.get("rows")
    if not isinstance(rows, list):
        fail(path, '"rows" is not a list')
    prev_t = -1.0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        t = row.get("t_us")
        if not isinstance(t, (int, float)) or t < 0:
            fail(path, f"{where} t_us {t!r} is invalid")
        if t <= prev_t:
            fail(path, f"{where} t_us {t} is not strictly increasing")
        prev_t = t
        values = row.get("values")
        if not isinstance(values, list) or len(values) != len(columns):
            fail(path, f"{where} has {len(values or [])} values for "
                       f"{len(columns)} columns")
        for v in values:
            if not isinstance(v, (int, float)):
                fail(path, f"{where} holds non-numeric value {v!r}")
    print(f"ok {path}: {len(rows)} rows x {len(columns)} columns")
    return doc


def validate_timeline_csv(path, timeline_doc):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            fail(path, "empty file")
        body = list(reader)
    if header[0] != "t_us":
        fail(path, f"first column is {header[0]!r}, expected 't_us'")
    for line in body:
        if len(line) != len(header):
            fail(path, f"row width {len(line)} != header {len(header)}")
        for cell in line:
            float(cell)  # raises (and fails the run) on non-numbers
    if timeline_doc is not None:
        if header[1:] != timeline_doc["columns"]:
            fail(path, "CSV columns disagree with the timeline JSON")
        if len(body) != len(timeline_doc["rows"]):
            fail(path, f"{len(body)} CSV rows vs "
                       f"{len(timeline_doc['rows'])} JSON rows")
    print(f"ok {path}: {len(body)} rows")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chrome", action="append", default=[],
                    help="Chrome trace-event JSON to validate")
    ap.add_argument("--timeline", help="timeline JSON to validate")
    ap.add_argument("--csv", help="timeline CSV to validate")
    args = ap.parse_args()
    if not args.chrome and not args.timeline and not args.csv:
        ap.error("nothing to validate")
    for path in args.chrome:
        validate_chrome(path)
    timeline_doc = None
    if args.timeline:
        timeline_doc = validate_timeline(args.timeline)
    if args.csv:
        validate_timeline_csv(args.csv, timeline_doc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validates a Prometheus text-exposition body (stdlib only).

CI scrapes the live daemon with `nanocost_stats --prometheus` and runs
this checker over the capture, so a malformed exposition body fails the
build instead of silently confusing a real scraper.  Checks:

  * every sample line parses as `name[{labels}] value` with a metric
    name matching ^[a-zA-Z_:][a-zA-Z0-9_:]*$;
  * every `# TYPE` line names a known type (counter|gauge|histogram)
    and no metric is TYPE-declared twice;
  * every histogram series (a family's samples that share one label set,
    `le` aside) is structurally complete and internally consistent: an
    `{le="+Inf"}` bucket exists, bucket counts are cumulative
    (non-decreasing as le increases), and `_count` (equal to the +Inf
    bucket) and `_sum` are present with that series' labels;
  * sample values parse as floats (Prometheus permits NaN/Inf spellings,
    so those pass).

`--require-positive NAME` (repeatable) additionally asserts that the
named sample exists with a value > 0 -- the serve smoke uses it to prove
the scrape observed real traffic (`serve_requests`), not an empty
registry.

Usage: check_prometheus.py <exposition.txt> [--require-positive NAME]...
Exit codes: 0 ok, 1 malformed/assertion failed, 2 usage/IO error.
"""

import argparse
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name, optional {labels}, whitespace, value (timestamps are not emitted
# by nanocost_stats, so a trailing field is an error here).
SAMPLE_RE = re.compile(r"^([^\s{]+)(\{[^}]*\})?\s+(\S+)$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
KNOWN_TYPES = {"counter", "gauge", "histogram"}


def parse_value(text):
    # Prometheus spells specials as NaN/+Inf/-Inf; float() accepts them.
    return float(text.replace("+Inf", "inf").replace("-Inf", "-inf"))


def label_pairs(labels):
    """The (name, escaped value) pairs of a `{...}` label set, sorted."""
    return tuple(sorted(LABEL_RE.findall(labels)))


def series_name(name, pairs):
    """`name{k="v",...}`, or the bare name of an unlabelled series."""
    if not pairs:
        return name
    return name + "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def check(lines):
    """Returns (samples, errors): {(name, labels) -> value} and a list of
    human-readable problems."""
    errors = []
    samples = {}
    types = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                name, mtype = parts[2], parts[3]
                if not NAME_RE.match(name):
                    errors.append(f"line {lineno}: TYPE for invalid name {name!r}")
                if mtype not in KNOWN_TYPES:
                    errors.append(f"line {lineno}: unknown TYPE {mtype!r} for {name}")
                if name in types:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                types[name] = mtype
            continue  # other comments (build info header) are free-form
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        if not NAME_RE.match(name):
            errors.append(f"line {lineno}: invalid metric name {name!r}")
            continue
        try:
            value = parse_value(value_text)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {value_text!r} for {name}")
            continue
        key = (name, labels)
        if key in samples:
            errors.append(f"line {lineno}: duplicate sample {name}{labels}")
        samples[key] = value

    for name, mtype in sorted(types.items()):
        if mtype != "histogram":
            continue
        # One histogram per series: the buckets grouped by their labels
        # without le, each checked with the _count and _sum of its labels.
        series = {}  # label pairs without le -> [(le, count)], le = +inf for +Inf
        for (sample_name, labels), value in samples.items():
            if sample_name != name + "_bucket":
                continue
            pairs = label_pairs(labels)
            le = [v for k, v in pairs if k == "le"]
            if not le:
                errors.append(f"{name}: bucket sample without an le label: {labels}")
                continue
            key = tuple(p for p in pairs if p[0] != "le")
            series.setdefault(key, []).append((parse_value(le[0]), value))
        if not series:
            errors.append(f"{name}: histogram with no _bucket samples")
            continue
        counts = {label_pairs(labels): value for (sample_name, labels), value in samples.items()
                  if sample_name == name + "_count"}
        sums = {label_pairs(labels) for sample_name, labels in samples
                if sample_name == name + "_sum"}
        for key, buckets in sorted(series.items()):
            label = series_name(name, key)
            buckets.sort()
            if not math.isinf(buckets[-1][0]):
                errors.append(f'{label}: missing the {{le="+Inf"}} bucket')
            prev = -1.0
            for le, count in buckets:
                if count < prev:
                    errors.append(
                        f"{label}: bucket counts not cumulative at le={le:g} "
                        f"({count:g} < {prev:g})"
                    )
                prev = count
            count_sample = counts.get(key)
            if count_sample is None:
                errors.append(f"{label}: missing _count")
            elif math.isinf(buckets[-1][0]) and count_sample != buckets[-1][1]:
                errors.append(
                    f"{label}: _count {count_sample:g} != +Inf bucket {buckets[-1][1]:g}"
                )
            if key not in sums:
                errors.append(f"{label}: missing _sum")
    return samples, errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("exposition", help="file holding the scraped text body")
    parser.add_argument(
        "--require-positive",
        action="append",
        default=[],
        metavar="NAME",
        help="assert this sample exists with a value > 0",
    )
    args = parser.parse_args(argv[1:])

    try:
        with open(args.exposition, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as err:
        print(f"check_prometheus: cannot read {args.exposition}: {err}", file=sys.stderr)
        return 2

    samples, errors = check(lines)
    for name in args.require_positive:
        value = samples.get((name, ""))
        if value is None:
            errors.append(f"required sample {name} is absent")
        elif not value > 0:
            errors.append(f"required sample {name} = {value:g}, need > 0")

    for problem in errors:
        print(f"check_prometheus: FAIL {problem}", file=sys.stderr)
    if errors:
        return 1
    print(
        f"check_prometheus: ok ({len(samples)} samples, "
        f"{len(args.require_positive)} positivity assertion(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

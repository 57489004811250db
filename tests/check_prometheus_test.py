#!/usr/bin/env python3
"""Runs scripts/check_prometheus.py on the fixtures in tests/prometheus.

A labelled histogram family with two series must pass, and the same family
without one series' _sum must fail with a message naming that series (and
only that one).  Exits 1 on the first mismatch.

    python3 tests/check_prometheus_test.py
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(fixture):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_prometheus.py"),
         str(ROOT / "tests" / "prometheus" / fixture)],
        capture_output=True, text=True)


def main():
    problems = []
    valid = check("two_series.prom")
    if valid.returncode != 0:
        problems.append(f"two_series.prom: exit {valid.returncode}, want 0\n{valid.stderr}")
    broken = check("two_series_missing_sum.prom")
    if broken.returncode != 1:
        problems.append(f"two_series_missing_sum.prom: exit {broken.returncode}, want 1")
    if broken.stderr.strip() != 'check_prometheus: FAIL lat{job="risk"}: missing _sum':
        problems.append("two_series_missing_sum.prom: want one error naming "
                        f'lat{{job="risk"}}\'s missing _sum, got\n{broken.stderr}')
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

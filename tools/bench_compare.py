#!/usr/bin/env python
"""Compare two benchmark timing files and fail on regressions.

    python tools/bench_compare.py baseline.json current.json
    python tools/bench_compare.py baseline.json current.json --threshold 0.1

Both files are plain ``{"name": seconds, ...}`` mappings, the format
``benchmarks/out/BENCH_perfsmoke.json`` is written in.

Benchmarks present in only one file are reported but never fail the
comparison (suites grow and shrink); a common benchmark whose current
time exceeds baseline by more than ``--threshold`` (default 20%) does.
Exit status: 0 = no regression, 1 = regression, 2 = usage error.

``--budget budgets.json`` additionally enforces per-benchmark speed
budgets.  Each entry names a benchmark and one rule (or a list of
rules, all of which must hold):

* ``{"max_regression_pct": 50}`` — current must not exceed baseline by
  more than 50% (an absolute-seconds bound against the baseline file;
  use generous margins, absolute timings vary across machines);
* ``{"min_speedup": 2.0}`` — baseline/current must be >= 2.0x;
* ``{"min_speedup": 2.0, "vs": "other_bench"}`` — a *ratio within the
  current file*: ``current[other_bench] / current[name] >= 2.0``.
  Ratio rules compare two measurements from the same machine and run,
  so they are the machine-independent form — CI hard gates should be
  ratio rules;
* ``{"min_speedup": 2.0, "vs_baseline": "other_bench"}`` — compare
  against a *different* baseline entry:
  ``baseline[other_bench] / current[name] >= 2.0``.  This is how a new
  execution mode (with no historical measurement under its own name)
  proves itself against the committed pre-change numbers.

A budget naming a missing benchmark fails (budgets are guarantees, so
silently skipping one would void it).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys


def load_means(path: pathlib.Path) -> dict[str, float]:
    """``{benchmark name: seconds}`` from a plain mapping file."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if isinstance(payload, dict) and all(
            isinstance(v, (int, float)) for v in payload.values()):
        return {str(k): float(v) for k, v in payload.items()}
    raise SystemExit(
        f"error: {path} is not a plain {{name: seconds}} mapping")


def compare(baseline: dict[str, float], current: dict[str, float],
            threshold: float) -> tuple[list[dict], bool]:
    """Per-benchmark comparison rows and whether any regression exceeds
    ``threshold`` (relative slowdown, e.g. 0.2 = 20%)."""
    rows = []
    failed = False
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            rows.append({"name": name, "verdict": "removed"})
            continue
        if name not in baseline:
            rows.append({"name": name, "verdict": "new",
                         "current": current[name]})
            continue
        old, new = baseline[name], current[name]
        delta = (new - old) / old if old > 0 else 0.0
        verdict = "ok"
        if delta > threshold:
            verdict = "REGRESSION"
            failed = True
        rows.append({"name": name, "verdict": verdict, "baseline": old,
                     "current": new, "delta": round(delta, 6)})
    return rows, failed


def load_budget(path: pathlib.Path) -> dict[str, list[dict]]:
    """Parse a budgets file: ``{benchmark: rule | [rule, ...]}``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"error: {path} must map benchmark names to "
                         f"rule objects")
    budget: dict[str, list[dict]] = {}
    for name, rules in payload.items():
        if isinstance(rules, dict):
            rules = [rules]
        if not (isinstance(rules, list)
                and all(isinstance(r, dict) for r in rules) and rules):
            raise SystemExit(f"error: budget {name!r} must be a rule "
                             f"object or a non-empty list of them")
        for rule in rules:
            keys = set(rule) - {"max_regression_pct", "min_speedup",
                                "vs", "vs_baseline"}
            if keys:
                raise SystemExit(f"error: budget {name!r} has unknown "
                                 f"keys {sorted(keys)}")
            if "vs" in rule and "vs_baseline" in rule:
                raise SystemExit(f"error: budget {name!r}: 'vs' and "
                                 f"'vs_baseline' are mutually exclusive")
            if (("vs" in rule or "vs_baseline" in rule)
                    and "min_speedup" not in rule):
                raise SystemExit(f"error: budget {name!r}: 'vs'/"
                                 f"'vs_baseline' require 'min_speedup'")
            if not ({"max_regression_pct", "min_speedup"} & set(rule)):
                raise SystemExit(
                    f"error: budget {name!r} needs 'max_regression_pct' "
                    f"or 'min_speedup'")
        budget[name] = rules
    return budget


def _check_rule(baseline: dict[str, float], current: dict[str, float],
                name: str, rule: dict) -> dict:
    """Evaluate one budget rule into a result row."""
    row = {"name": name, "rule": rule}
    cur = current[name]
    verdicts = []
    if "max_regression_pct" in rule:
        if name not in baseline:
            verdicts.append((False, "no baseline entry"))
        else:
            old = baseline[name]
            pct = 100.0 * (cur - old) / old if old > 0 else 0.0
            row["regression_pct"] = round(pct, 3)
            ok = pct <= float(rule["max_regression_pct"])
            verdicts.append(
                (ok, f"regression {pct:+.1f}% vs "
                     f"max {rule['max_regression_pct']}%"))
    if "min_speedup" in rule:
        if "vs" in rule:
            ref = current.get(rule["vs"])
            against = f"current[{rule['vs']}]"
        elif "vs_baseline" in rule:
            ref = baseline.get(rule["vs_baseline"])
            against = f"baseline[{rule['vs_baseline']}]"
        else:
            ref = baseline.get(name)
            against = "baseline"
        if ref is None:
            verdicts.append((False, f"missing reference {against}"))
        else:
            speedup = ref / cur if cur > 0 else float("inf")
            row["speedup"] = round(speedup, 4)
            ok = speedup >= float(rule["min_speedup"])
            verdicts.append(
                (ok, f"{speedup:.2f}x {against} vs "
                     f"min {rule['min_speedup']}x"))
    row["verdict"] = "ok" if all(ok for ok, _ in verdicts) else "FAIL"
    row["reason"] = "; ".join(msg for _, msg in verdicts)
    return row


def check_budget(baseline: dict[str, float], current: dict[str, float],
                 budget: dict[str, list[dict]]) -> tuple[list[dict], bool]:
    """Evaluate every budget rule; a rule over missing data fails."""
    rows = []
    failed = False
    for name in sorted(budget):
        if name not in current:
            rows.append({"name": name, "rule": budget[name],
                         "verdict": "FAIL",
                         "reason": "benchmark missing from current file"})
            failed = True
            continue
        for rule in budget[name]:
            row = _check_rule(baseline, current, name, rule)
            failed = failed or row["verdict"] == "FAIL"
            rows.append(row)
    return rows, failed


def render_budget_rows(rows: list[dict]) -> list[str]:
    return [f"  {row['name']:<40} {row['verdict']:<6} {row['reason']}"
            for row in rows]


def render_rows(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        name, verdict = row["name"], row["verdict"]
        if verdict == "removed":
            lines.append(f"  {name:<40} removed (baseline only)")
        elif verdict == "new":
            lines.append(f"  {name:<40} new (no baseline)")
        else:
            lines.append(
                f"  {name:<40} {row['baseline']:.6f}s -> "
                f"{row['current']:.6f}s ({row['delta']:+.1%}) {verdict}")
    return lines


def main(argv: list[str] | None = None) -> int:
    try:
        code = _compare_files(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``... | head``): stop quietly.
        # Point stdout at devnull so the interpreter's exit-time flush
        # of what is still buffered cannot raise again.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


def _compare_files(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two benchmark timing files; non-zero exit on "
                    "regression")
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated relative slowdown "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--json-out", type=pathlib.Path, metavar="FILE",
                        help="also write the comparison as JSON (the "
                             "CI gate uploads this as an artifact)")
    parser.add_argument("--budget", type=pathlib.Path, metavar="FILE",
                        help="per-benchmark speed budgets to enforce "
                             "in addition to the threshold comparison")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("threshold must be non-negative")

    baseline = load_means(args.baseline)
    current = load_means(args.current)
    rows, failed = compare(baseline, current, args.threshold)
    print(f"benchmark comparison ({args.baseline} -> {args.current}, "
          f"threshold {args.threshold:.0%}):")
    for line in render_rows(rows):
        print(line)
    budget_rows: list[dict] = []
    budget_failed = False
    if args.budget:
        budget_rows, budget_failed = check_budget(
            baseline, current, load_budget(args.budget))
        print(f"speed budgets ({args.budget}):")
        for line in render_budget_rows(budget_rows):
            print(line)
    if args.json_out:
        payload = {
            "baseline": str(args.baseline),
            "current": str(args.current),
            "threshold": args.threshold,
            "failed": failed or budget_failed,
            "results": rows,
        }
        if args.budget:
            payload["budget"] = str(args.budget)
            payload["budget_results"] = budget_rows
        args.json_out.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if failed or budget_failed:
        if failed:
            print("FAIL: at least one benchmark regressed past the "
                  "threshold")
        if budget_failed:
            print("FAIL: at least one speed budget was violated")
        return 1
    print("OK: no benchmark regressed past the threshold"
          + ("; all speed budgets met" if args.budget else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

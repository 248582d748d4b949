#!/usr/bin/env python3
"""Smoke check of the study benchmark: `python3 studybench/smoke.py`.

Run from the repository root.  It checks BENCHMARK.json against the limits
the benchmark promises, runs every workload at tiny scale with tracing off
and on and validates each result line (keys, metric names and units, every
operation passing), checks that a copy of the benchmark without the manetopt
sources exits non-zero without a result, and checks that the acceptance
cache is left untouched.  It never gates on timings.  Exit code 0 means
every check passed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_benchmark_json(bench: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in bench[group]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{group} entry {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']}")
    problems += [f"bad or repeated name {n}" for n in names if not NAME.match(n) or names.count(n) > 1]
    if not 2 <= len(bench["workloads"]) <= 8 or not 1 <= len(bench["end_to_end"]) <= 16:
        problems.append("workload or end-to-end count")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or mis-specified")
    if not 1 <= len(bench["per_layer"]) <= 128 or not 1 <= bench["run_seconds"] <= 60:
        problems.append("per-layer count or run_seconds")
    for p in bench["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            problems.append(f"path {p}")
    if len(bench["command"]) > 32 or any(len(c) > 200 for c in bench["command"]):
        problems.append("command too long")
    return problems


def check_result(line: str, specs: list[dict]) -> list[str]:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(s["name"] for s in specs):
        problems.append(f"metric names {sorted(metrics)}")
    for spec in specs:
        entry = metrics.get(spec["name"], {})
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != spec["unit"]:
            problems.append(f"metric entry {spec['name']}: {entry}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric value {spec['name']}: {value}")
    return problems


def run_bench(cwd: Path, bench: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        bench["command"]
        + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def cache_state(path: Path) -> dict[str, int]:
    if not path.is_dir():
        return {}
    return {str(p.relative_to(path)): p.stat().st_mtime_ns for p in path.rglob("*") if p.is_file()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    acceptance = cache_state(ROOT / ".acceptance_cache")
    failures = []

    def report(label: str, problems: list[str]) -> None:
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
        failures.extend(problems)

    report("BENCHMARK.json", check_benchmark_json(bench))
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(ROOT, bench, w["name"], trace)
            lines = out.stdout.strip().splitlines()
            problems = [f"exit {out.returncode}: {out.stderr[-500:]}"] if out.returncode else []
            problems += check_result(lines[-1] if lines else "", bench[group])
            report(f"{w['name']} --trace {trace}", problems)

    (ROOT / ".studybench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".studybench_work"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, bench, bench["workloads"][0]["name"], 0)
        problems = []
        if out.returncode == 0:
            problems.append("exit code 0 without the manetopt sources")
        if '"correct"' in out.stdout:
            problems.append("printed a result without the manetopt sources")
        report("fails without the sources", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    report(".acceptance_cache untouched",
           [] if cache_state(ROOT / ".acceptance_cache") == acceptance else ["it changed"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

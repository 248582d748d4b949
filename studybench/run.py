#!/usr/bin/env python3
"""Study benchmark for manetopt: `experiments.run_scenario` on three workloads.

    python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each study runs in a fresh Python process
(`worker.py`) with `threads=1` and BLAS pinned to one thread, in fresh
`out_dir` and `cache_dir` directories under `.studybench_work/`; the
acceptance cache is never touched.  Studies repeat until `--seconds` is used,
with at least two untraced studies, or one untraced and one traced pair
with `--trace 1`.  Untraced runs first start a few workers that only set up,
so that set-up time is a median over several processes.

Every scenario pass is one attempted operation.  A pass fails when it raises,
when a rate in its CSVs is not finite and non-negative, when the ensemble
beats the grid reference by more than the grid modulus, when its output files
differ from the run's first pass (repeats, traced and untraced runs, cold and
warm grid passes must be byte-identical), or when a warm grid pass is not
served entirely from the cache.

With `--trace 0` the last line holds the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics, taken from the traced studies; the
line before it records the environment.  `--tiny` runs the workload at the
smoke-check scale of `smoke.py`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import GRID_MODULUS, WORKLOADS, InputError, build_config

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".studybench_work"
MIN_PLAIN_STUDIES = 2
# Worker processes per untraced run that only set up, for the median set-up
# time; the studies' own set-ups count too.
SETUP_PROBES = 4
# A run stops short of this many seconds whatever --seconds asks for.
RUN_LIMIT_S = 170.0
# CSV columns that hold keys or settings, not rates.
KEY_COLUMNS = {"noise_db", "channel", "iteration"}
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Columns of the trace summary a per-layer metric `<function>.<stat>` reads.
SUMMARY_STATS = {"calls", "elems", "s", "self_s", "ms_p50", "ms_p95"}
END_TO_END = {"setup_s", "study_s", "peak_rss_mb", "quality_ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _under(trace: dict, ancestor: str, name: str) -> list:
    return trace["under"].get(ancestor, {}).get(name, [0, 0, 0])


def _calls(trace: dict, name: str) -> int:
    return trace["functions"].get(name, {}).get("calls", 0)


def _candidates(trace: dict) -> int:
    return _under(trace, "pgd.calibrate_fixed_step", "pgd.run_pgd_batch")[0]


def _grid_misses(trace: dict) -> int:
    # A grid call that evaluated points did not come from the cache.
    return _under(trace, "gridsearch.grid_capacity", "engine.rate_pass")[2]


# Per-layer metrics that combine spans; every other `<function>.<stat>` name
# reads one row of the trace summary.
DERIVED = {
    "pgd.calibrate_fixed_step.candidates": _candidates,
    "pgd.calibrate_fixed_step.useful_ratio": lambda t: (
        _calls(t, "pgd.calibrate_fixed_step") / _candidates(t) if _candidates(t) else 0.0
    ),
    "training.train.adam_steps": lambda t: _under(
        t, "training.train", "training.adam_update"
    )[0],
    "gridsearch.grid_capacity.evaluations": lambda t: _under(
        t, "gridsearch.grid_capacity", "engine.rate_pass"
    )[1],
    "gridsearch.grid_capacity.cache_misses": _grid_misses,
    "gridsearch.grid_capacity.cache_hits": lambda t: (
        _calls(t, "gridsearch.grid_capacity") - _grid_misses(t)
    ),
}


def _layer_value(trace: dict, name: str) -> float:
    if name in DERIVED:
        return DERIVED[name](trace)
    function, _, stat = name.rpartition(".")
    return trace["functions"].get(function, {}).get(stat, 0)


def _check_metric_names(bench: dict) -> None:
    for spec in bench["per_layer"]:
        name = spec["name"]
        stat = name.rpartition(".")[2]
        if name not in DERIVED and name != "trace.overhead_s" and stat not in SUMMARY_STATS:
            raise BenchError(f"no rule computes per-layer metric {name}")
    for spec in bench["end_to_end"]:
        if spec["name"] not in END_TO_END:
            raise BenchError(f"no rule computes end-to-end metric {spec['name']}")


def _run_study(job: dict, study_dir: Path, index: int, deadline: float) -> dict:
    """Run one worker process; its record holds the result, or None if the
    worker failed."""
    study_dir.mkdir()
    job = dict(job, dir=str(study_dir), result=str(study_dir / "result.json"))
    job_path = study_dir / "job.json"
    log_path = study_dir / "worker.log"
    env = dict(os.environ, **PINNED_THREADS, TMPDIR=str(study_dir))
    env.pop("PYTHONPATH", None)
    job["launch"] = time.time()
    job_path.write_text(json.dumps(job))
    started = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(ROOT),
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.monotonic() - started
    if code == 0 and Path(job["result"]).is_file():
        result = json.loads(Path(job["result"]).read_text())
    else:
        tail = log_path.read_text()[-2000:]
        print(f"study {index} failed (exit {code}):\n{tail}", file=sys.stderr)
        result = None
    return {"index": index, "traced": job["traced"], "wall": wall, "dir": study_dir,
            "result": result}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_outputs(out_dir: Path, workload: str) -> list[str]:
    """Problems with one pass's CSVs: rates not finite and >= 0, or the
    ensemble above the grid reference by more than the grid modulus."""
    problems = []
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = _read_csv(path)
        for row in rows:
            for column, cell in zip(header, row):
                if column in KEY_COLUMNS:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and value >= 0.0):
                    problems.append(f"{path.name}: {column}={cell}")
        if path.name == "oracle_compare.csv":
            col = {c: i for i, c in enumerate(header)}
            for row in rows:
                ens, ora = float(row[col["ensemble_rate"]]), float(row[col["oracle_rate"]])
                if ens > ora + GRID_MODULUS:
                    problems.append(f"{path.name}: channel {row[0]} ensemble {ens} > oracle {ora}")
    if not any(out_dir.glob("*.csv")):
        problems.append(f"{workload}: no CSV written")
    return problems


def _digest(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _verify(studies: list[dict], workload: str, test_size: int) -> tuple[int, int, list[str]]:
    """Attempted and failed passes, and what failed.  Marks each study
    `clean` when all of its passes succeeded."""
    attempted = failed = 0
    reference = None
    notes = []
    passes = WORKLOADS[workload]["passes"]
    for study in studies:
        result = study["result"]
        study["clean"] = result is not None
        if result is None:
            attempted += len(passes)
            failed += len(passes)
            notes.append(f"study {study['index']}: worker failed")
            continue
        for entry in result["passes"]:
            attempted += 1
            problems = []
            if entry["error"] is not None:
                problems.append(entry["error"].strip().splitlines()[-1])
            else:
                out_dir = study["dir"] / entry["name"]
                problems += _check_outputs(out_dir, workload)
                digest = _digest(out_dir)
                if reference is None:
                    reference = digest
                elif digest != reference:
                    problems.append("output files differ from the first pass")
            if entry["name"] == "warm":
                if entry["cache_writes"] or not entry["cache_files"]:
                    problems.append(f"warm pass wrote {entry['cache_writes']} cache files")
                trace = result["trace"]
                if trace is not None:
                    hits = DERIVED["gridsearch.grid_capacity.cache_hits"](trace)
                    if hits != test_size:
                        problems.append(f"{hits} grid cache hits, expected {test_size}")
            if problems:
                failed += 1
                study["clean"] = False
                notes.append(f"study {study['index']} pass {entry['name']}: {'; '.join(problems)}")
    return attempted, failed, notes


def _study_s(result: dict) -> float:
    return sum(entry["seconds"] for entry in result["passes"])


def _quality(study: dict, workload: str) -> tuple[float, float]:
    """(learned-schedule mean, its ratio to the reference mean)."""
    name, learned, reference = WORKLOADS[workload]["quality"]
    first_pass = WORKLOADS[workload]["passes"][0]
    header, rows = _read_csv(study["dir"] / first_pass / name)
    row = dict(zip(header, rows[0]))
    return float(row[learned]), float(row[learned]) / float(row[reference])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "manetopt").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-check scale")
    args = parser.parse_args(argv)
    run_start = time.monotonic()
    # Turn SIGTERM into SystemExit so the running worker is stopped and the
    # run's directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _main(args, run_start)
    except BenchError as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 2


def _main(args: argparse.Namespace, run_start: float) -> int:
    src = ROOT / "src"
    if not (src / "manetopt" / "__init__.py").is_file():
        raise BenchError(f"no manetopt source tree under {src}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        config = build_config(args.workload, args.seed, args.tiny)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        raise BenchError(str(exc)) from exc
    _check_metric_names(bench)

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    spans_path = WORK / f"spans-{args.workload}.csv.gz"
    job = {
        "src": str(src),
        "config": config,
        "passes": list(WORKLOADS[args.workload]["passes"]),
        "spans": str(spans_path),
    }
    deadline = run_start + RUN_LIMIT_S
    budget_end = run_start + args.seconds
    studies: list[dict] = []
    probes: list[dict] = []
    try:
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = dict(job, traced=False, probe=True)
                probes.append(_run_study(probe, run_dir / f"probe{i:02d}", i, deadline))
        while True:
            traced = bool(args.trace) and len(studies) % 2 == 1
            index = len(studies)
            studies.append(_run_study(dict(job, traced=traced, probe=False),
                                      run_dir / f"study{index:03d}", index, deadline))
            if studies[-1]["result"] is None and len(studies) == 1:
                break  # nothing runs; report the failure instead of retrying
            wall = statistics.median(s["wall"] for s in studies)
            if args.trace:
                done = len(studies) % 2 == 0 and time.monotonic() + 2 * wall > budget_end
            else:
                done = (
                    len(studies) >= MIN_PLAIN_STUDIES
                    and time.monotonic() + wall > budget_end
                )
            if done or time.monotonic() + wall > deadline:
                break
        attempted, failed, notes = _verify(studies, args.workload, config["test_size"])
        print(_report(args, studies, notes))
        ok = [s for s in studies if s["clean"] and not s["traced"]]
        if not ok:
            raise BenchError("no untraced study finished cleanly")
        setups = [p["result"]["setup_s"] for p in probes if p["result"] is not None]
        metrics = _metrics(args, bench, studies, ok, setups)
        environment = _environment(args, config, studies, ok[0]["result"]["versions"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _metrics(args, bench: dict, studies: list[dict], ok: list[dict], setups: list[float]) -> dict:
    if not args.trace:
        _, quality_ratio = _quality(ok[0], args.workload)
        values = {
            "setup_s": statistics.median(setups + [s["result"]["setup_s"] for s in ok]),
            "study_s": statistics.median(_study_s(s["result"]) for s in ok),
            "peak_rss_mb": statistics.median(s["result"]["peak_rss_mb"] for s in ok),
            "quality_ratio": quality_ratio,
        }
        return {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in bench["end_to_end"]
        }
    traced = [s["result"] for s in studies if s["traced"] and s["clean"]]
    if not traced:
        raise BenchError("no traced study finished cleanly")
    values = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_s":
            values[name] = statistics.median(_study_s(r) for r in traced) - statistics.median(
                _study_s(s["result"]) for s in ok
            )
        else:
            values[name] = statistics.median(_layer_value(r["trace"], name) for r in traced)
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in bench["per_layer"]
    }


def _report(args, studies: list[dict], notes: list[str]) -> str:
    lines = [f"workload {args.workload} seed {args.seed}: {len(studies)} studies"]
    for study in studies:
        result = study["result"]
        if result is None:
            lines.append(f"  study {study['index']}: failed")
            continue
        passes = ", ".join(f"{e['name']} {e['seconds']:.3f} s" for e in result["passes"])
        lines.append(
            f"  study {study['index']}{' traced' if study['traced'] else ''}: "
            f"setup {result['setup_s']:.3f} s, {passes}, peak {result['peak_rss_mb']:.1f} MB"
        )
    ok = [s for s in studies if s["clean"]]
    if ok:
        learned, ratio = _quality(ok[0], args.workload)
        lines.append(f"  learned-schedule mean {learned:.6f} bits/s/Hz, quality ratio {ratio:.6f}")
    traced = [s["result"]["trace"] for s in ok if s["traced"]]
    if traced:
        table = traced[0]["functions"]
        lines.append(f"  trace ({traced[0]['spans']} spans), by self time:")
        lines.append(f"    {'function':40s} {'calls':>8s} {'elems':>10s} {'s':>9s} {'self_s':>9s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"    {name:40s} {row['calls']:8d} {row['elems']:10d} "
                f"{row['s']:9.3f} {row['self_s']:9.3f}"
            )
        lines.append(f"  spans written to {(WORK / f'spans-{args.workload}.csv.gz').relative_to(ROOT)}")
    lines += [f"  FAILED {note}" for note in notes]
    return "\n".join(lines)


def _environment(args, config: dict, studies: list[dict], versions: dict) -> dict:
    plain = [s for s in studies if s["clean"] and not s["traced"]]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        **versions,
        "blas_threads": PINNED_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "studies": len(studies),
        "study_s_samples": len(plain),
        "inputs": config,
    }


if __name__ == "__main__":
    sys.exit(main())

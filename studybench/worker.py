"""One study in a fresh Python process: `python3 worker.py JOB_JSON`.

`run.py` writes the job file and starts this script with BLAS pinned to one
thread.  The worker imports manetopt from the job's source tree, optionally
installs the tracer, runs the study's passes through
`experiments.run_scenario`, and writes a result file with its timings, peak
memory and, when traced, the per-function summary.  A set-up probe stops
before the first pass.  Set-up time runs from the moment `run.py` launched
the process to the first scenario call.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def _cache_state(path: str) -> dict[str, int]:
    try:
        entries = os.scandir(path)
    except FileNotFoundError:
        return {}
    with entries:
        return {e.name: e.stat().st_mtime_ns for e in entries if e.is_file()}


def _run_passes(names, configs, cache_dir: str, run_scenario) -> list[dict]:
    """Run each pass, recording its time, any exception and its cache writes."""
    passes = []
    for name, config in zip(names, configs):
        before = _cache_state(cache_dir)
        error = None
        start = time.perf_counter()
        try:
            run_scenario(config)
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        after = _cache_state(cache_dir)
        passes.append(
            {
                "name": name,
                "seconds": seconds,
                "error": error,
                "cache_writes": sum(1 for f, m in after.items() if before.get(f) != m),
                "cache_files": len(after),
            }
        )
    return passes


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np

    import manetopt

    package_dir = os.path.join(job["src"], "manetopt")
    if os.path.dirname(os.path.abspath(manetopt.__file__)) != package_dir:
        raise SystemExit(f"manetopt imported from {manetopt.__file__}, not {package_dir}")

    tracer = None
    if job["traced"]:
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.install(manetopt)
    from manetopt.experiments import ExperimentConfig, run_scenario

    cache_dir = os.path.join(job["dir"], "cache")
    configs = [
        ExperimentConfig.from_dict(
            dict(job["config"], out_dir=os.path.join(job["dir"], name), cache_dir=cache_dir)
        )
        for name in job["passes"]
    ]
    setup_s = time.time() - job["launch"]

    passes = [] if job["probe"] else _run_passes(job["passes"], configs, cache_dir, run_scenario)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "manetopt": manetopt.__version__,
        },
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summarize()
        tracer.write_spans(job["spans"])
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])


if __name__ == "__main__":
    main(sys.argv[1])

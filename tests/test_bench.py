"""Schema of ``scripts/bench.py``'s output at tiny scale; timings are not checked."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = {
    "step", "rate_pass", "gradient_pass", "project_with_tangent", "project_adjoint",
    "loss", "loss_grad", "loss_grad_noisy", "calibrate", "infer", "train", "train_pair",
}
ENVIRONMENT = {
    "git_sha", "source_sha256", "python", "numpy", "blas", "manetopt",
    "blas_threads", "nproc", "cpus_usable", "machine",
}


def test_bench_writes_its_schema(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--tiny", "--repeats", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    doc = json.loads(path.read_text())
    assert set(doc) == {"environment", "tiny", "records"}
    assert doc["tiny"] is True
    env = doc["environment"]
    assert set(env) == ENVIRONMENT
    assert path.name in (
        f"BENCH_{(env['git_sha'] or '')[:12]}.json",
        f"BENCH_src-{env['source_sha256'][:12]}.json",
    )
    seen = set()
    for record in doc["records"]:
        assert record["best_s"] >= 0.0
        assert record["repeats"] == 1
        per = record["us_per_element"]
        assert per is None or per >= 0.0
        seen.add((record["name"], record["network"]))
        if record["name"] in ("fixed_baseline", "sweep_infer", "grid"):
            assert record["peak_traced_mb"] >= 0.0
    networks = {"1x2x2", "1x3x3", "1x4x4"}
    assert seen == {(s, n) for s in STAGES for n in networks} | {
        ("grid", "1x2x2"), ("grid", "1x3x2"), ("fixed_baseline", "1x4x4"),
        ("sweep_infer", "1x4x4"),
    }


CODE_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line
def f(x):
    """Docstring."""
    return (x +
            1)


class C:
    "one-line docstring"
    y = """an assigned string
is code"""
'''


def test_code_lines_counts_a_known_sample(tmp_path):
    # Counted: import, def, both lines of the return, class, both lines of y.
    path = tmp_path / "sample.py"
    path.write_text(CODE_SAMPLE)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == ["7", "total"]

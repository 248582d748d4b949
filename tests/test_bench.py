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
    networks = {"1x2x2", "1x3x3", "1x4x4"}
    assert seen == {(s, n) for s in STAGES for n in networks} | {
        ("grid", "1x2x2"), ("fixed_baseline", "1x4x4"), ("sweep_infer", "1x4x4")
    }

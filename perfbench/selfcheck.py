"""Quick check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs the oracle self-tests, then every workload of ``workloads.py``
(those of ``BENCHMARK.json`` and ``joint_ev``, which the benchmark
leaves out) once at a tiny size in both modes, and asserts that each run exits 0,
reports a correct result and reports every metric that
``BENCHMARK.json`` names for that mode, with its unit. It takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1"]
    argv += ["--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    subprocess.run([sys.executable, str(HERE / "oracle.py")], check=True, timeout=120)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run_once(name, trace)
            assert out["correct"] is True, (name, trace, out)
            assert isinstance(out["attempted"], int) and out["attempted"] >= 1, out
            assert isinstance(out["failed"], int), out
            for metric in bench[section]:
                got = out["metrics"].get(metric["name"])
                assert got is not None, f"{name} --trace {trace}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], (name, metric, got)
                assert isinstance(got["value"], (int, float)), (name, metric, got)
            print(f"{name} --trace {trace}: {len(out['metrics'])} metrics, {out['attempted']} fits")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

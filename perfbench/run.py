"""Run one troikit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-troi --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures an untraced and a traced
phase of ``--seconds / 2`` each and reports the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record, with
the environment and the input digest, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train-troi", "train-plain", "eval-corrupt")
# One BLAS thread: steadier than two on a shared 2-core machine, and the
# same on every run.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned": PINNED_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "troikit" / "__init__.py").is_file():
        print(f"troikit sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    units = declared_units(bool(args.trace))
    os.environ.update(PINNED_THREADS)  # before numpy loads OpenBLAS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT / f"spans-{stem}.json")
    except workloads.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record["environment"] = environment()
    detail = record["metrics"].pop("_detail")
    record["detail"] = detail
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} inputs_sha256={record['inputs_sha256']}")
    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "pinned") + f" pinned={','.join(f'{k}={v}' for k, v in env['pinned'].items())}")
    print(" ".join(f"{k}={v}" for k, v in detail.items()))
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_ratio = {failed / attempted if attempted else 0.0} ({failed}/{attempted} operations)")
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        print(f"benchmark error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": record["metrics"][name], "unit": unit}
        print(f"{name} = {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record ``reference.json``: what one round of every workload produces at the
default seed, for the correctness gate to compare later runs against.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter the program's results, and say
so in the change.  The comparison tolerances live in ``checks.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import worker  # noqa: E402


def main() -> int:
    cli = worker.import_program()
    from checks import (ABS_TOL, CONVERGENCE_TIME_TOL, DEFAULT_SEED, ITERATION_TOL,
                        REFERENCE_PATH, REL_TOL, check_op)
    from workloads import WORKLOADS, round_ops

    doc = {
        "seed": DEFAULT_SEED,
        "tolerance": {"rel": REL_TOL, "abs": ABS_TOL, "iterations_rel": ITERATION_TOL,
                      "convergence_time_s": CONVERGENCE_TIME_TOL},
        "workloads": {},
    }
    workdir = worker.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            entries = []
            for k, op in enumerate(round_ops(workload, DEFAULT_SEED)):
                scenario, outdir = workdir / f"{workload}{k}.yaml", workdir / f"{workload}{k}"
                op.write(scenario)
                result = worker.run_op(cli.main, op, scenario, outdir)
                facts, problems = check_op(op, result, outdir)
                if result["error"] or problems:
                    print(f"{workload} {op.name}: {result['error'] or problems}", file=sys.stderr)
                    return 1
                entries.append({"name": op.name, **facts})
                print(f"{workload} {op.name}: {json.dumps(facts)[:120]}")
            doc["workloads"][workload] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Correctness checks on the files one op leaves behind.

Two kinds of check, both counted against the op:

* properties the paper guarantees, for any seed: the designed gain matrix
  has exactly four zero eigenvalues (with the formation in its kernel) and
  the rest negative; ``simulate`` exits 0 or 3 and its verdict matches the
  logged subspace error; the minimum distance stays at least ``r`` when
  avoidance is on; the CSV reads back with the expected header and row
  count; the SVG is complete.
* for the default seed, agreement with reference results recorded from the
  program (``reference.json``) within the tolerances below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Tolerances for the reference comparison, fixed before any reference was
# recorded.  Floats: |got - want| <= ABS_TOL + REL_TOL * |want|.  ADMM
# iteration counts may move by a few iterations when a different BLAS
# rounds differently; convergence times by a few steps of dt = 0.01.
REL_TOL = 1e-6
ABS_TOL = 1e-9
ITERATION_TOL = 0.01
CONVERGENCE_TIME_TOL = 0.05

# The simulator declares convergence once the subspace error has stayed
# below the threshold for this long (seconds).
CONVERGENCE_SUSTAIN = 1.0


def gain_matrix(n: int, edges) -> np.ndarray:
    """Assemble the 2n x 2n block-Laplacian from ``[i, j, a, b]`` rows."""
    A = np.zeros((2 * n, 2 * n))
    for i, j, a, b in edges:
        blk = np.array([[a, b], [-b, a]])
        si, sj = 2 * (int(i) - 1), 2 * (int(j) - 1)
        A[si:si + 2, sj:sj + 2] += blk
        A[sj:sj + 2, si:si + 2] += blk.T
        A[si:si + 2, si:si + 2] -= blk
        A[sj:sj + 2, sj:sj + 2] -= blk.T
    return A


def check_gains(op, path: Path) -> tuple[dict, list[str]]:
    problems = []
    doc = json.loads(path.read_text(encoding="utf-8"))
    if len(doc["matrices"]) != len(op.doc["graphs"]):
        problems.append(f"{len(doc['matrices'])} gain matrices for "
                        f"{len(op.doc['graphs'])} graphs")
    q = np.asarray(op.doc["formation"]["coordinates"], dtype=np.float64).reshape(-1)
    for k, entry in enumerate(doc["matrices"]):
        A = gain_matrix(doc["n"], entry["edges"])
        eig = np.linalg.eigvalsh(A)
        tol = 1e-6 * float(np.max(np.abs(eig)))
        zeros = int(np.sum(np.abs(eig) <= tol))
        if zeros != 4 or np.any(eig[np.abs(eig) > tol] >= -tol):
            problems.append(f"matrix {k}: {zeros} zero eigenvalues, "
                            f"largest nonzero {eig[np.abs(eig) > tol].max():.3g}")
        if np.linalg.norm(A @ q) > tol * np.linalg.norm(q):
            problems.append(f"matrix {k}: formation not in the kernel")
        if not entry["spectrum"]["passed"]:
            problems.append(f"matrix {k}: gains file reports a failed spectrum check")
    solver = doc["solver"]
    if not solver["converged"]:
        problems.append("gains file reports an unconverged solver")
    return {"gamma": solver["gamma"], "iterations": solver["iterations"]}, problems


def convergence_time(t, err, threshold: float) -> float | None:
    """Start of the first stretch below ``threshold`` lasting the sustain time."""
    since = None
    for tk, ek in zip(t, err):
        if ek < threshold:
            if since is None:
                since = tk
            if tk - since >= CONVERGENCE_SUSTAIN:
                return since
        else:
            since = None
    return None


def check_trajectory(op, sim_code: int, csv: Path, svg: Path) -> tuple[dict, list[str]]:
    problems = []
    with open(csv, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.read().splitlines()
    if header != op.csv_header():
        problems.append(f"CSV header has {len(header)} columns, expected "
                        f"{len(op.csv_header())} in the documented order")
        return {}, problems
    if len(lines) != op.steps:
        problems.append(f"CSV has {len(lines)} rows, expected {op.steps}")
    t = [float(line.split(",", 1)[0]) for line in lines]
    tail = [line.rsplit(",", 3)[1:] for line in lines]
    err = [float(e) for e, _, _ in tail]
    dist = min(float(d) for _, _, d in tail)
    last = [float(v) for v in lines[-1].split(",")]
    xs = [header.index(f"x_{i}") for i in range(1, op.n + 1)]
    positions = [[last[c], last[c + 1]] for c in xs]
    t_conv = convergence_time(t, err, op.doc["sim"]["convergence_threshold"])
    if sim_code not in (0, 3):
        problems.append(f"simulate exited with {sim_code}")
    elif (sim_code == 0) != (t_conv is not None):
        problems.append(f"exit code {sim_code} contradicts the logged subspace error")
    if op.min_distance is not None and dist < op.min_distance:
        problems.append(f"minimum distance {dist:.6g} below r = {op.min_distance}")
    text = svg.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        problems.append("SVG file is incomplete")
    facts = {
        "converged": t_conv is not None,
        "convergence_time": t_conv,
        "final_subspace_error": err[-1],
        "min_distance": dist,
        "final_positions": positions,
    }
    return facts, problems


def check_op(op, result: dict, outdir: Path) -> tuple[dict, list[str]]:
    """Facts recorded from one op's outputs, and every problem found."""
    facts = {"design_code": result["design_code"], "simulate_code": result["simulate_code"]}
    if result["design_code"] != 0:
        return facts, [f"design exited with {result['design_code']}"]
    got, problems = check_gains(op, outdir / "gains.json")
    facts.update(got)
    if op.simulate:
        got, more = check_trajectory(op, result["simulate_code"],
                                     outdir / "out.csv", outdir / "out.svg")
        facts.update(got)
        problems += more
    return facts, problems


def _close(got, want, rel=REL_TOL, abs_tol=ABS_TOL) -> bool:
    return abs(got - want) <= abs_tol + rel * abs(want)


def compare_reference(facts: dict, want: dict) -> list[str]:
    """Differences between an op's facts and its recorded reference."""
    problems = []
    for key in ("design_code", "simulate_code", "converged"):
        if facts.get(key) != want.get(key):
            problems.append(f"{key} {facts.get(key)!r} != reference {want.get(key)!r}")
    if "iterations" in want:
        allowed = max(2, math.ceil(ITERATION_TOL * want["iterations"]))
        if abs(facts["iterations"] - want["iterations"]) > allowed:
            problems.append(f"iterations {facts['iterations']} != reference "
                            f"{want['iterations']} (+-{allowed})")
    for key in ("gamma", "final_subspace_error", "min_distance"):
        if key in want and not _close(facts[key], want[key]):
            problems.append(f"{key} {facts[key]!r} != reference {want[key]!r}")
    if want.get("convergence_time") is not None and facts.get("convergence_time") is not None:
        if abs(facts["convergence_time"] - want["convergence_time"]) > CONVERGENCE_TIME_TOL:
            problems.append(f"convergence_time {facts['convergence_time']} != "
                            f"reference {want['convergence_time']}")
    if "final_positions" in want:
        got = np.asarray(facts["final_positions"])
        ref = np.asarray(want["final_positions"])
        if got.shape != ref.shape or np.any(np.abs(got - ref) > ABS_TOL + REL_TOL * np.abs(ref)):
            problems.append("final positions differ from the reference")
    return problems


def load_reference(workload: str) -> list[dict] | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"].get(workload)

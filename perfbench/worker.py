"""One workload in a fresh process: set up, run its ops, check every output.

Run by ``run.py``; prints one JSON object as its last line.  ``setup_s`` is
timed from the first statement of this file, so it covers importing
bcbform (with numpy, scipy and PyYAML) and writing the workload's scenario
files.  Every op drives the user-facing entry point ``bcbform.cli.main``
in-process: ``design``, then ``simulate --svg`` for simulation workloads.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench_out"
OUTPUTS = ("gains.json", "out.csv", "out.svg")


def import_program():
    """Import bcbform from this checkout's ``src``, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import bcbform.cli

    if src not in Path(bcbform.cli.__file__).resolve().parents:
        raise ImportError(f"bcbform was imported from {bcbform.cli.__file__}, not {src}")
    return bcbform.cli


def run_op(main, op, scenario: Path, outdir: Path, root_call=None) -> dict:
    """Run one op through ``main``; time it and capture everything it prints."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name in OUTPUTS:  # so that a failed command cannot leave old files behind
        (outdir / name).unlink(missing_ok=True)
    call = main if root_call is None else (lambda argv: root_call(main, argv))
    sink = io.StringIO()
    result = {"design_code": None, "simulate_code": None, "error": None}
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            result["design_code"] = call(
                ["design", str(scenario), "-o", str(outdir / "gains.json"), "--quiet",
                 *op.design_args])
            t1 = time.perf_counter()
            if op.simulate and result["design_code"] == 0:
                result["simulate_code"] = call(
                    ["simulate", str(scenario), str(outdir / "gains.json"),
                     "-o", str(outdir / "out.csv"), "--svg", str(outdir / "out.svg"),
                     "--quiet"])
        except Exception:
            result["error"] = traceback.format_exc()
            t1 = time.perf_counter()
        t2 = time.perf_counter()
    result.update(op_s=t2 - t0, simulate_s=t2 - t1, messages=sink.getvalue())
    return result


def digest(result: dict, outdir: Path) -> tuple:
    """Exit codes and a hash of every output file, to compare runs bitwise."""
    h = hashlib.sha256()
    for name in OUTPUTS:
        path = outdir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return result["design_code"], result["simulate_code"], h.hexdigest()


class OpLog:
    """Checks each op's outputs and keeps what run.py needs to summarise."""

    def __init__(self, workload: str, seed: int, ops):
        from checks import DEFAULT_SEED, load_reference

        self.ops = ops
        self.reference = load_reference(workload) if seed == DEFAULT_SEED else None
        self.digests: dict[int, tuple] = {}
        self.first_problems: dict[int, list[str]] = {}
        self.records: list[dict] = []

    def add(self, k: int, result: dict, outdir: Path, twin: dict | None = None) -> None:
        """Record op ``k``; ``twin`` is the traced run of the same inputs."""
        from checks import check_op, compare_reference

        op = self.ops[k]
        problems = []
        if result["error"]:
            problems.append(result["error"])
        else:
            got = digest(result, outdir)
            if k not in self.digests:
                # First run of these inputs: check the outputs in full.
                facts, problems = check_op(op, result, outdir)
                if self.reference is not None:
                    want = self.reference[k] if k < len(self.reference) else {}
                    if want.get("name") != op.name:
                        problems.append("no reference result recorded for this op")
                    else:
                        problems += compare_reference(facts, want)
                self.digests[k], self.first_problems[k] = got, list(problems)
            elif got != self.digests[k]:
                problems.append("outputs differ from an earlier run of the same inputs")
            else:
                problems = list(self.first_problems[k])
            if twin is not None:
                if twin["error"]:
                    problems.append(twin["error"])
                elif digest(twin, outdir.parent / "traced") != got:
                    problems.append("traced outputs differ from untraced outputs")
        if problems and result["messages"]:
            problems.append(result["messages"])
        self.records.append({
            "name": op.name,
            "op_s": result["op_s"],
            "simulate_s": result["simulate_s"] if op.simulate else None,
            "agent_steps": op.n * op.steps if op.simulate else 0,
            "traced_op_s": twin["op_s"] if twin is not None else None,
            "problems": problems,
        })


def run_workload(cli, ops, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, span_file: Path | None = None) -> dict:
    """Repeat the round of ``ops`` until ``seconds`` have passed.

    Runs end on a round boundary, so every kind of op is equally represented
    in the timings and every per-op count of a traced run is exact.
    """
    from tracer import Tracer

    log = OpLog(workload, seed, ops)
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    count = 0
    while count % len(ops) or count == 0 or time.perf_counter() - start < seconds:
        k, rnd = count % len(ops), count // len(ops)
        scenario = workdir / f"op{k}.yaml"
        plain = workdir / f"op{k}" / "plain"
        count += 1
        if tracer is None:
            log.add(k, run_op(cli.main, ops[k], scenario, plain), plain)
            continue
        traced_dir = workdir / f"op{k}" / "traced"
        # Alternate which side goes first, so that drift cancels in the overhead.
        order = ("plain", "traced") if rnd % 2 == 0 else ("traced", "plain")
        pair = {}
        for side in order:
            if side == "plain":
                pair[side] = run_op(cli.main, ops[k], scenario, plain)
                continue
            tracer.install()
            try:
                pair[side] = run_op(cli.main, ops[k], scenario, traced_dir,
                                    root_call=tracer.call_root)
            finally:
                tracer.uninstall()
        log.add(k, pair["plain"], plain, twin=pair["traced"])
    out = {"rounds": count // len(ops), "ops": log.records}
    if tracer is not None:
        out["trace"] = tracer.summary(count)
        if span_file is not None:
            span_file.parent.mkdir(exist_ok=True)
            tracer.save(span_file)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)

    cli = import_program()
    from workloads import round_ops

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = round_ops(args.workload, args.seed)
        for k, op in enumerate(ops):
            op.write(workdir / f"op{k}.yaml")
        out = {"setup_s": time.perf_counter() - T0}
        if not args.setup_only:
            import numpy
            import scipy

            out.update(run_workload(cli, ops, args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir,
                                    SPAN_DIR / f"{args.workload}.spans.npz"))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["versions"] = {"python": sys.version.split()[0],
                               "numpy": numpy.__version__, "scipy": scipy.__version__}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

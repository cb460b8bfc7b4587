"""Fixed-budget benchmark of tvtv's refinement solver and pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-64 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when an operation fails or tvtv cannot be imported.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is repeated at least this often and for at least this long, and
# the median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
# A run stops starting operations after this long even if it has not yet
# covered every instance, so it still exits well within three minutes.
MAX_LOOP_S = 110.0
ARITHMETIC_TOL = 0.01


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_count_online() -> int | None:
    text = read_text(Path("/sys/devices/system/cpu/online"))
    if not text:
        return None
    count = 0
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        count += int(hi or lo) - int(lo) + 1
    return count


def l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read_text(index / "level") == "3":
            return read_text(index / "size")
    return None


def git_commit() -> str:
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = read_text(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_metadata(w, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is optional
        blas_version = "unknown"
    return {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
        "trace": trace,
        "budget_iters": w.budget, "instances": w.instances,
        "shape": [w.bands, w.rows, w.rows], "block": w.block,
        "channels": w.channels, "files": w.files,
        "nproc": cpu_count_online(), "l3": l3_size(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": 1, "git_commit": git_commit(),
    }


@contextmanager
def op_dir(workdir: Path | None):
    """A new directory for one operation's files, removed afterwards.

    Each operation writes new files, as one ``tvtv pipeline --outdir`` run
    does: ext4 flushes a truncated and rewritten file to disk on close, which
    would time the disk instead of tvtv.
    """
    if workdir is None:
        yield None
        return
    path = Path(tempfile.mkdtemp(dir=workdir))
    try:
        yield path
    finally:
        shutil.rmtree(path)


class Session:
    """Runs operations on a workload's instances and applies the failure
    rule to each one."""

    def __init__(self, h, w, instances, workdir):
        self.h, self.w, self.instances, self.workdir = h, w, instances, workdir
        self.attempted = 0
        self.failed = 0
        self.references = {}    # instance seed -> first x̂ data
        self.quality = {}       # instance seed -> (objective gain %, PSNR gain dB)
        self.first = None       # first OpResult of instance 0
        self.solve_s: list[float] = []
        self.pipeline_s: list[float] = []
        self.iterations: list[int] = []
        self.beta = h.solver_config(w, w.budget).beta

    def check(self, inst, res, label, bit_identical=True) -> bool:
        h = self.h
        residual = h.feasibility_residual(res.xhat, res.low_res, res.guide,
                                          self.w.block, res.response)
        limit = h.feasibility_limit(self.w, res.low_res, res.guide, res.response)
        reference = self.references.get(inst.seed) if bit_identical else None
        reasons = h.failures(res.xhat, res.report, self.w.budget, residual,
                             limit, reference)
        self.attempted += 1
        for reason in reasons:
            print(f"FAIL {label} seed={inst.seed}: {reason}", file=sys.stderr)
        self.failed += bool(reasons)
        return not reasons

    def operation(self, i: int, tracer=None):
        """Run, time and check operation ``i``; None when it raised."""
        inst = self.instances[i % len(self.instances)]
        try:
            with op_dir(self.workdir) as d:
                if tracer is None:
                    res = self.h.run_operation(self.w, inst, d)
                else:
                    with tracer.operation(i):
                        res = self.h.run_operation(self.w, inst, d)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        self.check(inst, res, f"operation {i}")
        self.iterations.append(res.report.iterations)
        if inst.seed not in self.references:
            self.references[inst.seed] = res.xhat.data
            if inst is self.instances[0]:
                self.first = res
            projected = self.h.project_base(res, self.w.block)
            gain = self.h.objective_gain_pct(res.xhat, projected, res.base,
                                             self.beta)
            self.quality[inst.seed] = (gain, res.psnr_gain_db)
        if tracer is None:
            self.solve_s.append(res.solve_s)
            self.pipeline_s.append(res.pipeline_s)
        return res

    def extra_solve(self, inst, res, label, bit_identical=True, **kwargs):
        """Solve the inputs of ``res`` again; returns the wall time."""
        config = self.h.solver_config(self.w, self.w.budget)
        try:
            t = time.perf_counter()
            xhat, report = self.h.tv.solve_tvtv(res.base, res.low_res, res.guide,
                                                res.response, config, **kwargs)
            elapsed = time.perf_counter() - t
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        again = dataclasses.replace(res, xhat=xhat, report=report,
                                    solve_s=elapsed, pipeline_s=elapsed)
        self.check(inst, again, label, bit_identical)
        return elapsed


def set_up(h, w, seed, workdir):
    """Generate the run's inputs and warm up every stage once."""
    instances = h.make_instances(w, seed)
    with op_dir(workdir) as d:
        h.run_operation(w, instances[0], d, budget=1)
    return instances


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(h, w, seed, seconds, workdir):
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t = time.perf_counter()
        instances = set_up(h, w, seed, workdir)
        setup_s.append(time.perf_counter() - t)

    session = Session(h, w, instances, workdir)
    start = time.perf_counter()
    i = 0
    # Cover every instance once and re-solve at least one, so the quality
    # read-outs and the bit-identical check do not depend on machine speed.
    while i <= len(instances) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= MAX_LOOP_S:
            break
        session.operation(i)
        i += 1

    peak_mb = float("nan")
    if session.first is not None:
        tracemalloc.start()
        try:
            session.extra_solve(instances[0], session.first, "tracemalloc solve")
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    gains = list(session.quality.values())
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "solve_s": metric(statistics.median(session.solve_s or [float("nan")]), "s"),
        "pipeline_s": metric(statistics.median(session.pipeline_s or [float("nan")]), "s"),
        "solve_peak_mb": metric(peak_mb, "MB"),
        "objective_gain_pct": metric(
            statistics.fmean(g[0] for g in gains) if gains else float("nan"), "%"),
        "psnr_gain_db": metric(
            statistics.fmean(g[1] for g in gains) if gains else float("nan"), "dB"),
    }
    samples = {"setup": len(setup_s), "operations": len(session.pipeline_s),
               "instances_scored": len(gains)}
    spread = {name: quartiles(values) for name, values in
              (("setup_s", setup_s), ("solve_s", session.solve_s),
               ("pipeline_s", session.pipeline_s))}
    return session, metrics, {"samples": samples, "quartiles": spread}, True


def quartiles(values):
    if len(values) < 2:
        return None
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


def traced_run(h, tracing, w, seed, seconds, workdir):
    tracer = tracing.Tracer()
    try:
        wrap_tvtv(tracer)
        with tracer.operation("setup", name="setup"):
            instances = set_up(h, w, seed, workdir)
    finally:
        tracer.restore()

    session = Session(h, w, instances, workdir)
    accepts_workers = "workers" in inspect.signature(h.tv.solve_tvtv).parameters
    traced_ops, reports, w2_s = [], [], []
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= MAX_LOOP_S:
            break
        res = session.operation(i)
        try:
            wrap_tvtv(tracer)
            traced = session.operation(i, tracer)
        finally:
            tracer.restore()
        if traced is not None:
            traced_ops.append(i)
            reports.append(traced.report)
        if res is not None and accepts_workers:
            # Threads reorder no arithmetic, but only serial runs are held
            # to the bit-identical rule.
            inst = instances[i % len(instances)]
            elapsed = session.extra_solve(inst, res, "workers=2 solve",
                                          bit_identical=False, workers=2)
            if elapsed is not None:
                w2_s.append(elapsed)
        i += 1

    summaries = tracing.summarize(tracer.spans, traced_ops + ["setup"])
    setup = summaries.pop("setup")
    errors = [tracing.arithmetic_error(s) for s in summaries.values()]
    arithmetic_ok = bool(errors) and max(errors) <= ARITHMETIC_TOL

    def per_op(fn):
        values = [fn(s) for s in summaries.values()]
        return statistics.median(values) if values else float("nan")

    solve_s = statistics.median(session.solve_s or [float("nan")])
    traced_solve_s = per_op(lambda s: s.span_s["solver.solve"])
    speedup = solve_s / statistics.median(w2_s) if w2_s else 1.0
    iterations = statistics.median(r.iterations for r in reports) if reports else 0
    io_names = ("io.write_hsc", "io.read_hsc", "io.write_csr", "io.read_csr")

    def ratio(num, den):
        return num / den if den else 0.0

    def counts(name):
        return metric(per_op(lambda s: s.calls.get(name, 0)), "count")

    def own(name, unit="s"):
        return metric(per_op(lambda s: s.self_s.get(name, 0.0)), unit)

    metrics = {
        "prox.u_update.calls": counts("prox.u_update"),
        "prox.u_update.s": own("prox.u_update"),
        "prox.ns_per_elem": metric(per_op(lambda s: 1e9 * ratio(
            s.self_s.get("prox.u_update", 0.0), s.size.get("prox.u_update", 0.0))), "ns"),
        "operators.tv_apply.calls": counts("operators.tv_apply"),
        "operators.tv_apply.s": own("operators.tv_apply"),
        "operators.tv_adjoint.calls": counts("operators.tv_adjoint"),
        "operators.tv_adjoint.s": own("operators.tv_adjoint"),
        "operators.block_avg.s": own("operators.block_avg"),
        "operators.csr.s": own("operators.csr"),
        "projection.project_joint.calls": counts("projection.project_joint"),
        "projection.project_joint.s": own("projection.project_joint"),
        "projection.sweeps_per_call": metric(per_op(lambda s: ratio(
            s.calls.get("projection.project_spectral", 0),
            s.calls.get("projection.project_joint", 0))), "ratio"),
        "projection.consistency_residual.calls": counts("projection.consistency_residual"),
        "solver.iterations": metric(iterations, "count"),
        "solver.iter_ms": metric(1e3 * ratio(solve_s, iterations), "ms"),
        "solver.v_update.s": own("solver.v_update"),
        "solver.dual_update.s": own("solver.dual_update"),
        "solver.residuals.s": own("solver.residuals"),
        "solver.self_s": own("solver.solve"),
        "solver.stage_cover": metric(per_op(lambda s: 1.0 - ratio(
            s.self_s["solver.solve"], s.span_s["solver.solve"])), "ratio"),
        "solver.state_mb": metric(h.state_mb(w), "MB"),
        "solver.workers2_speedup": metric(speedup, "ratio"),
        "core.hscube.constructions": counts("core.hscube"),
        "core.hscube.s": own("core.hscube"),
        "core.hscube.mb_scanned": metric(
            per_op(lambda s: s.size.get("core.hscube", 0.0) / 1e6), "MB"),
        "baseline.naive_fuse.s": own("baseline.naive_fuse"),
        "metrics.evaluate.s": own("metrics.evaluate"),
        "metrics.ssim.s": own("metrics.ssim"),
        "io.write_hsc.s": own("io.write_hsc"),
        "io.read_hsc.s": own("io.read_hsc"),
        "io.mb": metric(per_op(lambda s: sum(
            s.size.get(n, 0.0) for n in io_names) / 1e6), "MB"),
        "synthetic.s": metric(setup.self_s.get("synthetic.cube", 0.0)
                              + setup.self_s.get("synthetic.response", 0.0), "s"),
        "trace_overhead_pct": metric(
            100.0 * ratio(traced_solve_s - solve_s, solve_s), "%"),
    }
    extra = {"samples": {"untraced_operations": len(session.solve_s),
                         "traced_operations": len(summaries),
                         "workers2_solves": len(w2_s)},
             "self_time_sum_max_error_pct": 100.0 * max(errors, default=float("nan")),
             "accepts_workers": accepts_workers}
    if not arithmetic_ok:
        print("FAIL traced self times do not add up to their operation span",
              file=sys.stderr)
    return session, metrics, extra, arithmetic_ok


def wrap_tvtv(tracer):
    """Wrap tvtv's callables under the names their callers look up."""
    import tvtv.cli
    import tvtv.metrics
    import tvtv.projection
    import tvtv.solver
    from tvtv.core import HsCube

    def elements(args, result):
        return args[0].size

    def cube_bytes(args, result):
        return args[0].data.nbytes

    def written(args, result):
        return os.path.getsize(args[1])

    def read(args, result):
        return os.path.getsize(args[0])

    plan = [
        (tvtv.solver, "u_update", "prox.u_update", elements),
        (tvtv.solver, "tv_apply", "operators.tv_apply", None),
        (tvtv.solver, "tv_adjoint", "operators.tv_adjoint", None),
        (tvtv.solver, "v_update", "solver.v_update", None),
        (tvtv.solver, "dual_update", "solver.dual_update", None),
        (tvtv.solver, "residuals", "solver.residuals", None),
        (tvtv.solver, "project_joint", "projection.project_joint", None),
        (tvtv.solver, "consistency_residual", "projection.consistency_residual", None),
        (tvtv.solver, "block_avg_apply", "operators.block_avg", None),
        (tvtv.solver, "csr_apply", "operators.csr", None),
        (tvtv.projection, "project_spectral", "projection.project_spectral", None),
        (tvtv.projection, "project_spatial", "projection.project_spatial", None),
        (tvtv.projection, "consistency_residual", "projection.consistency_residual", None),
        (tvtv.projection, "block_avg_apply", "operators.block_avg", None),
        (tvtv.projection, "block_avg_adjoint", "operators.block_avg", None),
        (tvtv.projection, "csr_apply", "operators.csr", None),
        (tvtv.projection, "csr_adjoint", "operators.csr", None),
        (tvtv.cli, "solve_tvtv", "solver.solve", None),
        (tvtv.cli, "block_avg_apply", "operators.block_avg", None),
        (tvtv.cli, "csr_apply", "operators.csr", None),
        (tvtv.cli, "naive_fuse", "baseline.naive_fuse", None),
        (tvtv.cli, "add_noise", "synthetic.add_noise", None),
        (tvtv.cli, "evaluate", "metrics.evaluate", None),
        (tvtv.cli, "write_hsc", "io.write_hsc", written),
        (tvtv.cli, "read_hsc", "io.read_hsc", read),
        (tvtv.cli, "write_csr", "io.write_csr", written),
        (tvtv.cli, "read_csr", "io.read_csr", read),
        (tvtv.cli, "synthetic_cube", "synthetic.cube", None),
        (tvtv.cli, "synthetic_response", "synthetic.response", None),
        (tvtv.metrics, "ssim", "metrics.ssim", None),
        (HsCube, "__post_init__", "core.hscube", cube_bytes),
    ]
    for owner, attr, name, size in plan:
        tracer.wrap(owner, attr, name, size)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One caller, one worker, one BLAS thread: the load stays within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import tvtv
    except ImportError as exc:
        print(f"perfbench: cannot import tvtv from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(tvtv.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported tvtv from {tvtv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness as h
    import tracing

    w = h.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(h.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = None
    if w.files:
        workdir = ROOT / ".perfbench_tmp" / f"{w.name}-{os.getpid()}"
        workdir.mkdir(parents=True)
    try:
        if args.trace:
            session, metrics, extra, ok = traced_run(
                h, tracing, w, args.seed, args.seconds, workdir)
        else:
            session, metrics, extra, ok = timed_run(
                h, w, args.seed, args.seconds, workdir)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass    # another run still uses it

    meta = run_metadata(w, args.seed, args.seconds, args.trace)
    meta.update(extra)
    meta["iterations_seen"] = sorted(set(session.iterations))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed {session.failed} of {session.attempted} attempted")
    print(json.dumps({"meta": meta}))
    correct = ok and session.failed == 0 and all(
        m["value"] == m["value"] for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

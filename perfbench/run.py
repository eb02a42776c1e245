"""seqrep benchmark: one workload per process, timed end to end, traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embed-train --seed 7 --seconds 20 --trace 0

After one untimed warm-up of each, the run sets up the workload at least
three times (``setup_s`` is the median), then repeats the timed pass until
``--seconds`` have passed (``wall_s`` is the median), verifies every
pass's outputs and prints a report followed by one JSON line. With
``--trace 1`` it adds one traced set-up and pass plus kernel
micro-benchmarks and reports the per-layer metrics instead. Metric names
and units come from BENCHMARK.json. The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20240511
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0  # a cheap set-up repeats until this much time is spent
MIN_PASSES = 2


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP pools at this process's CPU count; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if not sha and line.endswith(" " + ref):
            sha = line.split()[0]
    return sha or "unknown"


def _openblas() -> tuple[str, str]:
    """(OpenBLAS config string, threads in effect) from the library numpy loaded."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), str(get_threads())
    return "not found", "unknown"


def environment(nproc: int) -> dict[str, str]:
    import numpy as np
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), "unknown")
    l3 = _read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")).strip()
    blas, threads = _openblas()
    return {"nproc": str(nproc), "cpu": cpu, "l3": l3 or "unknown",
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas, "blas_threads": threads,
            "git": _git_sha()}


def _setup_loop(name, run, work: Path, gate):
    """Untimed warm-up set-up, then timed ones; returns times, digest and a fixture."""
    import workloads

    times, digests = [], []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < 25):
        d = work / f"setup{len(digests)}"
        t0 = time.perf_counter()
        fx = workloads.setup(name, run, d)
        if digests:
            times.append(time.perf_counter() - t0)
        digests.append(workloads.tree_digest(d))
        shutil.rmtree(d)
    gate.check(len(set(digests)) == 1, "set-up output differs between repeats")
    return times, digests[0], fx


def _pass_loop(name, run, fx, work: Path, seconds: float, gate):
    """Untimed warm-up pass, then timed ones until ``seconds`` have passed.

    Returns the pass times, the verified outputs of the timed passes and the
    last raw result.
    """
    import workloads
    from spans import NullRecorder

    wl = workloads.WORKLOADS[name]
    walls, verified, result = [], [], None
    start = None
    while start is None or len(walls) < MIN_PASSES or (
            time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds):
        out = work / f"pass{len(verified)}"
        out.mkdir()
        t0 = time.perf_counter()
        result = wl.run(run, fx, out, NullRecorder())
        if start is None:
            start = time.perf_counter()
        else:
            walls.append(time.perf_counter() - t0)
        verified.append(wl.verify(run, fx, result, out, gate))
        shutil.rmtree(out)
    gate.check(len({v.digest for v in verified}) == 1, "pass outputs differ between repeats")
    return walls, verified[1:], result


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, out_lines):
    import seqrep as sr
    import workloads

    run = sr.reference_run_config(seed)
    wl = workloads.WORKLOADS[name]
    gate = workloads.Gate()

    # The first set-up and the first pass only warm the process up (allocator
    # thresholds, page cache, lazy imports); on this code the first of
    # several passes ran up to 15 % slower than the rest.
    setup_times, setup_digest, fx = _setup_loop(name, run, work, gate)
    walls, verified, result = _pass_loop(name, run, fx, work, seconds, gate)
    workloads.audit_solver(seed, gate)
    quality = wl.quality(run, fx, result)
    digest = workloads.Digest().add(verified[-1].digest, sorted(quality.items())).hexdigest()

    wall = statistics.median(walls)
    rate = statistics.median(v.items / (v.phases.get("align_s") or w)
                             for v, w in zip(verified, walls))
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": rate,
    }
    phases = {k: statistics.median(v.phases[k] for v in verified)
              for k in verified[-1].phases}

    out_lines.append(f"setup_s {values['setup_s']:.4f} s  (median of "
                     + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
    out_lines.append(f"wall_s {wall:.4f} s  (median of {len(walls)} passes: "
                     + ", ".join(f"{t:.4f}" for t in walls) + ")")
    out_lines.append(f"items_per_s {rate:.1f} 1/s  ({wl.unit} per second"
                     + (" of the align phase" if phases else "") + ")")
    for k, v in phases.items():
        out_lines.append(f"{k} {v:.4f} s  (median phase time)")
    for k, v in quality.items():
        out_lines.append(f"{k} {v!r}")

    if trace:
        import layers
        import spans

        rec = spans.Recorder()
        with spans.patched(rec):
            with rec.span("setup"):
                fx_traced = workloads.setup(name, run, work / "setup_traced")
            out = work / "pass_traced"
            out.mkdir()
            with rec.span("pass"):
                traced_result = wl.run(run, fx_traced, out, rec)
        gate.check(workloads.tree_digest(work / "setup_traced") == setup_digest,
                   "traced set-up output differs from untraced")
        traced = wl.verify(run, fx_traced, traced_result, out, gate)
        gate.check(traced.digest == verified[-1].digest,
                   "traced pass output differs from untraced")
        for i, s in enumerate(rec.named("dynamics.batch_loss_and_grad")):
            if "loss" in s.attrs:
                gate.check(math.isfinite(s.attrs["loss"]), f"traced batch {i} loss")
        root = rec.named("pass")[0]
        values = layers.span_metrics(rec, run)
        values.update(layers.kernel_metrics(run, seed))
        values["trace.coverage"] = layers.coverage(rec, root)
        values["trace.overhead_frac"] = root.duration / wall - 1.0
        for k in ("io_s", "align_s", "eval_s"):
            values[f"phase.{k}"] = phases.get(k, 0.0)
        for k in ("retrieval_auc", "prediction_error", "alignment_accuracy"):
            values[f"quality.{k}"] = quality.get(k, 0.0)
        out_lines.append(f"trace {rec.trace_id}: {len(rec.spans)} spans, coverage "
                         f"{values['trace.coverage']:.3f}, overhead "
                         f"{values['trace.overhead_frac']:+.3f}")
    else:
        import resource

        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(gate.failures)
    out_lines.append(f"failed_frac {failed / gate.attempted!r} "
                     f"({failed} of {gate.attempted} operations)")
    for what in gate.failures[:20]:
        out_lines.append(f"FAILED {what}")
    out_lines.append(f"digest {digest}")
    return values, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("embed-train", "dyn-train", "match-eval"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "seqrep" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no seqrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import seqrep

    if Path(seqrep.__file__).resolve().parent != ROOT / "src" / "seqrep":
        print(f"perfbench: imported seqrep from {seqrep.__file__}", file=sys.stderr)
        return 2

    lines = [f"seqrep benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds} s, trace {args.trace}"]
    lines += [f"env {k} {v}" for k, v in environment(nproc).items()]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        values, gate = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads(spec_path.read_text())
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = not gate.failures
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

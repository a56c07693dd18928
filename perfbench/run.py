"""Benchmark of the msfcev library, timed from outside through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload price_surface --seed 1 --seconds 25 --trace 0

Workloads: ``price_surface``, ``calibrate_chain``, ``verify_oracles`` (see
README.md).  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the operations run
under the span recorder of ``spans.py`` and the metrics are the per-layer
figures.  Every operation's output is checked; ``attempted`` and ``failed``
count operations, and ``correct`` is false when an operation fails that is
not one of the known faults, or when the reference pricer disagrees with
the mpmath table.  A results file with the machine, the library versions
and the code's identity goes to ``perfbench/results/``.

``--workload all`` runs the three workloads one after the other and prints
one line per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("price_surface", "calibrate_chain", "verify_oracles")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """BLAS and OpenMP pools at the number of usable cores, before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def import_library():
    """msfcev from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import msfcev
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import msfcev from {ROOT / 'src'}: {exc}")
    if pathlib.Path(msfcev.__file__).resolve().parent != ROOT / "src" / "msfcev":
        raise SystemExit(f"perfbench: msfcev came from {msfcev.__file__}, "
                         f"not from {ROOT / 'src'}")
    return msfcev


def summary(result) -> object:
    """The part of a first result the set-up run and the timed run must share."""
    if hasattr(result, "tolist"):
        return result.tolist()
    if hasattr(result, "total_mse"):
        return [result.total_mse, result.iterations]
    if isinstance(result, dict):
        return [result["price"], getattr(result.get("mc"), "price", None)]
    return repr(result)


def first_result(workload: str, seed: int) -> int:
    """Set-up run: import the library as the CLI does and return the first result."""
    t0 = time.perf_counter()
    import_library()
    import msfcev.cli  # noqa: F401  (the whole package, as a user's first call loads it)
    import_s = time.perf_counter() - t0
    import workloads
    op = workloads.first_op(workload, seed)
    print(json.dumps({"import_s": import_s, "result": summary(op.call())}))
    return 0


def measure_setup(workload: str, seed: int) -> tuple:
    """Median wall time of fresh interpreters returning the first result."""
    walls, imports, results = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--first-result",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=False)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{done.stderr}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(line["import_s"])
        results.append(line["result"])
    return statistics.median(walls), statistics.median(imports), results


def identity() -> dict:
    """Machine, library versions and code identity for the results file."""
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "msfcev").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and pathlib.Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def figures(op, result) -> tuple:
    """Accuracy and convergence figures of one result, for the traced run."""
    import numpy as np

    if op.kind == "slice":
        big = op.expected >= 1e-6 * 100.0
        return ("oracle_err", float(np.max(np.abs(result[big] - op.expected[big])
                                           / op.expected[big])))
    if op.kind == "table":
        return ("mpmath_err", abs(result - op.expected) / op.expected)
    if op.kind == "fit":
        return ("fit", result.iterations, result.total_mse)
    if op.kind == "oracle" and "fpe" in result:
        return ("fpe", result["fpe"].conservation_drift, result["fpe_l1"])
    return ()


def run_rounds(ops, seconds: float, tracer, log: dict) -> int:
    """Repeat the round until ``seconds`` have passed; returns the round count."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failing call is a failed operation
                result = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if isinstance(result, Exception):
                fails, figs = [f"raised {type(result).__name__}: {result}"], ()
            else:
                fails, figs = op.check(result), figures(op, result)
            log["ops"].append((op, elapsed, figs, fails))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def end_to_end(log: dict) -> dict:
    """The user-visible metrics, from each operation's mean time over rounds.

    The rounds repeat identical calls, so an operation's mean over the run
    is its cost as a caller sees it over that run: per-call jitter averages
    out, and unlike the fastest repeat it does not depend on how many
    repeats the run held.  The percentiles, medians and rates are then over
    the distinct operations of the round.
    """
    times: dict = {}
    for op, elapsed, _, _ in log["ops"]:
        times.setdefault(id(op), (op, []))[1].append(elapsed)
    by_kind: dict = {}
    for op, elapsed in times.values():
        by_kind.setdefault(op.kind, []).append((statistics.fmean(elapsed), op.items))

    def rate(*kinds):
        pairs = [p for k in kinds for p in by_kind.get(k, [])]
        return sum(n for _, n in pairs) / sum(t for t, _ in pairs)

    slices = [t * 1e3 for t, _ in by_kind["slice"]]
    return {
        "setup_s": (log["setup_s"], "s"),
        "prices_per_s": (rate("slice", "curve"), "prices/s"),
        "slice_ms_p50": (percentile(slices, 50), "ms"),
        "slice_ms_p95": (percentile(slices, 95), "ms"),
        "density_points_per_s": (rate("density"), "points/s"),
        "fit_s_p50": (statistics.median(t for t, _ in by_kind["fit"]), "s"),
        "verify_point_s_p50": (statistics.median(t for t, _ in by_kind["oracle"]), "s"),
        "sample_paths_per_s": (rate("sample"), "paths/s"),
    }


def per_layer(log: dict, tracer, traced_rounds: int) -> dict:
    out = tracer.metrics(traced_rounds)
    figs: dict = {}
    for _, _, fig, _ in log["ops"]:
        if fig:
            figs.setdefault(fig[0], []).append(fig[1:])

    def worst(key, i=0):
        return max((f[i] for f in figs.get(key, ())), default=0.0)

    fits = figs.get("fit", [])
    out.update({
        "pricing.max_rel_err_oracle": (worst("oracle_err"), "ratio"),
        "pricing.max_rel_err_mpmath": (worst("mpmath_err"), "ratio"),
        "calibrate.iterations": (sum(f[0] for f in fits) / log["rounds"], "count"),
        "calibrate.final_mse": (statistics.median(f[1] for f in fits) if fits else 0.0,
                                "sq_price"),
        "verify.fpe_mass_drift": (worst("fpe", 0), "ratio"),
        "verify.fpe_l1": (worst("fpe", 1), "ratio"),
        "cli.import_s": (log["import_s"], "s"),
        "trace.overhead_share": (log["overhead_share"], "ratio"),
    })
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import rounds as rounds_mod

    log = {"ops": []}
    log["setup_s"], log["import_s"], setup_results = measure_setup(workload, seed)
    ops = rounds_mod.ROUNDS[workload](seed)
    reference_fails = rounds_mod.reference_self_check()
    tracer = None
    if trace:
        import spans

        # traced and untraced rounds alternate, so both see the same machine;
        # the overhead is the sum of the operations' best traced times over
        # the sum of their best untraced times, minus one
        tracer = spans.Tracer()
        start = time.perf_counter()
        traced = 0
        while True:
            tracer.install()
            try:
                run_rounds(ops, 0.0, tracer, log)
            finally:
                tracer.uninstall()
            run_rounds(ops, 0.0, None, log)
            traced += 1
            if time.perf_counter() - start >= seconds:
                break
        log["rounds"] = 2 * traced
        n = len(ops)
        times = [e for _, e, _, _ in log["ops"]]
        best = {}
        for i, elapsed in enumerate(times):
            key = (i // n % 2, id(ops[i % n]))
            best[key] = min(best.get(key, elapsed), elapsed)
        on = sum(v for (untraced, _), v in best.items() if not untraced)
        off = sum(v for (untraced, _), v in best.items() if untraced)
        log["overhead_share"] = on / off - 1.0
    else:
        traced = 0
        log["rounds"] = run_rounds(ops, seconds, None, log)
    attempted = len(log["ops"])
    failures = [(op, fails) for op, _, _, fails in log["ops"] if fails]
    # a known fault explains an operation's failure only through the checks
    # it is known to break
    unexpected = sorted({op.label for op, fails in failures
                         if not (op.known_fault and set(fails) <= set(op.fault_checks))})
    first = ops[0]
    first_mismatch = any(r != summary(first.call()) for r in setup_results)
    correct = not unexpected and not reference_fails and not first_mismatch
    metrics = per_layer(log, tracer, traced) if trace else end_to_end(log)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": log["rounds"], "ops_per_round": len(ops),
        "identity": identity(),
        "failures": sorted({(op.label, op.known_fault, "; ".join(f)) for op, f in failures}),
        "reference_self_check": reference_fails,
        "setup_first_result_matches": not first_mismatch,
        "result": result,
        "op_seconds": [[op.kind, op.label, op.items, [e for o, e, _, _ in log["ops"] if o is op]]
                       for op in {id(op): op for op in ops}.values()],
    }
    if tracer is not None:
        details["spans"] = {"fields": ["id", "parent", "name", "start", "end"],
                            "recorded": tracer.span_count,
                            "kept": tracer.spans}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(details, default=str) + "\n", encoding="utf-8")
    for label, fault, why in details["failures"]:
        print(f"failed: {label}: {why}" + (f" (known fault: {fault})" if fault else ""),
              file=sys.stderr)
    for line in reference_fails:
        print(f"reference: {line}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-result", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    if args.first_result:
        return first_result(args.workload, args.seed)
    import_library()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

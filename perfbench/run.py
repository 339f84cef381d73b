"""Benchmark of the bellgraphs package: four closed-loop request streams.

    python3 perfbench/run.py --workload upper-recon --seed 1 --seconds 10 --trace 0

One caller on one thread sends a request, waits for the answer, and sends
the next.  Only the call is timed: drawing the next input (a fresh
scramble) and checking the answer happen outside it.  The run stops at the
first round boundary after ``--seconds`` of timed calls.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run processes the workload's
fixed number of rounds under span-recording wrappers instead and reports
the per-layer metrics, so those counts repeat exactly for a seed.
``--workload all`` runs every workload in turn, each in its own process.

The package is imported from ``src/`` next to this directory, never from
anywhere else; without it the run fails before printing a result.
"""
import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
# Groups of set-ups per untraced run; see run_untraced.
SETUP_GROUPS = 3
WORKLOAD_NAMES = ("upper-recon", "lower-recon", "build", "iso-oracle")


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import bellgraphs

    if not Path(bellgraphs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bellgraphs found at {bellgraphs.__file__}, not under {SRC}")


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process: interpreter start aside, what this
    script spends before its first request could be sent."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def percentile(values_ns: list[int], q: int) -> float:
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


def serve(workload, rounds, stop, on_call=None) -> dict:
    """The closed loop.  ``stop(timed_ns)`` is asked after each round."""
    latencies: list[int] = []
    attempted = failed = 0
    clock = time.perf_counter_ns
    for batch in rounds:
        answers = []
        for req in batch:
            if on_call is not None:
                on_call(attempted + len(answers))
            start = clock()
            try:
                answer = workload.call(req.payload)
            except Exception as exc:
                answer = exc
                if failed < 3:
                    traceback.print_exception(exc, file=sys.stderr)
            latencies.append(clock() - start)
            answers.append(answer)
        if on_call is not None:
            on_call(None)
        verdicts = workload.check(batch, answers)
        attempted += len(batch)
        failed += verdicts.count(False)
        if stop(sum(latencies)):
            break
    return {"latencies": latencies, "attempted": attempted, "failed": failed}


def run_untraced(workload, args: argparse.Namespace, setup_first: float) -> dict:
    # setup_s is the median over SETUP_GROUPS groups of the mean set-up time
    # of workload.setup_group set-ups in a row: this process's own, then
    # fresh processes'.  The first SETUP_GROUPS // 2 groups are timed before
    # the timed phase and the rest after, so that they span the run as the
    # timed calls do.
    size = workload.setup_group
    before = SETUP_GROUPS // 2 * size
    setups = [setup_first] + [setup_probe(args) for _ in range(before - 1)]
    limit = args.seconds * 1e9
    served = serve(workload, workload.rounds(), lambda timed: timed >= limit)
    setups += [setup_probe(args) for _ in range(SETUP_GROUPS * size - before)]
    groups = [statistics.fmean(setups[i:i + size]) for i in range(0, len(setups), size)]
    lat = served["latencies"]
    n = len(lat)
    timed_s = sum(lat) / 1e9
    metrics = {
        "throughput_rps": (n / timed_s, "req/s", n),
        "latency_p50_ms": (percentile(lat, 50), "ms", n),
        "latency_p90_ms": (percentile(lat, 90), "ms", n),
        "setup_s": (statistics.median(groups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (samples={samples})")
    print(f"fail_frac {served['failed'] / max(served['attempted'], 1):.6g} ratio "
          f"({served['failed']}/{served['attempted']}); {timed_s:.3f} s of timed calls")
    return {
        "served": served,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def run_traced(workload) -> dict:
    import tracer

    spans = tracer.Tracer()

    def mark(request):
        spans.request = request

    with spans.installed():
        rounds = (batch for _, batch in zip(range(workload.trace_rounds), workload.rounds()))
        served = serve(workload, rounds, lambda timed: False, on_call=mark)
    extra = workload.extra_checks()
    values = spans.metrics(extra.get("chi3_slice_wrong", 0))
    path = SPANS_DIR / f"spans-{workload.name}.tsv"
    spans.write(path)
    timed_s = sum(served["latencies"]) / 1e9
    print(f"traced {served['attempted']} requests in {workload.trace_rounds} rounds, "
          f"{timed_s:.3f} s of calls, throughput_rps {served['attempted'] / timed_s:.6g} req/s; "
          f"{len(spans.spans)} spans written to {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "served": served,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "extra": extra,
    }


def run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name} exited with code {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(setup_s)
        return 0
    # The set-up heap lives for the whole run; keep the cyclic collector
    # from rescanning it at random points inside timed calls.
    gc.collect()
    gc.freeze()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    result = run_traced(workload) if args.trace else run_untraced(workload, args, setup_s)
    if not args.trace:
        result["extra"] = workload.extra_checks()
    served = result["served"]
    print("properties " + json.dumps({**workload.properties(served["attempted"]), **result["extra"]}))
    print(json.dumps({
        "correct": served["failed"] == 0,
        "attempted": served["attempted"],
        "failed": served["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark srbb on one workload; the last line of stdout is the result.

    python3 perfbench/run.py --workload synth-n2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from its ``src``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` every call into the package's modules is wrapped in a span
and the result holds the per-layer metrics instead.  The line before the
result describes the machine.  Result and span files go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import env

SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Import and set-up time, each measured in a fresh interpreter."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed)],
            cwd=env.ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def _run_rounds(srbb, workload, state, seconds, tracer):
    """Repeat whole rounds while the next one is expected to fit in
    ``seconds``; always at least one."""
    rounds, problems, errors = [], [], []
    attempted = failed = 0
    first_outputs, first_prints = None, None
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        busy = 0.0
        outputs, ok = [], True
        for op in workload.ops(srbb, state):
            attempted += 1
            try:
                if tracer is None:
                    elapsed, out = op.run()
                else:
                    with tracer.root("bench.op"):
                        elapsed, out = op.run()
            except Exception as e:  # an operation that fails is counted, not fatal
                failed += 1
                ok = False
                errors.append(f"{op.label}: {type(e).__name__}: {e}")
                continue
            busy += elapsed
            outputs.append(out)
        prints = [workload.fingerprint(o) for o in outputs]
        if ok and first_outputs is None:
            first_outputs, first_prints = outputs, prints
        elif ok and prints != first_prints:
            problems.append(f"round {len(rounds) + 1} gave other outputs than round 1")
        per_op = [workload.work(o) for o in outputs]
        rounds.append({"s": busy, "units": sum(per_op), "per_op": per_op})
        last = time.perf_counter() - round_start
        if time.perf_counter() - begin + last > seconds:
            break
    return rounds, first_outputs, attempted, failed, problems, errors


def _end_to_end(rounds, setup_times, peak_rss_mb):
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "round_s": (statistics.median(r["s"] for r in rounds), "s"),
        "work_per_s": (statistics.median(r["units"] / r["s"] if r["s"] else 0.0
                                         for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(tracer, rounds, traced_round_s):
    per = len(rounds)
    spans = tracer.summary("round")
    counts = tracer.counts.get("round", {})
    setup = tracer.summary("setup")

    def row(name):
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    u, ap, fd = row("circuit.unitary_of"), row("circuit.apply"), row("varopt.fd_gradient")
    nm, adam, train = row("varopt.nelder_mead"), row("varopt.adam"), row("varopt.train")
    sc, main = row("compiler.synthesize_circuit"), row("cli.main")
    nm_iters = counts.get("nelder_mead.iters", 0)
    return {
        "circuit.unitary_of.calls": (u["calls"] / per, "count"),
        "circuit.unitary_of.s": (u["s"] / per, "s"),
        "circuit.unitary_of.us_per_gate": (
            1e6 * ratio(u["s"], counts.get("unitary_of.gates", 0)), "us"),
        "circuit.unitary_of.bytes_computed": (counts.get("unitary_of.bytes", 0) / per, "B"),
        "circuit.apply.calls": (ap["calls"] / per, "count"),
        "circuit.apply.s": (ap["s"] / per, "s"),
        "varopt.fd_gradient.calls": (fd["calls"] / per, "count"),
        "varopt.fd_gradient.s": (fd["s"] / per, "s"),
        "varopt.fd_gradient.evals_per_call": (
            ratio(counts.get("fd_gradient.evals", 0), fd["calls"]), "count"),
        "varopt.fd_gradient.self_s": (fd["self_s"] / per, "s"),
        "varopt.nelder_mead.iters": (nm_iters / per, "count"),
        "varopt.nelder_mead.evals": (counts.get("nelder_mead.evals", 0) / per, "count"),
        "varopt.nelder_mead.evals_per_iter": (
            ratio(counts.get("nelder_mead.evals", 0), nm_iters), "count"),
        "varopt.nelder_mead.self_s": (nm["self_s"] / per, "s"),
        "varopt.adam.steps": (counts.get("adam.steps", 0) / per, "count"),
        "varopt.adam.self_s": (adam["self_s"] / per, "s"),
        "varopt.train.calls": (train["calls"] / per, "count"),
        "varopt.train.self_s": (train["self_s"] / per, "s"),
        "compiler.synthesize_circuit.calls": (sc["calls"] / per, "count"),
        "compiler.synthesize_circuit.s": (sc["s"] / per, "s"),
        "compiler.naive_circuit.s": (row("compiler.naive_circuit")["s"] / per, "s"),
        "algebra.build_srbb.s": (row("algebra.build_srbb")["s"] / per, "s"),
        "algebra.check_basis_properties.s": (
            row("algebra.check_basis_properties")["s"] / per, "s"),
        "targets.named_target.s": (row("targets.named_target")["s"] / per, "s"),
        "cli.main.s": (main["s"] / per, "s"),
        "cli.main.self_s": (main["self_s"] / per, "s"),
        "setup.compiler.s": (sum(v["s"] for k, v in setup.items()
                                 if k.startswith("compiler.")), "s"),
        "setup.targets.s": (sum(v["s"] for k, v in setup.items()
                                if k.startswith("targets.")), "s"),
        "trace.spans": (len(tracer.phases.get("round", [])) / per, "count"),
        "trace.round_s": (traced_round_s, "s"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    srbb_threads = os.environ.pop("SRBB_THREADS", None)
    try:
        env.use_checkout_source()
        import srbb  # noqa: E402  (path set just above)
        import srbb.cli  # noqa: E402,F401  (not imported by the package itself)
        env.check_imported(srbb)
    except (env.MissingProgram, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else _setup_seconds(args.workload, args.seed)
    workdir = os.path.join(env.OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer(srbb) if args.trace else None
    try:
        if tracer:
            tracer.install()
            tracer.phase("setup")
        with (tracer.root("bench.setup") if tracer else nullcontext()):
            state = workload.setup(srbb, args.seed, workdir)
        if tracer:
            tracer.phase("round")
        rounds, outputs, attempted, failed, problems, errors = _run_rounds(
            srbb, workload, state, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if outputs is None:
        problems.append("no round completed")
    else:
        problems += workload.check(srbb, state, outputs)

    round_s = statistics.median(r["s"] for r in rounds)
    metrics = (_per_layer(tracer, rounds, round_s) if tracer
               else _end_to_end(rounds, setup_times, peak_rss_mb))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    machine = env.machine(srbb_threads)
    record = {"workload": args.workload, "work_unit": workload.work_unit,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "problems": problems,
              "errors": errors,
              "rounds": rounds, "setup_times": setup_times, **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(env.OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        with open(os.path.join(env.OUT, f"{tag}.spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    for p in errors + problems:
        print(f"problem: {p}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: compile, counts, verify, synthesize, targets.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error or a
file that cannot be read or written.
All randomness in a command flows from the single --seed flag, split
deterministically per consumer with a SeedSequence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .algebra import build_srbb, check_basis_properties
from .circuit import Circuit, to_json_dict, to_qasm, unitary_of
from .compiler import gate_counts, count_from_circuit, naive_circuit, synthesize_circuit
from .targets import named_target, random_su, target_names
from .varopt import LOSSES, OPTIMIZERS, TrainConfig, _check_unitary, matrix_to_json, train


def _matrix_from_json(doc) -> np.ndarray:
    """Complex matrix from a list of rows of [re, im] number pairs."""
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise ValueError("matrix JSON must be a list of rows")
    if len({len(row) for row in doc}) > 1:
        raise ValueError("matrix JSON rows differ in length")
    for row in doc:
        for z in row:
            if not (isinstance(z, list) and len(z) == 2
                    and all(type(v) in (int, float) for v in z)):
                raise ValueError(f"matrix JSON entry {z!r} is not an [re, im] number pair")
    return np.array([[complex(re, im) for re, im in row] for row in doc])


@contextlib.contextmanager
def _open_outputs(paths):
    """Open every path for writing before the body writes any of them.  If an
    open or the body fails, the files opened so far are removed, so a command
    leaves all its outputs or none."""
    files = []
    try:
        for path in paths:
            files.append(open(path, "w"))
        yield files
        for fh in files:
            fh.close()
    except BaseException:
        for fh in files:
            fh.close()
            os.remove(fh.name)
        raise


def cmd_compile(args) -> int:
    if args.qasm and args.json and os.path.realpath(args.qasm) == os.path.realpath(args.json):
        raise ValueError(f"--qasm and --json name the same file {args.json}")
    circuit = naive_circuit(args.n) if args.naive else synthesize_circuit(args.n)
    tally = count_from_circuit(circuit)
    texts = {}
    if args.qasm:
        texts[args.qasm] = to_qasm(circuit)
    if args.json:
        # json.dumps encodes in C; json.dump streams through Python's encoder
        texts[args.json] = json.dumps(to_json_dict(circuit))
    with _open_outputs(texts) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text)
    print(f"n_cnot={tally.n_cnot} n_rot={tally.n_rot}")
    return 0


def cmd_counts(args) -> int:
    print(json.dumps(asdict(gate_counts(args.n))))
    return 0


def _verify_basis(n: int) -> dict:
    report = check_basis_properties(build_srbb(n))
    return {
        "pass": report.all_pass,
        "failures": list(report.failures),
        "max_deviation": dict(report.max_deviation),
    }


def _verify_counts(n: int) -> dict:
    formula = gate_counts(n)
    tally = count_from_circuit(synthesize_circuit(n))
    ok = (formula.n_cnot, formula.n_rot) == (tally.n_cnot, tally.n_rot)
    naive = count_from_circuit(naive_circuit(n))
    red_ok = naive.n_cnot - formula.n_cnot == formula.cnot_reduction
    return {
        "pass": ok and red_ok,
        "formula": asdict(formula),
        "tally": {"n_cnot": tally.n_cnot, "n_rot": tally.n_rot},
        "naive_cnot": naive.n_cnot,
    }


def _verify_equivalence(n: int, seed: int) -> dict:
    draws = 5
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    reduced, naive = synthesize_circuit(n), naive_circuit(n)
    worst = 0.0
    for _ in range(draws):
        vals = {p: rng.uniform(-np.pi, np.pi) for p in reduced.free_parameters}
        d = float(np.linalg.norm(unitary_of(reduced, vals) - unitary_of(naive, vals)))
        worst = max(worst, d)
    return {"pass": worst < 1e-10, "max_frobenius": worst, "draws": draws}


def cmd_verify(args) -> int:
    if args.n < 2:
        raise ValueError("n must be >= 2")
    if args.suite != "counts" and args.n > 6:
        raise ValueError("basis and equivalence suites are limited to n <= 6")
    suites = {}
    if args.suite in ("basis", "all"):
        suites["basis"] = _verify_basis(args.n)
    if args.suite in ("counts", "all"):
        suites["counts"] = _verify_counts(args.n)
    if args.suite in ("equivalence", "all"):
        suites["equivalence"] = _verify_equivalence(args.n, args.seed)
    ok = all(s["pass"] for s in suites.values())
    print(json.dumps({"n": args.n, "pass": ok, "suites": suites}, indent=2))
    return 0 if ok else 1


def _load_target(ref: str, n: int, seed: int) -> np.ndarray:
    if ref.startswith("file:"):
        path = ref[5:]
        with open(path) as fh:
            u = _matrix_from_json(json.load(fh))
        d = 2**n
        if u.shape != (d, d):
            raise ValueError(f"matrix in {path} is {u.shape}, expected {d}x{d}")
        return _check_unitary(u)
    if ref.lower() == "random-su":
        return random_su(n, seed).unitary
    return named_target(ref, n).unitary


def cmd_synthesize(args) -> int:
    if args.n < 2:
        raise ValueError("n must be >= 2")
    # one user-facing seed, split per consumer
    target_seed, train_seed = (int(s) for s in
                               np.random.SeedSequence(args.seed).generate_state(2))
    target = _load_target(args.target, args.n, target_seed)
    # every TrainConfig field but the seed is the option of the same name
    options = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if f.name != "seed"}
    cfg = TrainConfig(seed=train_seed, **options)
    # the outputs are opened before training, so a bad path fails in
    # milliseconds rather than after the whole optimisation
    paths = (args.out, args.out + ".manifest.json") if args.out else ()
    with _open_outputs(paths) as files:
        report = train(args.n, target, cfg)
        if files:
            report_fh, manifest_fh = files
            json.dump(report.to_json_dict(), report_fh, indent=2)
            # everything needed to regenerate the report, and the numpy and
            # Python versions it ran on, so a replay can tell the stack changed
            manifest = {"command": "synthesize", "n": args.n, "target": args.target,
                        "cfg": asdict(cfg), "seed": args.seed, "outputs": [args.out],
                        "numpy": np.__version__,
                        "python": ".".join(map(str, sys.version_info[:3]))}
            json.dump(manifest, manifest_fh, indent=2)
    print(" ".join(f"{k}={v:.6e}" for k, v in report.final_loss.items()))
    return 0


def cmd_targets(args) -> int:
    if args.action == "list":
        for name, n in target_names(args.n):
            print(f"{n} {name}")
        return 0
    # emit
    doc = matrix_to_json(named_target(args.name, args.target_n).unitary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc))  # one C encoder call, as in cmd_compile
    else:
        print(json.dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="srbb",
        description="Recursive block basis circuits: compile, verify, train.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="emit the layer circuit and its gate counts")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("--naive", action="store_true",
                   help="emit the unsimplified layout instead")
    c.add_argument("--qasm", metavar="PATH", help="write OpenQASM 2.0")
    c.add_argument("--json", metavar="PATH", help="write circuit JSON")
    c.set_defaults(func=cmd_compile)

    k = sub.add_parser("counts", help="closed-form gate counts as JSON")
    k.add_argument("-n", type=int, required=True)
    k.set_defaults(func=cmd_counts)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("-n", type=int, required=True)
    v.add_argument("--suite", choices=("basis", "equivalence", "counts", "all"),
                   default="all")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("synthesize", help="train the circuit against a target")
    s.add_argument("target", help="registry name, random-su, or file:PATH")
    s.add_argument("-n", type=int, required=True)
    defaults = TrainConfig()
    s.add_argument("--loss", choices=LOSSES, default=defaults.loss)
    s.add_argument("--optimizer", choices=OPTIMIZERS, default=defaults.optimizer)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", metavar="PATH", help="write the training report JSON")
    s.add_argument("--dataset-size", type=int, default=defaults.dataset_size)
    s.add_argument("--batch", type=int, default=defaults.batch)
    s.add_argument("--lr", type=float, default=defaults.lr)
    s.add_argument("--epochs", type=int, default=defaults.epochs)
    s.add_argument("--max-iter", type=int, default=defaults.max_iter)
    s.add_argument("--tol", type=float, default=defaults.tol)
    s.add_argument("--restarts", type=int, default=defaults.restarts)
    s.add_argument("--target-loss", type=float, default=defaults.target_loss)
    s.set_defaults(func=cmd_synthesize)

    t = sub.add_parser("targets", help="list registry targets or emit one as JSON")
    tsub = t.add_subparsers(dest="action", required=True)
    tl = tsub.add_parser("list")
    tl.add_argument("-n", type=int, default=None)
    tl.set_defaults(func=cmd_targets, action="list")
    te = tsub.add_parser("emit")
    te.add_argument("name")
    te.add_argument("target_n", type=int)
    te.add_argument("--out", metavar="PATH")
    te.set_defaults(func=cmd_targets, action="emit")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs, one round of operations, and checks.

Every workload is a closed loop: one caller, one operation at a time.  A
round is a fixed list of operations built from the seed in ``setup``; every
round repeats the same operations, so repeated rounds must give identical
outputs.  The first round's outputs are checked in full against ``oracle``;
later rounds are compared with the first.

Operations go through the program's public entry points only:
``srbb.cli.main`` for the ``synthesize``, ``compile`` and ``verify``
commands, and ``srbb.circuit.unitary_of`` and ``srbb.circuit.sample`` for
the raw layer.  Each is looked up on its module at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


class OpFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (seconds inside the program, output)."""

    label: str
    run: Callable[[], tuple[float, object]]


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str                      # what work_per_s counts
    setup: Callable                     # (srbb, seed, workdir) -> state
    ops: Callable                       # (srbb, state) -> list[Op]
    work: Callable                      # output -> work units
    check: Callable                     # (srbb, state, outputs) -> problems
    fingerprint: Callable = repr        # output -> value compared across rounds


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _cli(srbb, argv: list[str]) -> tuple[float, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = srbb.cli.main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise OpFailed(f"srbb {' '.join(argv)} exited {rc}")
    return elapsed, buf.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _remove(*paths: str) -> None:
    """Delete earlier outputs before an operation, outside its timing, so
    that it writes new files: rewriting a file in place can make the file
    system flush it synchronously, which would time the disk instead."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


# ---------------------------------------------------------------------------
# synthesis through `srbb synthesize`


def _synth_op(srbb, label: str, argv: list[str], path: str) -> Op:
    def run():
        _remove(path, path + ".manifest.json")
        elapsed, _ = _cli(srbb, argv + ["--out", path])
        with open(path) as fh:
            report = json.load(fh)
        report.pop("wall_ms")
        return elapsed, report
    return Op(label, run)


def _report_unitary(report) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in report["unitary"]])


def _reference_unitary(state, report) -> np.ndarray:
    n, gates, names = state["layer"]
    return oracle.simulate(n, gates, dict(zip(names, report["params"])))


def _layer(srbb, n: int):
    circuit = srbb.compiler.synthesize_circuit(n)
    return n, oracle.gate_list(circuit.gates), circuit.free_parameters


def _check_targets(srbb, names, n: int) -> list[str]:
    problems = []
    for name in names:
        theirs = srbb.targets.named_target(name, n).unitary
        if np.abs(theirs - oracle.target(name)).max() > 1e-12:
            problems.append(f"registry target {name} differs from its definition")
    return problems


def _check_fixed_budget(state, outputs, steps: int) -> list[str]:
    """A fixed-budget run: its loss trace has the configured length, and the
    reported Frobenius loss matches the reference simulator on its params."""
    problems = []
    for (name, _), report in zip(state["runs"], outputs):
        trace = report["trace_of_loss"]
        if len(trace) != steps:
            problems.append(f"{name}: {len(trace)} loss entries, expected {steps}")
        mine = oracle.recovered_frobenius(_reference_unitary(state, report),
                                          oracle.target(name))
        theirs = report["loss"]["frobenius"]
        if abs(mine - theirs) > 1e-9 * max(1.0, theirs):
            problems.append(f"{name}: reported frobenius {theirs!r}, reference {mine!r}")
    return problems


SYNTH_TARGETS = ("cnot", "swap", "iswap", "sqrt-iswap", "qft2", "bell")
# Fixed, not drawn from --seed: the iterations Nelder-Mead needs to reach
# 1e-8 depend on the start point, so the time of 18 calls on seeds drawn
# anew each run spread by 0.24 (Q3 - Q1 over the median, 10 runs), more
# than any usable bound.  With fixed seeds the round's time to accuracy is
# steady; work_per_s is the rate that does not depend on the path.
SYNTH_SEEDS = (0, 1, 2)
ACCURACY = 1e-8   # the default --target-loss


def _synth_setup(srbb, seed, workdir):
    for name in SYNTH_TARGETS:
        srbb.targets.named_target(name, 2)
    runs = [(name, s) for s in SYNTH_SEEDS for name in SYNTH_TARGETS]
    return {"runs": runs, "layer": _layer(srbb, 2),
            "path": os.path.join(workdir, "synth.json")}


def _synth_ops(srbb, state):
    return [_synth_op(srbb, f"{name}/{s}",
                      ["synthesize", name, "-n", "2", "--seed", str(s)], state["path"])
            for name, s in state["runs"]]


def _synth_check(srbb, state, outputs):
    problems = _check_targets(srbb, SYNTH_TARGETS, 2)
    for (name, s), report in zip(state["runs"], outputs):
        u = _report_unitary(report)
        gap = oracle.phase_distance(_reference_unitary(state, report), u)
        if gap > 1e-9:
            problems.append(f"{name}/{s}: report unitary is {gap:.1e} from its params")
        dist = float(np.linalg.norm(u - oracle.target(name)))
        if dist > ACCURACY:
            problems.append(f"{name}/{s}: {dist:.1e} from the target, over {ACCURACY}")
    return problems


ADAM_STEPS = 8
ADAM_STATES = 8
# One batch holding the whole state dataset, so that every step evaluates the
# same objective and the step losses can be expected to fall; Adam takes
# epochs * ceil(dataset_size / batch) = ADAM_STEPS steps.
ADAM_FLAGS = ["--optimizer", "adam", "--epochs", str(ADAM_STEPS),
              "--dataset-size", str(ADAM_STATES), "--batch", str(ADAM_STATES)]
ADAM_RUNS = (("toffoli", "frobenius"), ("qft3", "trace"))


def _adam_setup(srbb, seed, workdir):
    for name, _ in ADAM_RUNS:
        srbb.targets.named_target(name, 3)
    runs = list(zip([name for name, _ in ADAM_RUNS], _seeds(seed, len(ADAM_RUNS))))
    return {"runs": runs, "layer": _layer(srbb, 3),
            "path": os.path.join(workdir, "adam.json")}


def _adam_ops(srbb, state):
    losses = dict(ADAM_RUNS)
    return [_synth_op(srbb, f"{name}/{s}",
                      ["synthesize", name, "-n", "3", "--loss", losses[name],
                       "--seed", str(s)] + ADAM_FLAGS, state["path"])
            for name, s in state["runs"]]


def _adam_check(srbb, state, outputs):
    problems = _check_targets(srbb, [name for name, _ in ADAM_RUNS], 3)
    problems += _check_fixed_budget(state, outputs, ADAM_STEPS)
    for (name, _), report in zip(state["runs"], outputs):
        trace = report["trace_of_loss"]
        if not min(trace) < trace[0]:
            problems.append(f"{name}: no step lowered the loss below {trace[0]!r}")
    return problems


NM_ITERS = 600


def _nm_setup(srbb, seed, workdir):
    srbb.targets.named_target("qft4", 4)
    return {"runs": [("qft4", _seeds(seed, 1)[0])], "layer": _layer(srbb, 4),
            "path": os.path.join(workdir, "nm.json")}


def _nm_ops(srbb, state):
    return [_synth_op(srbb, f"{name}/{s}",
                      ["synthesize", name, "-n", "4", "--max-iter", str(NM_ITERS),
                       "--tol", "0", "--restarts", "0", "--seed", str(s)], state["path"])
            for name, s in state["runs"]]


def _nm_check(srbb, state, outputs):
    problems = _check_targets(srbb, ["qft4"], 4)
    problems += _check_fixed_budget(state, outputs, NM_ITERS)
    for (name, _), report in zip(state["runs"], outputs):
        trace = report["trace_of_loss"]
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append(f"{name}: the best loss rose during Nelder-Mead")
        if not trace[-1] < trace[0]:
            problems.append(f"{name}: the best loss never fell below {trace[0]!r}")
    return problems


def _iterations(report) -> int:
    return len(report["trace_of_loss"])


# ---------------------------------------------------------------------------
# the raw layer at n = 6


LAYER_N = 6
DRAWS = 4
SHOTS = 4096
TOL = 1e-10


def _angles(names, rng) -> dict[str, float]:
    return dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))


def _unitary_setup(srbb, seed, workdir):
    circuit = srbb.compiler.synthesize_circuit(LAYER_N)
    rng = np.random.default_rng(seed)
    draws = [_angles(circuit.free_parameters, rng) for _ in range(DRAWS)]
    columns = [rng.choice(2**LAYER_N, size=2, replace=False) for _ in range(DRAWS)]
    return {"circuit": circuit, "draws": draws, "columns": columns, "seed": seed}


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _unitary_ops(srbb, state):
    return [Op(f"unitary/{k}",
               lambda v=values: _timed(srbb.circuit.unitary_of, state["circuit"], v))
            for k, values in enumerate(state["draws"])]


def _check_small_layers(srbb, seed) -> list[str]:
    """The reference simulator and unitary_of agree on whole unitaries at
    n <= 4, which tests the reference as much as the program."""
    problems = []
    rng = np.random.default_rng([seed, 4])
    for n in (2, 3, 4):
        circuit = srbb.compiler.synthesize_circuit(n)
        values = _angles(circuit.free_parameters, rng)
        ref = oracle.simulate(n, oracle.gate_list(circuit.gates), values)
        gap = float(np.abs(srbb.circuit.unitary_of(circuit, values) - ref).max())
        if gap > TOL:
            problems.append(f"n={n}: unitary_of is {gap:.1e} from the reference")
    return problems


def _unitary_check(srbb, state, outputs):
    problems = _check_small_layers(srbb, state["seed"])
    naive = srbb.compiler.naive_circuit(LAYER_N)
    gates = oracle.gate_list(state["circuit"].gates)
    for k, (values, cols, u) in enumerate(zip(state["draws"], state["columns"], outputs)):
        gap = float(np.abs(u - srbb.circuit.unitary_of(naive, values)).max())
        if gap > TOL:
            problems.append(f"draw {k}: reduced and naive layers differ by {gap:.1e}")
        err = oracle.unitarity_error(u)
        if err > TOL:
            problems.append(f"draw {k}: not unitary ({err:.1e})")
        ref = oracle.simulate(LAYER_N, gates, values, cols)
        gap = float(np.abs(u[:, cols] - ref).max())
        if gap > TOL:
            problems.append(f"draw {k}: columns {list(cols)} are {gap:.1e} from the reference")
    return problems


def _sample_setup(srbb, seed, workdir):
    circuit = srbb.compiler.synthesize_circuit(LAYER_N)
    rng = np.random.default_rng(seed)
    values = _angles(circuit.free_parameters, rng)
    d = 2**LAYER_N
    states = rng.normal(size=(DRAWS, d)) + 1j * rng.normal(size=(DRAWS, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return {"circuit": circuit, "values": values, "states": list(states),
            "seeds": _seeds(seed, DRAWS)}


def _sample_ops(srbb, state):
    return [Op(f"sample/{k}",
               lambda psi=psi, s=s: _timed(srbb.circuit.sample, state["circuit"],
                                           state["values"], psi, SHOTS, s))
            for k, (psi, s) in enumerate(zip(state["states"], state["seeds"]))]


def _sample_check(srbb, state, outputs):
    problems = []
    gates = oracle.gate_list(state["circuit"].gates)
    for k, (psi, hist) in enumerate(zip(state["states"], outputs)):
        if int(np.sum(hist)) != SHOTS:
            problems.append(f"state {k}: histogram holds {int(np.sum(hist))} shots")
        probs = np.abs(oracle.evolve(LAYER_N, gates, state["values"], psi)) ** 2
        bad = oracle.histogram_outliers(hist, probs, SHOTS)
        if bad:
            problems.append(f"state {k}: counts outside the sampling bound at {bad[:8]}")
    return problems


def _array_fingerprint(a) -> str:
    return _digest(np.ascontiguousarray(a).tobytes())


# ---------------------------------------------------------------------------
# `srbb compile` and `srbb verify`


def _compile_setup(srbb, seed, workdir):
    return {"qasm": os.path.join(workdir, "layer.qasm"),
            "json": os.path.join(workdir, "layer.json")}


def _compile_ops(srbb, state):
    argv = ["compile", "-n", str(LAYER_N), "--qasm", state["qasm"], "--json", state["json"]]

    def run():
        _remove(state["qasm"], state["json"])
        elapsed, stdout = _cli(srbb, argv)
        with open(state["qasm"]) as fh:
            qasm = fh.read()
        with open(state["json"]) as fh:
            doc = fh.read()
        return elapsed, {"stdout": stdout, "qasm": qasm, "json": doc}
    return [Op("compile", run)]


def _qasm_gate(line: str) -> tuple[str, tuple[int, ...]]:
    head, _, operands = line.rstrip(";").partition(" ")
    kind = {"cx": "CNOT", "rz": "RZ", "ry": "RY"}.get(head.split("(")[0], head)
    qubits = tuple(int(q.strip()[2:-1]) for q in operands.split(","))
    return kind, qubits


def _compile_check(srbb, state, outputs):
    problems = []
    (out,) = outputs
    n_cnot, n_rot = oracle.layer_counts(LAYER_N)
    if out["stdout"].strip() != f"n_cnot={n_cnot} n_rot={n_rot}":
        problems.append(f"compile printed {out['stdout'].strip()!r}")
    lines = out["qasm"].splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{LAYER_N}];"]
    if lines[:3] != header:
        problems.append("QASM header differs")
    body = lines[3:]
    cx = sum(1 for line in body if line.startswith("cx "))
    rot = sum(1 for line in body if line.startswith(("rz(", "ry(")))
    if (cx, rot, len(body)) != (n_cnot, n_rot, n_cnot + n_rot):
        problems.append(f"QASM holds {cx} cx and {rot} rotations in {len(body)} "
                        f"lines; the closed forms give {n_cnot} and {n_rot}")
    doc = json.loads(out["json"])
    gates = oracle.gate_list(doc["gates"])
    if [(k, q) for k, q, _ in gates] != [_qasm_gate(line) for line in body]:
        problems.append("JSON gates and QASM lines disagree")
    if len(doc["params"]) != n_rot or any(v != 0.0 for v in doc["params"].values()):
        problems.append("JSON parameter table is not one zero angle per rotation")
    back = srbb.circuit.to_json_dict(srbb.circuit.from_json_dict(doc))
    if back != doc:
        problems.append("circuit JSON does not round-trip")
    return problems


def _compile_fingerprint(out) -> tuple:
    return out["stdout"], _digest(out["qasm"].encode()), _digest(out["json"].encode())


VERIFY_N = 5


def clear_package_caches(package) -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _verify_setup(srbb, seed, workdir):
    return {"seed": _seeds(seed, 1)[0]}


def _verify_ops(srbb, state):
    argv = ["verify", "-n", str(VERIFY_N), "--suite", "all", "--seed", str(state["seed"])]

    def run():
        clear_package_caches(srbb)
        elapsed, stdout = _cli(srbb, argv)
        return elapsed, json.loads(stdout)
    return [Op("verify", run)]


def _verify_check(srbb, state, outputs):
    (doc,) = outputs
    problems = []
    if doc.get("pass") is not True:
        problems.append("verify did not report pass")
    suites = doc.get("suites", {})
    if sorted(suites) != ["basis", "counts", "equivalence"]:
        problems.append(f"verify ran suites {sorted(suites)}")
    if not all(s.get("pass") is True for s in suites.values()):
        problems.append("a verify suite failed")
    n_cnot, n_rot = oracle.layer_counts(VERIFY_N)
    formula = suites.get("counts", {}).get("formula", {})
    if (formula.get("n_cnot"), formula.get("n_rot")) != (n_cnot, n_rot):
        problems.append(f"verify's count formula gives {formula}")
    if not suites.get("equivalence", {}).get("max_frobenius", 1.0) < TOL:
        problems.append("reduced and naive layers differ in verify")
    return problems


# ---------------------------------------------------------------------------


def _one(_) -> int:
    return 1


WORKLOADS = {w.name: w for w in (
    Workload("synth-n2", "Nelder-Mead iterations", _synth_setup, _synth_ops,
             _iterations, _synth_check),
    Workload("adam-n3", "Adam steps", _adam_setup, _adam_ops,
             _iterations, _adam_check),
    Workload("nm-n4", "Nelder-Mead iterations", _nm_setup, _nm_ops,
             _iterations, _nm_check),
    Workload("unitary-n6", "unitary_of calls", _unitary_setup, _unitary_ops,
             _one, _unitary_check, _array_fingerprint),
    Workload("sample-n6", "sample calls", _sample_setup, _sample_ops,
             _one, _sample_check, _array_fingerprint),
    Workload("compile-n6", "compile commands", _compile_setup, _compile_ops,
             _one, _compile_check, _compile_fingerprint),
    Workload("verify-n5", "verify commands", _verify_setup, _verify_ops,
             _one, _verify_check),
)}

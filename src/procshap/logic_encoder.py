"""Propositional encoding of substituted trees, TPTP emission and the
external prover adapter.

The encoding unrolls loops up to the configured bound and introduces

* ``done_*``   one variable per node instance: the instance completes;
* ``occ_*``    one variable per activity-leaf instance: the activity
  occurs on the executed path;
* ``choice_*`` one variable per Xor child (node-level, shared across
  instances, with an exactly-one constraint);
* ``redo_*``   one variable per Loop iteration (node-level, chained so
  iteration j+1 implies iteration j).

Models of the axioms correspond one-to-one to commitments, and the root's
``done`` variable holds exactly when the committed run completes, so the
three problem flavors line up with the oracle module:

* sat: axioms plus the root's done variable; satisfiable iff some
  commitment completes,
* liv: conjecture the root's done variable; a theorem iff every
  commitment completes,
* saf: premises include the root's done variable, conjecture that the
  forbidden pair does not co-occur.

``values_via_prover`` decides a batch of substituted trees in stages,
one per problem kind the property needs: sat and saf in one, liv in two,
its sat gate and then liv for the trees the gate passes.  It is the
one place where prover calls are deduplicated and run in parallel: a
memo from problem text to SZS status word, which a caller may share
across batches (``run_matrix`` shares one across its configurations, so
liv's sat gate reuses the sat configuration's statuses), and one pool of
threads for the calls the memo lacks (each call waits on a subprocess),
the package's only parallelism.  ``oracle.evaluate_rows`` hands it forms
in rounds, one batch per round, from the maximal forms down: sat and liv
grow with the coalition and saf falls, so a real verdict settles smaller
or larger forms, which are never handed over, in its batch and in the
configuration's later batches.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
import subprocess
import tempfile
from concurrent import futures
from dataclasses import dataclass, replace

from .oracle import Property, PropertySpec
from .process_tree import Op, ProcessTree, TauMode
from .propositional import (
    FALSE,
    TRUE,
    Formula,
    conj,
    disj,
    iff,
    implies,
    neg,
    to_tptp,
    var,
)


class EncodingSizeError(ValueError):
    """Raised when loop unrolling produces too many node instances."""


@dataclass(frozen=True)
class PropositionalSpec:
    axioms: tuple[Formula, ...]
    conjecture: Formula | None


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_") or "x"


def encode(
    tree_c: ProcessTree, spec: PropertySpec, max_instances: int = 10_000
) -> PropositionalSpec:
    """Encode a tau-substituted, id-assigned tree for the given property."""

    if tree_c.node_id is None:
        raise ValueError("encode requires an id-assigned tree")

    axioms: list[Formula] = []
    occ_vars: dict[str, list[str]] = {}
    instance_counters: dict[int, int] = {}
    instances = 0

    def walk(node: ProcessTree, context: tuple[Formula, ...]) -> str:
        """Emit axioms for one instance of *node*; returns its done var.
        A node's choice and redo axioms go with its first instance."""
        nonlocal instances
        instances += 1
        if instances > max_instances:
            raise EncodingSizeError(
                f"encoding exceeds {max_instances} node instances; "
                f"lower the loop bound"
            )
        index = node.node_id.index  # type: ignore[union-attr]
        ordinal = instance_counters.get(index, 0)
        instance_counters[index] = ordinal + 1
        done = f"done_n{index}_{ordinal}"

        if node.is_leaf:
            if node.is_activity:
                occ = f"occ_{_slug(node.label)}_n{index}_{ordinal}"
                occ_vars.setdefault(node.label, []).append(occ)
                axioms.append(iff(var(occ), conj(*context)))
                axioms.append(iff(var(done), var(occ)))
            elif node.removed:
                value = TRUE if spec.mode is TauMode.SKIP else FALSE
                axioms.append(iff(var(done), value))
            else:
                axioms.append(iff(var(done), TRUE))
            return done

        if node.op is Op.XOR:
            choices = [f"choice_n{index}_{pos}" for pos in range(len(node.children))]
            if ordinal == 0:
                exactly_one = [disj(*(var(c) for c in choices))]
                exactly_one += [
                    neg(conj(var(a), var(b)))
                    for i, a in enumerate(choices)
                    for b in choices[i + 1 :]
                ]
                axioms.append(conj(*exactly_one))
            arms = []
            for pos, child in enumerate(node.children):
                child_done = walk(child, context + (var(choices[pos]),))
                arms.append(conj(var(choices[pos]), var(child_done)))
            axioms.append(iff(var(done), disj(*arms)))
            return done

        if node.op is Op.LOOP:
            redos = [f"redo_n{index}_{j}" for j in range(1, spec.loop_bound + 1)]
            if ordinal == 0:
                for prev, nxt in zip(redos, redos[1:]):
                    axioms.append(implies(var(nxt), var(prev)))
            do, redo = node.children
            parts = [var(walk(do, context))]
            for r in redos:
                gated = context + (var(r),)
                redo_done = walk(redo, gated)
                do_done = walk(do, gated)
                parts.append(implies(var(r), conj(var(redo_done), var(do_done))))
            axioms.append(iff(var(done), conj(*parts)))
            return done

        # Seq / And: complete when all children complete.
        child_dones = [walk(c, context) for c in node.children]
        axioms.append(iff(var(done), conj(*(var(d) for d in child_dones))))
        return done

    done_root = walk(tree_c, ())

    conjecture: Formula | None = None
    if spec.prop is Property.SAT:
        axioms.append(var(done_root))
    elif spec.prop is Property.LIV:
        conjecture = var(done_root)
    else:
        axioms.append(var(done_root))
        a, b = spec.safety_pair  # type: ignore[misc]
        occ_a = disj(*(var(v) for v in occ_vars.get(a, [])))
        occ_b = disj(*(var(v) for v in occ_vars.get(b, [])))
        conjecture = neg(conj(occ_a, occ_b))

    return PropositionalSpec(axioms=tuple(axioms), conjecture=conjecture)


def emit_tptp(pspec: PropositionalSpec, name: str = "problem") -> str:
    """Render the encoded problem as TPTP FOF over propositional
    constants.  Output is byte-stable for a fixed input."""

    lines = [f"% {name}: {len(pspec.axioms)} axioms, "
             f"{'1 conjecture' if pspec.conjecture is not None else 'no conjecture'}"]
    for i, axiom in enumerate(pspec.axioms):
        lines.append(f"fof(ax{i}, axiom, {to_tptp(axiom)}).")
    if pspec.conjecture is not None:
        lines.append(f"fof(goal, conjecture, {to_tptp(pspec.conjecture)}).")
    return "\n".join(lines) + "\n"


_SZS_LINE = re.compile(r"SZS status\s+(\w+)")

# The verdict each SZS status word stands for, one table per problem
# kind: sat problems have no conjecture, liv and saf problems have one.
# Axioms that contradict each other entail any conjecture, so for those
# ContradictoryAxioms is a Theorem.  Any other word counts 0 and warns.
_NO_CONJECTURE = {"Satisfiable": 1, "Unsatisfiable": 0, "ContradictoryAxioms": 0}
_CONJECTURE = {"Theorem": 1, "ContradictoryAxioms": 1, "CounterSatisfiable": 0}


def parse_szs(output: str) -> str:
    """The word of the first SZS status line in *output*; Unknown when
    none is present."""
    match = _SZS_LINE.search(output)
    return match.group(1) if match else "Unknown"


class ProverNotFoundError(EnvironmentError):
    pass


@dataclass(frozen=True)
class ProverConfig:
    executable: str
    timeout_s: float = 2.0
    extra_args: tuple[str, ...] = ()
    dump_dir: str | None = None

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("prover timeout must be positive")


def run_prover(problem: str, config: ProverConfig) -> str:
    """Run the external prover on *problem* and return the status word of
    the first SZS status line of its output, decoded as UTF-8 with each
    invalid byte replaced: a status line still counts beside bytes that
    are not UTF-8, and output with no status reads Unknown.  The prover
    runs in its own session, so at the timeout its whole process group is
    killed, with any children it started, before it is reaped, and the
    word is Timeout."""

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".p", delete=False
    ) as handle:
        handle.write(problem)
        path = handle.name
    try:
        try:
            prover = subprocess.Popen(
                [config.executable, *config.extra_args, path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                encoding="utf-8",
                errors="replace",
                start_new_session=True,
            )
        except FileNotFoundError as exc:
            raise ProverNotFoundError(
                f"prover executable not found: {config.executable}"
            ) from exc
        with prover:
            try:
                stdout, stderr = prover.communicate(timeout=config.timeout_s)
            except subprocess.TimeoutExpired:
                os.killpg(prover.pid, signal.SIGKILL)
                prover.wait()
                return "Timeout"
        return parse_szs(stdout + "\n" + stderr)
    finally:
        os.unlink(path)


def _decide(
    problems: list[str], prop: Property, config: ProverConfig, memo: dict
) -> None:
    """Put the status word of every *prop* problem in *problems* into *memo*,
    calling the prover once for each distinct problem the memo lacks.

    The calls, one or many, run on one pool of min(calls, cpu count)
    threads, shut down before this returns.  The memo is written on the
    calling thread, in the order of *problems*.  An error, such as
    ``ProverNotFoundError``, propagates once the running calls finish:
    the calls not yet started are cancelled, and the memo keeps the
    statuses decided before the failing problem."""

    missing = [p for p in dict.fromkeys(problems) if p not in memo]
    if not missing:
        return

    def call(problem: str) -> str:
        if config.dump_dir is not None:
            digest = hashlib.sha1(problem.encode()).hexdigest()[:12]
            os.makedirs(config.dump_dir, exist_ok=True)
            dump_path = os.path.join(config.dump_dir, f"{prop.value}_{digest}.p")
            if not os.path.exists(dump_path):
                with open(dump_path, "w") as fh:
                    fh.write(problem)
        return run_prover(problem, config)

    pool = futures.ThreadPoolExecutor(max_workers=min(len(missing), os.cpu_count() or 1))
    try:
        for problem, status in zip(missing, pool.map(call, missing)):
            memo[problem] = status
    finally:
        pool.shutdown(cancel_futures=True)


def values_via_prover(
    trees_c: list[ProcessTree],
    spec: PropertySpec,
    config: ProverConfig,
    memo: dict[str, str] | None = None,
) -> list[tuple[int, list[str]]]:
    """The verdict on every substituted tree of a batch: each tree's value
    with the warnings its statuses raised, in the order of *trees_c*.

    *memo* maps TPTP problem text to SZS status word (a fresh one when
    None); it is the one place where prover calls are deduplicated, so a
    problem asked again, by this batch or a later one sharing the memo,
    costs no call.  Use one memo per ``ProverConfig``.

    A property is decided in stages: sat and saf in one stage, liv in
    two, its sat gate and then liv.  Each stage encodes the problems
    of the trees no earlier stage set to 0, decides them in one call of
    ``_decide``, and reads each status word in its kind's table, with
    any warning under the stage's label.  The gate saves calls, not
    soundness: liv's premises define each variable from its children, so
    they are always satisfiable, and liv implies sat, so a sat verdict of
    0, often already in the memo, settles liv.

    The memo holds status words, not values, so each stage records its
    own warnings, the gate's before liv's for each tree.  A word that is
    no verdict counts 0 with a warning."""

    memo = {} if memo is None else memo
    stages = [(spec, spec.prop.value)]
    if spec.prop is Property.LIV:
        stages.insert(0, (replace(spec, prop=Property.SAT), "liv's sat gate"))
    values = [1] * len(trees_c)
    warnings: list[list[str]] = [[] for _ in trees_c]
    for stage, about in stages:
        problems = {i: emit_tptp(encode(trees_c[i], stage), name=stage.prop.value)
                    for i, value in enumerate(values) if value}
        _decide(list(problems.values()), stage.prop, config, memo)
        table = _NO_CONJECTURE if stage.prop is Property.SAT else _CONJECTURE
        for i, problem in problems.items():
            status = memo[problem]
            if status not in table:
                warnings[i].append(f"prover returned {status} for {about}; treating as 0")
            values[i] = table.get(status, 0)
    return list(zip(values, warnings))

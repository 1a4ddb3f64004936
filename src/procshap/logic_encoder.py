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
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

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


class EncodingSizeError(RuntimeError):
    """Raised when loop unrolling produces too many node instances."""


@dataclass(frozen=True)
class PropositionalSpec:
    variables: tuple[str, ...]
    axioms: tuple[Formula, ...]
    conjecture: Formula | None
    done_root: str
    occ_vars: tuple[tuple[str, tuple[str, ...]], ...]  # label -> instance vars

    def occ_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.occ_vars)


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_") or "x"


def encode(
    tree_c: ProcessTree, spec: PropertySpec, max_instances: int = 10_000
) -> PropositionalSpec:
    """Encode a tau-substituted, id-assigned tree for the given property."""

    if tree_c.node_id is None:
        raise ValueError("encode requires an id-assigned tree")

    variables: list[str] = []
    axioms: list[Formula] = []
    occ_vars: dict[str, list[str]] = {}
    instance_counters: dict[int, int] = {}
    nodes_with_static_axioms: set[int] = set()
    instances = 0

    def new_var(name: str) -> str:
        variables.append(name)
        return name

    def exec_formula(context: tuple[Formula, ...]) -> Formula:
        return conj(*context) if context else TRUE

    def walk(node: ProcessTree, context: tuple[Formula, ...]) -> str:
        """Emit axioms for one instance of *node*; returns its done var."""
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
        done = new_var(f"done_n{index}_{ordinal}")

        if node.is_leaf:
            if node.is_activity:
                occ = new_var(f"occ_{_slug(node.label)}_n{index}_{ordinal}")
                occ_vars.setdefault(node.label, []).append(occ)
                axioms.append(iff(var(occ), exec_formula(context)))
                axioms.append(iff(var(done), var(occ)))
            elif node.removed:
                value = TRUE if spec.mode is TauMode.SKIP else FALSE
                axioms.append(iff(var(done), value))
            else:
                axioms.append(iff(var(done), TRUE))
            return done

        if node.op is Op.XOR:
            choices = [f"choice_n{index}_{pos}" for pos in range(len(node.children))]
            if index not in nodes_with_static_axioms:
                nodes_with_static_axioms.add(index)
                for c in choices:
                    new_var(c)
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
            if index not in nodes_with_static_axioms:
                nodes_with_static_axioms.add(index)
                for r in redos:
                    new_var(r)
                for prev, nxt in zip(redos, redos[1:]):
                    axioms.append(implies(var(nxt), var(prev)))
            do, redo = node.children
            parts = [var(walk(do, context))]
            for j, r in enumerate(redos, start=1):
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
        if spec.safety_pair is None:
            raise ValueError("safety encoding requires a safety_pair (A, B)")
        axioms.append(var(done_root))
        a, b = spec.safety_pair
        occ_a = disj(*(var(v) for v in occ_vars.get(a, [])))
        occ_b = disj(*(var(v) for v in occ_vars.get(b, [])))
        conjecture = neg(conj(occ_a, occ_b))

    return PropositionalSpec(
        variables=tuple(variables),
        axioms=tuple(axioms),
        conjecture=conjecture,
        done_root=done_root,
        occ_vars=tuple(
            (label, tuple(vs)) for label, vs in sorted(occ_vars.items())
        ),
    )


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


class SZSStatus(Enum):
    THEOREM = "Theorem"
    COUNTER_SATISFIABLE = "CounterSatisfiable"
    SATISFIABLE = "Satisfiable"
    UNSATISFIABLE = "Unsatisfiable"
    TIMEOUT = "Timeout"
    GAVE_UP = "GaveUp"
    UNKNOWN = "Unknown"
    ERROR = "Error"


_SZS_LINE = re.compile(r"SZS status\s+(\w+)")

_SZS_ALIASES = {
    "ContradictoryAxioms": SZSStatus.UNSATISFIABLE,
    "ResourceOut": SZSStatus.TIMEOUT,
}


def parse_szs(output: str) -> SZSStatus:
    """First SZS status line in *output*; Unknown when none is present."""
    match = _SZS_LINE.search(output)
    if not match:
        return SZSStatus.UNKNOWN
    word = match.group(1)
    if word in _SZS_ALIASES:
        return _SZS_ALIASES[word]
    try:
        return SZSStatus(word)
    except ValueError:
        return SZSStatus.UNKNOWN


class ProverNotFoundError(EnvironmentError):
    pass


class ProverUnknownError(RuntimeError):
    """Raised under the abort policy when the prover gives no verdict."""


@dataclass(frozen=True)
class ProverConfig:
    executable: str
    timeout_s: float = 2.0
    extra_args: tuple[str, ...] = ()
    unknown_policy: str = "zero"  # or "abort"
    dump_dir: str | None = None

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("prover timeout must be positive")
        if self.unknown_policy not in ("zero", "abort"):
            raise ValueError("unknown_policy must be 'zero' or 'abort'")


def run_prover(problem: str, config: ProverConfig) -> SZSStatus:
    """Run the external prover on *problem*, kill it at the timeout, and
    parse the first SZS status line of its output."""

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".p", delete=False
    ) as handle:
        handle.write(problem)
        path = handle.name
    try:
        try:
            result = subprocess.run(
                [config.executable, *config.extra_args, path],
                capture_output=True,
                text=True,
                timeout=config.timeout_s,
            )
        except subprocess.TimeoutExpired:
            return SZSStatus.TIMEOUT
        except FileNotFoundError as exc:
            raise ProverNotFoundError(
                f"prover executable not found: {config.executable}"
            ) from exc
        return parse_szs(result.stdout + "\n" + result.stderr)
    finally:
        os.unlink(path)


def _status_to_value(
    status: SZSStatus,
    positive: SZSStatus,
    negative: SZSStatus,
    config: ProverConfig,
    warn: Callable[[str], None] | None,
    what: str,
) -> int:
    if status is positive:
        return 1
    if status is negative:
        return 0
    message = f"prover returned {status.value} for {what}; treating as 0"
    if config.unknown_policy == "abort":
        raise ProverUnknownError(message)
    if warn is not None:
        warn(message)
    return 0


def value_via_prover(
    tree_c: ProcessTree,
    spec: PropertySpec,
    config: ProverConfig,
    warn: Callable[[str], None] | None = None,
) -> int:
    """Coalition value through the external prover.

    sat: Satisfiable -> 1, Unsatisfiable -> 0.
    liv: gated by the sat value (an inconsistent premise set would entail
    anything), then Theorem -> 1, CounterSatisfiable -> 0.
    saf: Theorem -> 1, CounterSatisfiable -> 0.
    Anything else follows the unknown policy (default: 0 plus a warning).
    """

    if spec.prop is Property.LIV:
        sat_value = value_via_prover(
            tree_c, replace(spec, prop=Property.SAT), config, warn
        )
        if sat_value == 0:
            return 0

    pspec = encode(tree_c, spec)
    problem = emit_tptp(pspec, name=spec.prop.value)
    if config.dump_dir is not None:
        digest = hashlib.sha1(problem.encode()).hexdigest()[:12]
        os.makedirs(config.dump_dir, exist_ok=True)
        dump_path = os.path.join(config.dump_dir, f"{spec.prop.value}_{digest}.p")
        if not os.path.exists(dump_path):
            with open(dump_path, "w") as fh:
                fh.write(problem)
    status = run_prover(problem, config)

    if spec.prop is Property.SAT:
        return _status_to_value(
            status, SZSStatus.SATISFIABLE, SZSStatus.UNSATISFIABLE, config, warn, "sat"
        )
    return _status_to_value(
        status,
        SZSStatus.THEOREM,
        SZSStatus.COUNTER_SATISFIABLE,
        config,
        warn,
        spec.prop.value,
    )


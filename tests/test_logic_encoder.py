from __future__ import annotations

import hashlib
import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from procshap.logic_encoder import (
    EncodingSizeError,
    ProverConfig,
    ProverNotFoundError,
    emit_tptp,
    encode,
    parse_szs,
    run_prover,
    values_via_prover,
)
from procshap.miner import MinerConfig, discover
from procshap.oracle import Property, PropertySpec, evaluate
from procshap.propositional import conj, disj, iff, implies, neg, to_tptp, var
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    loop,
    node_count,
    seq,
    TauMode,
    substitute,
    tau,
    xor,
)

import fake_prover
from _corpus import corpus, random_tree
from _fold_ref import canonical_mask
from _sat import (
    collect_vars,
    dpll_satisfiable,
    spec_value,
    truth_table_satisfiable,
    truth_table_value,
)

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))

FAKE_PROVER = str(Path(__file__).parent / "fake_prover.py")


def fake_prover_config(**kw) -> ProverConfig:
    return ProverConfig(
        executable=sys.executable, extra_args=(FAKE_PROVER,), timeout_s=30, **kw
    )


def test_single_leaf_encoding_is_minimal():
    tree = assign_node_ids(activity("a"))
    pspec = encode(tree, SAT)
    assert collect_vars(pspec.axioms) == ["occ_a_n0_0", "done_n0_0"]
    assert spec_value(pspec) == 1


def test_encoding_matches_oracle_example():
    tree = assign_node_ids(xor(activity("a"), activity("b")))
    cut = substitute(tree, 0b101)  # drop a
    assert spec_value(encode(cut, LIV)) == 0
    assert spec_value(encode(cut, SAT)) == 1


def test_encoder_oracle_equivalence_all_coalitions():
    # the full 100-tree corpus runs in the acceptance suite; this is the
    # fast development slice
    for tree in corpus(20, max_nodes=8, seed=77):
        n = node_count(tree)
        for mask in range(1 << n):
            coalition = Coalition(n, mask)
            cut = substitute(tree, mask)
            for spec in (SAT, LIV, SAF):
                assert spec_value(encode(cut, spec)) == evaluate(tree, coalition, spec), (
                    tree,
                    mask,
                    spec.prop,
                )


def test_truth_table_agrees_with_dpll():
    rng = random.Random(123)
    for _ in range(40):
        tree = random_tree(rng, max_nodes=6)
        n = node_count(tree)
        mask = rng.getrandbits(n)
        cut = substitute(tree, mask)
        for spec in (SAT, LIV, SAF):
            pspec = encode(cut, spec)
            if len(collect_vars(list(pspec.axioms))) > 18:
                continue
            assert truth_table_value(pspec) == spec_value(pspec)


def random_formula(rng: random.Random, names: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        return var(rng.choice(names))
    op = rng.randrange(5)
    if op == 0:
        return neg(random_formula(rng, names, depth - 1))
    if op == 1:
        return conj(*(random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))
    if op == 2:
        return disj(*(random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))))
    if op == 3:
        return implies(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))
    return iff(random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


def test_dpll_agrees_with_truth_table_on_random_formulas():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(6)]
    for _ in range(200):
        fs = [random_formula(rng, names, 3) for _ in range(rng.randint(1, 3))]
        assert dpll_satisfiable(fs) == truth_table_satisfiable(fs)


def fake_value(pspec) -> int:
    """The value of an encoded problem as ``fake_prover.py`` decides its
    TPTP text, in process."""
    return int(fake_prover.status(emit_tptp(pspec)) in ("Satisfiable", "Theorem"))


def test_fake_prover_agrees_with_sat_references():
    # the problems of the two reference cross-checks above
    rng = random.Random(123)
    for _ in range(40):
        tree = random_tree(rng, max_nodes=6)
        n = node_count(tree)
        cut = substitute(tree, rng.getrandbits(n))
        for spec in (SAT, LIV, SAF):
            pspec = encode(cut, spec)
            assert fake_value(pspec) == spec_value(pspec)
            if len(collect_vars(list(pspec.axioms))) <= 18:
                assert fake_value(pspec) == truth_table_value(pspec)
    rng = random.Random(5)
    names = [f"v{i}" for i in range(6)]
    for _ in range(200):
        fs = [random_formula(rng, names, 3) for _ in range(rng.randint(1, 3))]
        parsed = [fake_prover.Parser(fake_prover.tokenize(to_tptp(f))).parse() for f in fs]
        assert fake_prover.satisfiable(parsed) == truth_table_satisfiable(fs)


def test_fake_prover_decides_bundled_forms_quickly(running_example_log):
    # forms of the bundled log's trees, on which deciding by enumerating
    # every assignment took minutes per call
    rng = random.Random(3)
    pair = ("pay compensation", "reject request")
    specs = (SAT, LIV, PropertySpec(Property.SAF, safety_pair=pair))
    slowest = 0.0
    for noise in (0.0, 0.25, 0.5, 1.0):
        tree = discover(running_example_log, MinerConfig(noise=noise))
        n = node_count(tree)
        masks = [(1 << n) - 1] + [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(12)]
        for mask, spec in itertools.product(masks, specs):
            coalition = Coalition(n, mask)
            pspec = encode(substitute(tree, mask), spec)
            start = time.perf_counter()
            value = fake_value(pspec)
            slowest = max(slowest, time.perf_counter() - start)
            assert value == evaluate(tree, coalition, spec), (noise, mask, spec.prop)
    assert slowest < 1.0


def test_loop_bound_zero_and_two():
    tree = assign_node_ids(loop(activity("a"), activity("b")))
    for bound in (0, 1, 2):
        spec = PropertySpec(Property.SAF, safety_pair=("a", "b"), loop_bound=bound)
        assert spec_value(encode(tree, spec)) == evaluate(tree, Coalition.full(3), spec)


def test_liv_premises_are_always_satisfiable():
    # liv's sat gate saves prover calls, not soundness: its premises define
    # every variable from its children, so no coalition, tau mode or loop
    # bound makes them inconsistent, and liv implies sat.
    rng = random.Random(5)
    for tree in corpus(120):
        n = node_count(tree)
        for _ in range(6):
            cut = substitute(tree, rng.getrandbits(n))
            for mode, bound in itertools.product(TauMode, (0, 1, 2)):
                liv = encode(cut, PropertySpec(Property.LIV, mode=mode, loop_bound=bound))
                assert dpll_satisfiable(liv.axioms), (tree, mode, bound)
                if spec_value(liv):
                    sat = encode(cut, PropertySpec(Property.SAT, mode=mode, loop_bound=bound))
                    assert spec_value(sat) == 1


def test_encoding_deterministic():
    tree = assign_node_ids(
        seq(activity("a"), loop(xor(activity("b"), tau()), activity("c")))
    )
    first = emit_tptp(encode(tree, SAT), "p")
    second = emit_tptp(encode(tree, SAT), "p")
    assert first == second


def test_emit_tptp_golden():
    tree = assign_node_ids(activity("a"))
    text = emit_tptp(encode(tree, SAT), "leaf_sat")
    golden = Path(__file__).parent / "golden" / "leaf_sat.p"
    assert text == golden.read_text()


def test_emit_tptp_bundled_forms_digest(running_example_tree):
    # every problem of the bundled log's noise-0 tree: its 471 canonical
    # forms x sat/liv/saf x tau mode x loop bounds 0-2, hashed in order
    tree = running_example_tree
    n = node_count(tree)
    forms = sorted({canonical_mask(tree, mask) for mask in range(1 << n)})
    assert len(forms) == 471
    pair = ("pay compensation", "reject request")
    digest = hashlib.sha256()
    for form in forms:
        cut = substitute(tree, form)
        for prop, mode, bound in itertools.product(Property, TauMode, (0, 1, 2)):
            spec = PropertySpec(
                prop,
                mode=mode,
                loop_bound=bound,
                safety_pair=pair if prop is Property.SAF else None,
            )
            digest.update(emit_tptp(encode(cut, spec), spec.prop.value).encode())
            digest.update(b"\0")
    golden = Path(__file__).parent / "golden" / "bundled_forms_tptp.sha256"
    assert digest.hexdigest() == golden.read_text().strip()


def test_emit_tptp_empty_problem():
    from procshap.logic_encoder import PropositionalSpec

    empty = PropositionalSpec(axioms=(), conjecture=None)
    text = emit_tptp(empty, "empty")
    assert text.startswith("%")
    assert "fof(" not in text


def test_encoding_size_guard():
    tree = activity("a")
    for _ in range(8):
        tree = loop(tree, tau())
    tree = assign_node_ids(tree)
    spec = PropertySpec(Property.SAT, loop_bound=4)
    with pytest.raises(EncodingSizeError):
        encode(tree, spec, max_instances=500)


def test_parse_szs_returns_the_status_word():
    assert parse_szs("% SZS status Theorem for x") == "Theorem"
    assert parse_szs("% SZS status Satisfiable") == "Satisfiable"
    assert parse_szs("% SZS status CounterSatisfiable") == "CounterSatisfiable"
    assert parse_szs("% SZS status ContradictoryAxioms") == "ContradictoryAxioms"
    assert parse_szs("no verdict here") == "Unknown"
    assert parse_szs("% SZS status SomethingNew") == "SomethingNew"
    assert parse_szs("% SZS status ResourceOut") == "ResourceOut"
    assert parse_szs("% SZS status GaveUp\n% SZS status Theorem") == "GaveUp"


def test_run_prover_with_fake_prover():
    tree = assign_node_ids(activity("a"))
    problem = emit_tptp(encode(tree, SAT))
    assert run_prover(problem, fake_prover_config()) == "Satisfiable"


def test_run_prover_timeout(tmp_path):
    slow = tmp_path / "slow_prover.py"
    slow.write_text("import time\ntime.sleep(30)\n")
    config = ProverConfig(
        executable=sys.executable, extra_args=(str(slow),), timeout_s=0.2
    )
    assert run_prover("fof(a, axiom, x).", config) == "Timeout"


def process_gone(pid: int, wait_s: float = 2.0) -> bool:
    """Whether process *pid* ends within *wait_s*: its ``/proc`` entry is
    missing or reads state Z, since an orphan stays unreaped in a
    container whose first process reaps no children."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rpartition(")")[2].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_prover_timeout_kills_the_prover_process_group(tmp_path):
    pid_file = tmp_path / "sleeper.pid"
    stalling = tmp_path / "stalling.sh"
    stalling.write_text(f'#!/bin/sh\nsleep 30 &\necho $! > "{pid_file}"\nsleep 30\n')
    stalling.chmod(0o755)
    config = ProverConfig(executable=str(stalling), timeout_s=0.3)
    assert run_prover("fof(a, axiom, x).", config) == "Timeout"
    assert process_gone(int(pid_file.read_text()))


def test_run_prover_missing_binary():
    config = ProverConfig(executable="/nonexistent/prover")
    with pytest.raises(ProverNotFoundError):
        run_prover("fof(a, axiom, x).", config)


def test_run_prover_no_szs_line(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('hello')\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(silent),))
    assert run_prover("fof(a, axiom, x).", config) == "Unknown"


@pytest.mark.parametrize("output, status", [
    (b"% SZS status Satisfiable\n\xff\n", "Satisfiable"),
    (b"\xff\xfe", "Unknown"),
], ids=["status-then-0xff", "only-0xff-0xfe"])
def test_run_prover_reads_output_that_is_not_utf8(tmp_path, output, status):
    """Bytes that are not UTF-8 neither hide a status line nor fail the
    call: output with no status reads Unknown and warns as usual."""
    binary = tmp_path / "binary.py"
    binary.write_text(f"import sys\nsys.stdout.buffer.write({output!r})\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(binary),))
    assert run_prover("fof(a, axiom, x).", config) == status
    tree = assign_node_ids(activity("a"))
    [(value, warnings)] = values_via_prover([tree], SAT, config)
    assert (value, warnings) == (
        (1, []) if status == "Satisfiable"
        else (0, ["prover returned Unknown for sat; treating as 0"])
    )


def test_unknown_policy_zero_warns(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('no status')\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(silent),))
    tree = assign_node_ids(activity("a"))
    [(value, warnings)] = values_via_prover([tree], SAT, config)
    assert value == 0
    assert warnings and "Unknown" in warnings[0]


def test_no_verdict_counts_zero_for_every_property(tmp_path):
    silent = tmp_path / "silent.py"
    silent.write_text("print('no status')\n")
    config = ProverConfig(executable=sys.executable, extra_args=(str(silent),))
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    unknown = "prover returned Unknown for {}; treating as 0"
    for spec in (SAT, LIV, SAF):
        # liv's sat gate gets no verdict, so liv's own problem is not asked
        [(value, warnings)] = values_via_prover([tree], spec, config)
        assert value == 0
        assert warnings == [unknown.format("liv's sat gate" if spec is LIV else spec.prop.value)]


def test_value_via_prover_agrees_with_oracle():
    config = fake_prover_config()
    rng = random.Random(17)
    for tree in corpus(6, max_nodes=6, seed=88):
        n = node_count(tree)
        masks = {rng.getrandbits(n) for _ in range(4)} | {0, (1 << n) - 1}
        for mask in masks:
            coalition = Coalition(n, mask)
            cut = substitute(tree, mask)
            for spec in (SAT, LIV, SAF):
                [(value, warnings)] = values_via_prover([cut], spec, config)
                assert warnings == []
                assert value == evaluate(tree, coalition, spec)


def test_value_via_prover_dumps_problems(tmp_path):
    config = fake_prover_config(dump_dir=str(tmp_path / "problems"))
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    values_via_prover([tree], SAT, config)
    dumped = list((tmp_path / "problems").glob("*.p"))
    assert len(dumped) == 1 and dumped[0].name.startswith("sat_")


def test_evaluate_with_prover_backend_through_cache():
    from procshap.oracle import ValueCache, coalition_rows, evaluate_rows

    tree = assign_node_ids(seq(activity("a"), activity("b")))
    n = node_count(tree)
    cache = ValueCache(tree, SAT, fake_prover_config())
    [value] = evaluate_rows(cache, coalition_rows([(1 << n) - 1], n))
    assert value == 1
    assert cache.distinct_queries == 1

"""The prover backend's exact path (``rooted_shapley`` over one batch of
canonical forms per configuration, which the prover decides in rounds
for sat and liv), its canonical cache keys for
sampling, prover faults inside a batch, and the one prover memo a run
shares across its configurations.  Provers are small Python scripts:
``fake_prover.py``, optionally behind a wrapper that logs each call's
problem kind, or scripts that stall, crash or print garbage."""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from procshap import logic_encoder
from procshap.cli import main
from procshap.logic_encoder import (
    ProverConfig,
    emit_tptp,
    encode,
    values_via_prover,
)
from procshap.oracle import (
    Property,
    PropertySpec,
    ValueCache,
    coalition_rows,
    evaluate,
    evaluate_rows,
)
from procshap.process_tree import (
    Coalition,
    activity,
    assign_node_ids,
    iter_nodes,
    node_count,
    seq,
    substitute,
    tree_from_text,
    xor,
)
from procshap.reports import RunConfig, run_matrix, run_single
from procshap.shapley import (
    Game,
    canonical_form_count,
    exact_shapley,
    mc_permutation_shapley,
    rooted_shapley,
    rs_subset_shapley,
)

from _corpus import corpus
from _sampling_ref import verdicts_of
from _fold_ref import canonical_mask, verdicts_of_masks
from test_logic_encoder import FAKE_PROVER, fake_prover_config
from test_monotone_rounds import present_mask

SAT = PropertySpec(Property.SAT)
LIV = PropertySpec(Property.LIV)
SAF = PropertySpec(Property.SAF, safety_pair=("a", "b"))


def tiny_tree():
    return assign_node_ids(seq(activity("a"), xor(activity("b"), activity("c"))))


def script(tmp_path: Path, name: str, body: str, **kw) -> ProverConfig:
    path = tmp_path / name
    path.write_text(body)
    kw.setdefault("timeout_s", 30)
    return ProverConfig(executable=sys.executable, extra_args=(str(path),), **kw)


def counting_prover(tmp_path: Path, **kw) -> tuple[ProverConfig, Path]:
    """``fake_prover.py`` behind a wrapper that appends one line per call:
    the problem's kind, from its first line (``% sat: ...``)."""
    calls = tmp_path / "calls.log"
    config = script(tmp_path, "counting_prover.py", (
        "import runpy, sys\n"
        "kind = open(sys.argv[1]).readline()[2:].split(':')[0]\n"
        f"with open({str(calls)!r}, 'a') as fh:\n"
        "    fh.write(kind + '\\n')\n"
        f"sys.argv = [{FAKE_PROVER!r}, *sys.argv[1:]]\n"
        f"runpy.run_path({FAKE_PROVER!r}, run_name='__main__')\n"
    ), **kw)
    return config, calls


def call_kinds(calls: Path) -> list[str]:
    """The kind of every logged call, one per line."""
    return calls.read_text().splitlines() if calls.exists() else []


def call_count(calls: Path) -> int:
    return len(call_kinds(calls))


def exact_config(prover: ProverConfig, **kw) -> RunConfig:
    return RunConfig(log_path="log.xes", method="exact", prover=prover, **kw)


def handed_over(monkeypatch) -> list[list[int]]:
    """The forms of every batch ``values_via_prover`` is handed from now on,
    as masks, in order."""
    rounds: list[list[int]] = []
    values_via_prover = logic_encoder.values_via_prover

    def spy(trees_c, *args):
        rounds.append([present_mask(tree_c) for tree_c in trees_c])
        return values_via_prover(trees_c, *args)

    monkeypatch.setattr(logic_encoder, "values_via_prover", spy)
    return rounds


def by_index(tree, record: dict) -> dict[int, float]:
    ids = {node.node_id.text: node.node_id.index for node in iter_nodes(tree)}
    return {ids[text]: value for text, value in record["phi"].items()}


# --- the exact path --------------------------------------------------------


def test_rooted_equals_enumeration_through_fake_prover():
    trees = [t for t in corpus(12, max_nodes=6, seed=88) if node_count(t) >= 3][:3]
    assert len(trees) == 3
    config = fake_prover_config()
    for tree in trees:
        n = node_count(tree)
        for spec in (SAT, LIV, SAF):
            cache = ValueCache(tree, spec, config)
            via_prover = rooted_shapley(tree, lambda rows: evaluate_rows(cache, rows))
            reference = exact_shapley(Game(n, lambda c: evaluate(tree, c, spec)))
            assert via_prover.phi_exact == reference.phi_exact, (tree, spec)
            assert cache.warnings == []


def test_exact_sat_prover_asks_rounds_from_the_maximal_forms_down(
    tmp_path, monkeypatch
):
    tree = tiny_tree()  # nodes 0 Seq, 1 a, 2 Xor, 3 b, 4 c
    prover, calls = counting_prover(tmp_path)
    rounds = handed_over(monkeypatch)
    record = run_single(exact_config(prover), tree, 0.0, SAT, None)
    forms = canonical_form_count(tree)  # rooted subtrees + 1
    assert forms == 11
    assert rounds == [
        [0b00000, 0b11111],  # the empty form: 0; the full tree: 1
        # {Seq, a, Xor, b}: 1, {Seq, a, Xor, c}: 1, {Seq, Xor, b, c}: 0,
        # which settles the four forms below it
        [0b01111, 0b10111, 0b11101],
        [0b00111],  # {Seq, a, Xor}: 0, which settles {Seq, a}
    ]
    assert call_count(calls) == 6
    assert record["cache"]["total_queries"] == forms
    assert record["cache"]["distinct_queries"] == forms
    reference = exact_shapley(Game(5, lambda c: evaluate(tree, c, SAT)))
    assert by_index(tree, record) == reference.phi


def test_cap_refuses_before_any_prover_call(tmp_path):
    tree = assign_node_ids(seq(*(activity(f"a{i}") for i in range(21))))
    prover, calls = counting_prover(tmp_path)
    with pytest.raises(ValueError, match="exact computation refused"):
        run_single(exact_config(prover), tree, 0.0, SAT, None)
    assert call_count(calls) == 0


# --- sampling keyed by canonical mask -------------------------------------


def raw_keyed_game(tree, spec, prover: ProverConfig) -> Game:
    """The prover game as it was keyed before: one cache entry per raw mask."""
    cache = ValueCache()
    return Game(node_count(tree), lambda c: cache.get_or_compute(
        c.mask, lambda: values_via_prover([substitute(tree, c.mask)], spec, prover)[0][0]))


@pytest.mark.parametrize("method", ["mc", "rs"])
def test_sampling_on_prover_keys_cache_by_canonical_mask(tmp_path, method):
    tree = tiny_tree()
    prover, calls = counting_prover(tmp_path)
    config = RunConfig(log_path="log.xes", method=method, prover=prover,
                       seed=1, permutations=10, min_permutations=10,
                       samples_per_player=6)
    record = run_single(config, tree, 0.0, SAT, 11)
    canonical_calls = call_count(calls)

    calls.unlink()
    game = raw_keyed_game(tree, SAT, prover)
    if method == "mc":
        raw, _ = mc_permutation_shapley(
            5, verdicts_of(game), permutations=10, seed=11,
            checkpoint_every=config.checkpoint_every, epsilon=config.epsilon,
            min_permutations=10, monotone=True,
        )
    else:
        raw = rs_subset_shapley(5, verdicts_of(game), samples_per_player=6, seed=11)
    raw_calls = call_count(calls)

    assert by_index(tree, record) == raw.phi
    # the rounds settle some canonical forms without a call
    assert canonical_calls <= record["cache"]["distinct_queries"] < raw_calls


def test_prover_cache_key_is_canonical():
    tree = tiny_tree()
    config = fake_prover_config()
    cache = ValueCache(tree, SAT, config)
    # {Seq, b, c} and {Seq} both substitute to seq(a removed, xor removed)
    for mask in (0b11001, 0b00001):
        evaluate_rows(cache, coalition_rows([mask], 5))
    assert canonical_mask(tree, 0b11001) == 0b00001
    assert cache.total_queries == 2 and cache.distinct_queries == 1


# --- faults inside a batch -------------------------------------------------

SLEEPING = "import time\ntime.sleep(30)\n"
CRASHING = "import sys\nsys.stderr.write('Traceback: boom\\n')\nsys.exit(3)\n"
GARBAGE = "print('\\x00@@ SZS statu5 ~~ %%%')\n"

# Decides nothing; its answer and its delay depend on the problem's bytes,
# so calls finish out of order and answer ResourceOut or nothing at all.
MIXED = """import hashlib, sys, time
digest = hashlib.sha1(open(sys.argv[1], 'rb').read()).digest()
time.sleep(digest[1] % 4 * 0.05)
if digest[0] % 2:
    print('% SZS status ResourceOut')
else:
    print('no verdict')
"""


def test_timing_out_prover_gives_timeout_warnings(tmp_path):
    tree = assign_node_ids(seq(activity("a"), activity("b")))
    prover = script(tmp_path, "sleeping.py", SLEEPING, timeout_s=0.3)
    record = run_single(exact_config(prover), tree, 0.0, SAT, None)
    forms = canonical_form_count(tree)
    assert record["cache"]["warnings"] == [
        "prover returned Timeout for sat; treating as 0"
    ] * forms
    assert set(record["phi"].values()) == {0.0}


@pytest.mark.parametrize("body", [CRASHING, GARBAGE], ids=["crash", "garbage"])
def test_crashing_or_garbage_prover_gives_unknown_warnings(tmp_path, body):
    tree = tiny_tree()
    prover = script(tmp_path, "faulty.py", body)
    runs = [
        run_single(exact_config(prover), tree, 0.0, SAT, None)["cache"]["warnings"]
        for _ in range(2)
    ]
    expected = ["prover returned Unknown for sat; treating as 0"] * 11
    assert runs == [expected, expected]


def test_batch_warnings_follow_mask_order(tmp_path):
    tree = tiny_tree()
    prover = script(tmp_path, "mixed.py", MIXED)
    n = node_count(tree)
    expected = []
    masks = sorted({canonical_mask(tree, mask) for mask in range(1 << n)})
    for mask in masks:
        problem = emit_tptp(encode(substitute(tree, mask), SAT), "sat")
        status = "ResourceOut" if hashlib.sha1(problem.encode()).digest()[0] % 2 else "Unknown"
        expected.append(f"prover returned {status} for sat; treating as 0")
    assert len(set(expected)) == 2  # both answers occur
    for _ in range(2):
        record = run_single(exact_config(prover), tree, 0.0, SAT, None)
        assert record["cache"]["warnings"] == expected


def self_disabling_prover(tmp_path: Path, kind: str) -> ProverConfig:
    """``fake_prover.py`` behind a shell wrapper that takes its own execute
    bit away on its first *kind* problem: that call is answered, and every
    later call fails to start with ``PermissionError``."""
    wrapper = tmp_path / f"{kind}_once"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'case "$(head -n 1 "$1")" in "% {kind}:"*) chmod -x "$0";; esac\n'
        f'exec "{sys.executable}" "{FAKE_PROVER}" "$@"\n'
    )
    wrapper.chmod(0o755)
    return ProverConfig(executable=str(wrapper), timeout_s=30)


def test_prover_error_fails_one_configuration(tmp_path, tiny_log_file, monkeypatch):
    # real verdicts up to the first liv call, then no prover to start
    prover = self_disabling_prover(tmp_path, "liv")
    monkeypatch.setattr("procshap.logic_encoder.os.cpu_count", lambda: 2)
    before = threading.active_count()
    report = run_matrix(RunConfig(
        log_path=str(tiny_log_file), noise_levels=(0.0,), properties=(SAT, LIV),
        method="exact", prover=prover,
    ))
    assert threading.active_count() == before  # no pool thread outlives it
    sat, liv = report.configurations
    assert sat["error"] is None and sat["cache"]["warnings"] == []
    assert sat["phi"] == run_matrix(RunConfig(
        log_path=str(tiny_log_file), noise_levels=(0.0,), properties=(SAT,),
        method="exact",
    )).configurations[0]["phi"]
    assert liv["error"] == f"PermissionError: [Errno 13] Permission denied: {prover.executable!r}"
    assert liv["phi"] == {}


# --- one prover memo per run ----------------------------------------------

# Delegates to fake_prover.py, except for sat problems, where it runs FAULT.
SAT_FAULT = """import runpy, sys
if open(sys.argv[1]).readline().startswith('% sat:'):
{fault}
sys.argv = [{fake!r}, *sys.argv[1:]]
runpy.run_path({fake!r}, run_name='__main__')
"""

SAT_FAULTS = {
    "timeout": ("    import time\n    time.sleep(30)", "Timeout"),
    "garbage": ("    print('no verdict')\n    sys.exit(0)", "Unknown"),
}


def sat_fault_prover(tmp_path: Path, fault: str, **kw) -> ProverConfig:
    body, _ = SAT_FAULTS[fault]
    return script(tmp_path, f"sat_{fault}.py",
                  SAT_FAULT.format(fault=body, fake=FAKE_PROVER), **kw)


def tiny_matrix(log: Path, prover: ProverConfig, *specs) -> list[dict]:
    return run_matrix(RunConfig(
        log_path=str(log), noise_levels=(0.0,), properties=specs,
        method="exact", prover=prover,
    )).configurations


def sat_forms(tree) -> tuple[int, int]:
    """(canonical forms, forms whose sat verdict is 1) of *tree*."""
    n = node_count(tree)
    masks = {canonical_mask(tree, mask) for mask in range(1 << n)}
    wins = sum(evaluate(tree, Coalition(n, mask), SAT) for mask in masks)
    return len(masks), wins


def test_sat_liv_matrix_decides_each_sat_problem_once(tmp_path, tiny_log_file):
    prover, calls = counting_prover(tmp_path)
    sat, liv = tiny_matrix(tiny_log_file, prover, SAT, LIV)
    tree = tree_from_text(sat["tree"])
    forms, wins = sat_forms(tree)
    assert (forms, wins) == (canonical_form_count(tree), 3)
    # the sat configuration asks 6 of the 11 forms in three rounds; liv's
    # gate reuses their statuses, and liv asks the forms that pass it: the
    # full tree, then {Seq, a, Xor, b} and {Seq, a, Xor, c}, whose verdicts
    # of 0 settle every form below them
    assert call_kinds(calls) == ["sat"] * 6 + ["liv"] * wins
    assert sat["error"] is None and liv["error"] is None
    assert liv["cache"]["distinct_queries"] == forms


def test_liv_record_equals_liv_only_run(tmp_path, tiny_log_file):
    prover = fake_prover_config()
    _, shared = tiny_matrix(tiny_log_file, prover, SAT, LIV)
    [alone] = tiny_matrix(tiny_log_file, prover, LIV)
    assert shared == alone
    assert shared["error"] is None


def test_memo_does_not_outlive_a_run(tmp_path, tiny_log_file):
    prover, calls = counting_prover(tmp_path)
    counts = []
    for _ in range(2):
        calls.unlink(missing_ok=True)
        tiny_matrix(tiny_log_file, prover, SAT, LIV)
        counts.append(Counter(call_kinds(calls)))
    assert counts[0] == counts[1] == Counter(sat=6, liv=3)


@pytest.mark.parametrize("fault", sorted(SAT_FAULTS))
def test_liv_warnings_with_faulty_sat_equal_liv_only_run(tmp_path, tiny_log_file, fault):
    prover = sat_fault_prover(tmp_path, fault, timeout_s=0.3 if fault == "timeout" else 30)
    sat, shared = tiny_matrix(tiny_log_file, prover, SAT, LIV)
    [alone] = tiny_matrix(tiny_log_file, prover, LIV)
    status = SAT_FAULTS[fault][1]
    expected = [f"prover returned {status} for {{}}; treating as 0"] * 11
    assert sat["cache"]["warnings"] == [w.format("sat") for w in expected]
    gate = [w.format("liv's sat gate") for w in expected]
    assert shared["cache"]["warnings"] == alone["cache"]["warnings"] == gate
    assert shared == alone


def test_liv_warnings_keep_sat_then_liv_order_per_form(tmp_path, tiny_log_file):
    # sat: real verdict or no verdict by the problem's bytes; liv: no verdict
    prover = script(tmp_path, "odd.py", (
        "import hashlib, runpy, sys\n"
        "text = open(sys.argv[1]).read()\n"
        "odd = hashlib.sha1(text.encode()).digest()[0] % 2\n"
        "if text.startswith('% liv:') or odd:\n"
        "    print('no verdict')\n"
        "    sys.exit(0)\n"
        f"sys.argv = [{FAKE_PROVER!r}, *sys.argv[1:]]\n"
        f"runpy.run_path({FAKE_PROVER!r}, run_name='__main__')\n"
    ))
    _, shared = tiny_matrix(tiny_log_file, prover, SAT, LIV)
    [alone] = tiny_matrix(tiny_log_file, prover, LIV)
    tree = tree_from_text(shared["tree"])
    n = node_count(tree)
    expected = []
    for mask in sorted({canonical_mask(tree, mask) for mask in range(1 << n)}):
        if mask == 0b00101:
            # {Seq, Xor} has no sat verdict, but it is never asked: the
            # second round's sat verdict 0 on {Seq, Xor, b, c} settles it
            continue
        coalition = Coalition(n, mask)
        problem = emit_tptp(encode(substitute(tree, mask), SAT), "sat")
        if hashlib.sha1(problem.encode()).digest()[0] % 2:
            expected.append("prover returned Unknown for liv's sat gate; treating as 0")
        elif evaluate(tree, coalition, SAT):
            expected.append("prover returned Unknown for liv; treating as 0")
    assert len(set(expected)) == 2  # both kinds occur
    assert shared["cache"]["warnings"] == alone["cache"]["warnings"] == expected


def test_prover_error_on_sat_fails_both_configurations_alike(tmp_path, tiny_log_file):
    # the sat configuration fails after its first call; liv's gate asks
    # for the sat problems the memo lacks, and fails the same way
    prover = self_disabling_prover(tmp_path, "sat")
    sat, liv = tiny_matrix(tiny_log_file, prover, SAT, LIV)
    message = f"PermissionError: [Errno 13] Permission denied: {prover.executable!r}"
    assert sat["error"] == liv["error"] == message
    [alone] = tiny_matrix(tiny_log_file, prover, LIV)
    assert alone["error"] == message


def test_an_error_stops_a_batch_at_the_first_failing_call(monkeypatch):
    # one batch of all 257 canonical forms; every call fails
    tree = assign_node_ids(seq(*(activity(f"a{i}") for i in range(8))))
    spec = PropertySpec(Property.SAF, safety_pair=("a0", "a1"))
    forms = sorted({canonical_mask(tree, mask) for mask in range(1 << node_count(tree))})
    assert len(forms) == canonical_form_count(tree) == 257
    calls = []
    run_prover = logic_encoder.run_prover

    def counted(problem, config):
        calls.append(problem)
        return run_prover(problem, config)

    monkeypatch.setattr(logic_encoder, "run_prover", counted)
    monkeypatch.setattr("procshap.logic_encoder.os.cpu_count", lambda: 2)
    missing = ProverConfig(executable=str(Path(__file__).parent / "no_such_prover"))
    before = threading.active_count()
    with pytest.raises(logic_encoder.ProverNotFoundError, match="no_such_prover"):
        values_via_prover([substitute(tree, mask) for mask in forms], spec, missing)
    assert threading.active_count() == before  # no pool thread outlives it
    # the two first calls, and the few more the workers took up before
    # the rest were cancelled
    assert 1 <= len(calls) <= 16


def test_no_verdict_warns_in_mask_order(tmp_path):
    # liv: no verdict; sat: no verdict for the forms with c but without a.
    # The first round asks the empty form (sat 0) and the full tree, which
    # passes the gate; the second {Seq, a, Xor, b}, {Seq, a, Xor, c} (both
    # pass) and {Seq, Xor, b, c} (sat: none); the third {Seq, a, Xor} and
    # {Seq, Xor, b} (sat 0, settling the forms below) and {Seq, Xor, c}
    # (sat: none).  No real verdict settles a form without one, so each of
    # those warns, in mask order.
    body = (
        "import runpy, sys\n"
        "text = open(sys.argv[1]).read()\n"
        "if text.startswith('% liv:') or ('occ_c' in text and 'occ_a' not in text):\n"
        "    print('no verdict')\n"
        "    sys.exit(0)\n"
        f"sys.argv = [{FAKE_PROVER!r}, *sys.argv[1:]]\n"
        f"runpy.run_path({FAKE_PROVER!r}, run_name='__main__')\n"
    )
    warned = script(tmp_path, "warn.py", body)
    record = run_single(exact_config(warned), tiny_tree(), 0.0, LIV, None)
    gate, liv = (f"prover returned Unknown for {p}; treating as 0"
                 for p in ("liv's sat gate", "liv"))
    assert record["cache"]["warnings"] == [liv, gate, liv, gate, liv]


def test_mc_liv_on_prover_equals_oracle(tmp_path):
    tree = tiny_tree()
    prover, calls = counting_prover(tmp_path)
    mc = dict(log_path="log.xes", method="mc", seed=1, permutations=10,
              min_permutations=10)
    record = run_single(RunConfig(prover=prover, **mc),
                        tree, 0.0, LIV, 11)
    oracle = run_single(RunConfig(**mc), tree, 0.0, LIV, 11)
    assert record["phi"] == oracle["phi"]
    # at most one sat call per distinct canonical form, reused by later
    # queries; the rounds settle some forms without a call
    assert Counter(call_kinds(calls))["sat"] <= record["cache"]["distinct_queries"]


def test_cli_verify_sat_liv_shares_the_sat_call(tmp_path, capsys):
    prover, calls = counting_prover(tmp_path)
    wrapper = tmp_path / "prover"
    wrapper.write_text(
        f'#!/bin/sh\nexec "{prover.executable}" "{prover.extra_args[0]}" "$@"\n'
    )
    wrapper.chmod(0o755)
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("seq\n  act a\n  xor\n    act b\n    act c\n")
    rc = main([
        "verify", "--tree", str(tree_file), "--property", "sat,liv",
        "--backend", "prover", "--prover-path", str(wrapper),
        "--timeout-ms", "30000",
    ])
    assert rc == 0
    assert "sat: 1" in capsys.readouterr().out
    assert call_kinds(calls) == ["sat", "liv"]

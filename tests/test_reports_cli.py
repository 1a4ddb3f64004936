from __future__ import annotations

import csv
import json
import re
import shutil
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from procshap import reports
from procshap.cli import _apply_config_file, build_parser, main
from procshap.event_log import EventLog
from procshap.logic_encoder import ProverConfig
from procshap.oracle import Property, PropertySpec
from procshap.process_tree import MAX_TEXT_DEPTH, node_count
from procshap.reports import (
    AttributionReport,
    RunConfig,
    config_id,
    emit_report,
    render_summary,
    run_matrix,
    run_single,
)
from procshap.shapley import tree_shapley

from _xes_etree import dump_xes

SAF_PAIR = ("pay compensation", "reject request")


def small_config(log_path, **overrides) -> RunConfig:
    defaults = dict(
        log_path=str(log_path),
        noise_levels=(0.0, 1.0),
        properties=(
            PropertySpec(Property.SAT),
            PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
        ),
        method="mc",
        permutations=300,
        min_permutations=100,
        seed=7,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_run_config_validation(running_example_file):
    with pytest.raises(ValueError, match="seed"):
        RunConfig(log_path=str(running_example_file), method="mc")
    with pytest.raises(ValueError, match="noise"):
        RunConfig(log_path=str(running_example_file), method="exact", noise_levels=())
    for every in (0, -5):
        with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
            RunConfig(log_path=str(running_example_file), method="mc", seed=1,
                      checkpoint_every=every)
    # the backend is read from the prover config, never given apart from it
    with pytest.raises(TypeError, match="backend"):
        RunConfig(log_path=str(running_example_file), method="exact", backend="prover")
    oracle = RunConfig(log_path=str(running_example_file), method="exact")
    prover = RunConfig(log_path=str(running_example_file), method="exact",
                       prover=ProverConfig(executable="prover"))
    assert (oracle.backend, prover.backend) == ("oracle", "prover")


def test_configuration_count_arithmetic(running_example_file):
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 0.25, 0.5, 1.0),
        properties=(
            PropertySpec(Property.SAT),
            PropertySpec(Property.LIV),
            PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
        ),
        method="exact",
    )
    report = run_matrix(config)
    # one dataset x four noise levels x three properties
    assert report.meta["configuration_count"] == 1 * 4 * 3 == 12
    assert len(report.configurations) == 12


def test_matrix_deterministic_bytes(running_example_file):
    config = small_config(running_example_file)
    first = run_matrix(config).to_json()
    second = run_matrix(config).to_json()
    assert first == second


def test_matrix_prover_equals_oracle(tiny_log_file):
    # exact values over rooted subtrees through the fake prover, against
    # the tree DP over the oracle
    from test_logic_encoder import fake_prover_config

    def exact_report(**backend):
        return run_matrix(
            RunConfig(
                log_path=str(tiny_log_file),
                noise_levels=(0.0,),
                properties=(PropertySpec(Property.SAT), PropertySpec(Property.LIV)),
                method="exact",
                **backend,
            )
        )

    oracle = exact_report()
    prover = exact_report(prover=fake_prover_config())
    assert len(prover.configurations) == 2
    for via_oracle, via_prover in zip(oracle.configurations, prover.configurations):
        assert via_prover["error"] is None
        assert via_prover["node_count"] == 5
        assert via_prover["phi"] == via_oracle["phi"]
        assert via_prover["classification"] == via_oracle["classification"]
        assert via_prover["top_k"] == via_oracle["top_k"]


def test_matrix_oracle_runs_on_calling_thread(monkeypatch, running_example_file):
    threads = []

    def recording_run_single(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_single(*args, **kwargs)

    monkeypatch.setattr(reports, "run_single", recording_run_single)
    report = run_matrix(small_config(running_example_file))
    assert len(threads) == len(report.configurations) == 4
    assert set(threads) == {threading.get_ident()}


def test_matrix_prover_runs_on_calling_thread(monkeypatch, tiny_log_file):
    # prover calls overlap within a configuration; configurations do not
    from test_logic_encoder import fake_prover_config

    threads = []

    def recording_run_single(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_single(*args, **kwargs)

    monkeypatch.setattr(reports, "run_single", recording_run_single)
    report = run_matrix(
        RunConfig(
            log_path=str(tiny_log_file),
            noise_levels=(0.0, 1.0),
            properties=(PropertySpec(Property.SAT),),
            method="exact",
            prover=fake_prover_config(),
        )
    )
    assert len(threads) == len(report.configurations) == 2
    assert set(threads) == {threading.get_ident()}
    assert all(record["error"] is None for record in report.configurations)


def test_mc_ties_veto_players_for_sat_and_liv_only(running_example_tree):
    from procshap.oracle import ValueCache, evaluate
    from procshap.process_tree import iter_nodes
    from procshap.shapley import Game, mc_permutation_shapley

    from _sampling_ref import verdicts_of

    tree = running_example_tree
    ids = [node.node_id.text for node in iter_nodes(tree)]
    config = RunConfig(log_path="log.xes", method="mc", permutations=300,
                       min_permutations=300, seed=1)
    specs = (
        PropertySpec(Property.SAT),
        PropertySpec(Property.LIV),
        PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
    )
    for spec in specs:
        record = run_single(config, tree, 0.0, spec, 5)
        cache = ValueCache()
        game = Game(len(ids), lambda c: evaluate(tree, c, spec, cache))
        sampled, _ = mc_permutation_shapley(
            len(ids), verdicts_of(game), permutations=300, seed=5,
            checkpoint_every=config.checkpoint_every, epsilon=config.epsilon,
            min_permutations=300,
        )
        full = (1 << len(ids)) - 1
        veto = [i for i in range(len(ids))
                if game.value_of_mask(full & ~(1 << i)) < game.value_of_mask(full)]
        phi = [record["phi"][text] for text in ids]
        if spec.prop is Property.SAF:  # not monotone: the sampled estimate
            assert phi == [sampled.phi[i] for i in range(len(ids))]
            continue
        assert len(veto) >= 5  # nine veto nodes for sat, all 14 for liv
        assert len({phi[i] for i in veto}) == 1
        assert phi[veto[0]] == pytest.approx(
            sum(sampled.phi[i] for i in veto) / len(veto), abs=1e-12)
        assert sum(phi) == pytest.approx(1.0, abs=1e-12)


def test_matrix_counters_and_structure(running_example_file):
    report = run_matrix(small_config(running_example_file))
    for record in report.configurations:
        assert record["error"] is None
        cache = record["cache"]
        assert 0 <= cache["distinct_queries"] <= cache["total_queries"]
        assert set(record["phi"]) == set(record["classification"])
        assert record["node_count"] == len(record["phi"])
    cross = report.cross
    assert "sat" in cross["topk_jaccard_across_noise"]
    assert cross["baseline_noise"] == 0.0


def test_error_isolation(monkeypatch, running_example_file):
    # a config whose Shapley step raises must not poison its siblings
    def failing_on_14_nodes(tree, spec):
        if node_count(tree) == 14:  # the noise-0 tree; noise 1 mines 13 nodes
            raise ValueError("refused")
        return tree_shapley(tree, spec)

    monkeypatch.setattr(reports, "tree_shapley", failing_on_14_nodes)
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 1.0),
        properties=(PropertySpec(Property.SAT),),
        method="exact",
    )
    report = run_matrix(config)
    errors = {r["id"]: r.get("error") for r in report.configurations}
    assert errors[config_id(0.0, PropertySpec(Property.SAT))] == "ValueError: refused"
    assert errors[config_id(1.0, PropertySpec(Property.SAT))] is None


def test_adaptive_nodes_leave_out_a_label_whose_baseline_failed(
    monkeypatch, running_example_file
):
    """summary.txt names min(noise_levels) as the baseline, so a label
    whose configuration at that level failed is compared against no other
    level: it is left out of adaptive_nodes, and the other labels stay."""
    run_single = reports.run_single

    def failing_sat_at_noise_0(config, tree, noise, spec, *args):
        if noise == 0.0 and spec.prop is Property.SAT:
            raise ValueError("refused")
        return run_single(config, tree, noise, spec, *args)

    monkeypatch.setattr(reports, "run_single", failing_sat_at_noise_0)
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 0.25, 0.5, 1.0),
        properties=(PropertySpec(Property.SAT), PropertySpec(Property.LIV)),
        method="exact",
    )
    report = run_matrix(config)
    assert [r["id"] for r in report.configurations if r["error"]] == ["noise0_sat"]
    cross = report.cross
    assert cross["baseline_noise"] == 0.0
    assert set(cross["adaptive_nodes"]) == {"liv"}
    assert set(cross["topk_jaccard_across_noise"]) == {"sat", "liv"}
    summary = render_summary(report)
    adaptive = summary.split("adaptive nodes vs baseline noise 0:\n")[1]
    assert adaptive and not re.search(r"^  sat:", adaptive, re.M)


def test_emit_report_files(tmp_path, running_example_file):
    report = run_matrix(small_config(running_example_file))
    paths = emit_report(report, tmp_path)
    names = {p.name for p in paths}
    assert "report.json" in names
    assert "rankings.csv" in names
    assert "noise_series.csv" in names
    assert "summary.txt" in names
    assert any(name.startswith("tree_") and name.endswith(".dot") for name in names)

    parsed = AttributionReport.from_json((tmp_path / "report.json").read_text())
    assert parsed.meta == report.meta

    with open(tmp_path / "rankings.csv") as fh:
        rows = list(csv.DictReader(fh))
    expected = sum(r["node_count"] for r in report.configurations)
    assert len(rows) == expected

    with open(tmp_path / "noise_series.csv") as fh:
        series = list(csv.DictReader(fh))
    assert len(series) == len(report.configurations)


def test_emit_report_empty(tmp_path, running_example_file):
    report = AttributionReport(
        meta={"log_path": "x", "configuration_count": 0, "noise_levels": [],
              "properties": [], "method": "mc", "backend": "oracle", "seed": 0},
        configurations=[],
        cross={"topk_jaccard_across_noise": {}, "noise_correlation": {},
               "adaptive_nodes": {}, "baseline_noise": 0.0},
    )
    paths = emit_report(report, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["configurations"] == []
    with open(tmp_path / "rankings.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 0


def test_golden_report(running_example_file):
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 1.0),
        properties=(
            PropertySpec(Property.SAT),
            PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
        ),
        method="exact",
    )
    report = run_matrix(config)
    golden = Path(__file__).parent / "golden" / "report_exact.json"
    assert report.to_json() == golden.read_text()


@pytest.mark.parametrize("method", ["mc", "rs"])
def test_golden_sampling_report(running_example_file, method):
    config = RunConfig(
        log_path=str(running_example_file),
        noise_levels=(0.0, 1.0),
        properties=(
            PropertySpec(Property.SAT),
            PropertySpec(Property.LIV),
            PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
        ),
        method=method,
        permutations=600,
        min_permutations=200,
        samples_per_player=40,
        seed=7,
    )
    report = run_matrix(config)
    golden = Path(__file__).parent / "golden" / f"report_{method}.json"
    assert report.to_json() == golden.read_text()


def test_report_independent_of_log_location(
    tmp_path, monkeypatch, running_example_file
):
    copy_dir = tmp_path / "elsewhere"
    copy_dir.mkdir()
    shutil.copyfile(running_example_file, copy_dir / Path(running_example_file).name)

    def exact_report(log_path: str):
        return run_matrix(
            RunConfig(
                log_path=log_path,
                noise_levels=(0.0, 1.0),
                properties=(
                    PropertySpec(Property.SAT),
                    PropertySpec(Property.SAF, safety_pair=SAF_PAIR),
                ),
                method="exact",
            )
        )

    packaged = exact_report(str(running_example_file))
    monkeypatch.chdir(tmp_path)
    copied = exact_report(str(Path("elsewhere") / Path(running_example_file).name))
    assert copied.to_json() == packaged.to_json()
    assert copied.meta["log_name"] == "running_example.xes"
    assert render_summary(copied).startswith("log: running_example.xes\n")


def test_report_rerender_roundtrip(tmp_path, running_example_file):
    report = run_matrix(small_config(running_example_file))
    first_dir = tmp_path / "first"
    emit_report(report, first_dir)
    second_dir = tmp_path / "second"
    rc = main(["report", "--in", str(first_dir / "report.json"),
               "--out", str(second_dir)])
    assert rc == 0
    for name in ("report.json", "rankings.csv", "noise_series.csv", "summary.txt"):
        assert (first_dir / name).read_text() == (second_dir / name).read_text()


@pytest.mark.parametrize("text, message", [
    ("{}", "report key 'meta' is missing"),
    ("[1]", "the JSON is not an object"),
    ('{"meta": {}, "configurations": [], "cross": {}}',
     "meta key 'configuration_count' is missing"),
    ('{"meta": [], "configurations": [], "cross": {}}', "report key 'meta' is mistyped"),
])
def test_cli_report_rejects_json_that_is_not_a_report(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["report", "--in", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: not a report: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda records: records[1].pop("class_counts"),
     "configuration 1 key 'class_counts' is missing"),
    (lambda records: records.__setitem__(1, 5), "configuration 1 is not an object"),
    (lambda records: records[1]["cache"].pop("distinct_queries"),
     "configuration 1 cache key 'distinct_queries' is missing"),
    (lambda records: records[1].update(noise="0"),
     "configuration 1 key 'noise' is mistyped"),
    (lambda records: records[1].update(top_k=["nowhere"]),
     "configuration 1 top_k names 'nowhere', which phi lacks"),
    (lambda records: records[1].update(classification={}),
     "configuration 1 classification key '[^']+' is missing"),
    (lambda records: records[1].update(id=None, error="mining failed"),
     "configuration 1 key 'id' is mistyped"),
])
def test_cli_report_checks_each_record(tmp_path, capsys, running_example_file,
                                       edit, message):
    payload = json.loads(run_matrix(small_config(running_example_file)).to_json())
    assert not payload["configurations"][1]["error"]
    edit(payload["configurations"])
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["report", "--in", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: not a report: {message}\n", captured.err), captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("part, value, message", [
    ("noise_correlation", {"sat": 1}, "cross noise_correlation 'sat' is not an object"),
    ("noise_correlation", {"sat": {"r": 0.5}},
     "cross noise_correlation 'sat' key 'zero_variance' is missing"),
    ("noise_correlation", {"sat": {"r": "high", "zero_variance": False}},
     "cross noise_correlation 'sat' key 'r' is mistyped"),
    ("adaptive_nodes", {"sat": [5]}, "cross adaptive_nodes 'sat' entry 0 is not an object"),
    ("adaptive_nodes", {"sat": 5}, "cross adaptive_nodes key 'sat' is mistyped"),
    ("adaptive_nodes", {"sat": [{"node": "a@1"}]},
     "cross adaptive_nodes 'sat' entry 0 key 'reason' is missing"),
    ("topk_jaccard_across_noise", {"sat": {"0 vs 1": "0.5"}},
     "cross topk_jaccard_across_noise 'sat' key '0 vs 1' is mistyped"),
    ("topk_jaccard_across_noise", {"sat": [0.5]},
     "cross topk_jaccard_across_noise 'sat' is not an object"),
])
def test_cli_report_checks_the_cross_entries(tmp_path, capsys, running_example_file,
                                             part, value, message):
    payload = json.loads(run_matrix(small_config(running_example_file,
                                                 method="exact")).to_json())
    assert set(payload["cross"][part]) == {"sat", "saf:" + ",".join(SAF_PAIR)}
    payload["cross"][part] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["report", "--in", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: not a report: {message}\n" and captured.out == ""
    assert not out.exists()


def test_report_from_json_checks_the_keys_the_summary_reads(running_example_file):
    payload = json.loads(run_matrix(small_config(running_example_file)).to_json())
    for part, key in [("meta", "seed"), ("cross", "baseline_noise")]:
        broken = json.loads(json.dumps(payload))
        del broken[part][key]
        with pytest.raises(ValueError, match=f"{part} key '{key}' is missing"):
            AttributionReport.from_json(json.dumps(broken))
    payload["meta"].pop("log_name")
    payload["meta"]["log_path"] = "old/log.xes"  # reports written before log_name
    report = AttributionReport.from_json(json.dumps(payload))
    assert render_summary(report).startswith("log: old/log.xes\n")


# -- CLI ------------------------------------------------------------------


def test_cli_mine(tmp_path, running_example_file, capsys):
    rc = main(["mine", "--log", str(running_example_file), "--noise", "0.0",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "traces: 6" in out and "nodes: 14" in out
    assert (tmp_path / "tree.txt").exists()
    assert (tmp_path / "tree.dot").read_text().startswith("digraph")


def test_cli_mine_rejects_empty_log(tmp_path, capsys):
    log = tmp_path / "empty.xes"
    log.write_bytes(b"<log></log>")
    rc = main(["mine", "--log", str(log), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: event log {log} has no traces\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_verify_full_and_cut(tmp_path, running_example_file, capsys):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    tree_file = str(tmp_path / "tree.txt")

    rc = main(["verify", "--tree", tree_file, "--property", "sat,liv",
               "--coalition", "all"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sat: 1" in out and "liv: 1" in out

    rc = main(["verify", "--tree", tree_file, "--property", "sat,liv",
               "--exclude", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sat: 1" in out and "liv: 0" in out
    assert json.loads(out.splitlines()[-1]) == {
        "coalition": [i for i in range(14) if i != 10], "values": {"sat": 1, "liv": 0}}

    rc = main(["verify", "--tree", tree_file, "--property", "saf",
               "--safety-pair", "pay compensation,reject request"])
    assert rc == 0
    assert "saf: 1" in capsys.readouterr().out


def test_cli_verify_rejects_excluded_index_out_of_range(
    tmp_path, running_example_file, capsys
):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "sat",
               "--exclude", "99"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: index 99 outside 0..13\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag, indices, message", [
    ("--coalition", "0,99,-1", "index 99 outside 0..13"),
    ("--coalition", "99,x", "index 99 outside 0..13"),
    ("--coalition", "x,99", "--coalition: 'x' is not a node index"),
    ("--coalition", "", "--coalition: '' is not a node index"),
    ("--exclude", "3,-1", "index -1 outside 0..13"),
    ("--exclude", "x", "--exclude: 'x' is not a node index"),
])
def test_cli_verify_names_the_first_bad_index(
    tmp_path, running_example_file, capsys, flag, indices, message
):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "sat",
               flag, indices])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("properties, message", [
    ("sat,sat", "duplicate properties: sat"),
    ("liv,sat,saf,liv,sat", "duplicate properties: liv, sat"),
])
def test_cli_verify_rejects_a_repeated_property(tmp_path, capsys, properties, message):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("seq\n  act a\n  act b\n")
    rc = main(["verify", "--tree", str(tree_file), "--property", properties,
               "--safety-pair", "a,b"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_verify_rejects_an_oversized_unrolling(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("loop\n  seq\n    act a\n    act b\n  loop\n    act c\n    act d\n")
    rc = main(["verify", "--tree", str(tree_file), "--property", "sat",
               "--backend", "prover", "--prover-path", sys.executable,
               "--loop-bound", "200"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: encoding exceeds 10000 node instances; lower the loop bound\n")
    assert captured.out == ""


def nested_seq_text(depth: int) -> str:
    """A chain of seq nodes whose one activity leaf is *depth* levels below
    the root and has preorder index *depth*."""
    return "".join("  " * d + "seq\n" for d in range(depth)) + "  " * depth + "act a\n"


def test_cli_verify_at_the_depth_bound(tmp_path, capsys):
    from test_logic_encoder import FAKE_PROVER

    wrapper = tmp_path / "prover"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_PROVER}" "$@"\n')
    wrapper.chmod(0o755)
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(nested_seq_text(MAX_TEXT_DEPTH))
    leaf = str(MAX_TEXT_DEPTH)
    for backend in (["--backend", "oracle"],
                    ["--backend", "prover", "--prover-path", str(wrapper),
                     "--timeout-ms", "30000"]):
        for exclude, value in ([], 1), (["--exclude", leaf], 0):
            rc = main(["verify", "--tree", str(tree_file), "--property", "sat,liv",
                       *backend, *exclude])
            captured = capsys.readouterr()
            assert rc == 0 and captured.err == ""
            assert f"sat: {value}\nliv: {value}\n" in captured.out


def test_cli_verify_rejects_text_past_the_depth_bound(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(nested_seq_text(MAX_TEXT_DEPTH + 1))
    rc = main(["verify", "--tree", str(tree_file), "--property", "sat"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: line {MAX_TEXT_DEPTH + 2}: more than "
                            f"{MAX_TEXT_DEPTH} levels below the root\n")
    assert captured.out == ""


def test_cli_verify_coalition_and_exclude_are_exclusive(
    tmp_path, running_example_file, capsys
):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "sat",
              "--coalition", "0,1", "--exclude", "2"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


def test_cli_verify_requires_pair(tmp_path, running_example_file, capsys):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "saf"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --safety-pair A,B is required for the saf property\n"
    assert captured.out == ""


def test_cli_skip_mode_warning(tmp_path, running_example_file, capsys):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "sat",
          "--tau", "skip"])
    assert capsys.readouterr().err.count("degenerate") == 1


def test_cli_skip_mode_warning_printed_once(tmp_path, tiny_log_file, capsys):
    rc = main(["attribute", "--log", str(tiny_log_file), "--property", "sat",
               "--tau", "skip", "--method", "exact"])
    assert rc == 0
    assert capsys.readouterr().err.count("degenerate") == 1

    rc = main(["matrix", "--log", str(tiny_log_file), "--noise", "0.0,1.0",
               "--property", "sat", "--tau", "skip", "--method", "exact",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("degenerate") == 2  # one per configuration
    assert "noise0_sat" in err and "noise1_sat" in err


# The bundled log's tree labels "reject request"; "reject_request" is a typo.
TYPO_PAIR = ["--property", "saf", "--safety-pair", "pay compensation,reject_request"]
TYPO_WARNING = ("saf is degenerate: no node is labelled 'reject_request', "
                "so every coalition evaluates to 1")


def test_cli_attribute_warns_on_a_pair_activity_no_node_labels(running_example_file, capsys):
    rc = main(["attribute", "--log", str(running_example_file), *TYPO_PAIR,
               "--method", "exact"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {TYPO_WARNING}\n"
    values = re.findall(r"^  \S.*?\s([+-]\d\.\d{4})  ", captured.out, re.MULTILINE)
    assert values and set(values) == {"+0.0000"}


def test_cli_matrix_warns_on_a_pair_activity_no_node_labels(
    tmp_path, running_example_file, capsys
):
    rc = main(["matrix", "--log", str(running_example_file), "--noise", "0,1",
               *TYPO_PAIR, "--method", "exact", "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    records = json.loads((tmp_path / "report.json").read_text())["configurations"]
    assert len(records) == 2
    for record in records:
        assert record["cache"]["warnings"] == [TYPO_WARNING]
        assert f"warning: {record['id']}: {TYPO_WARNING}" in err
        assert set(record["phi"].values()) == {0.0}
    assert err.count(TYPO_WARNING) == 2  # once per configuration


def test_cli_verify_warns_on_a_pair_activity_no_node_labels(
    tmp_path, running_example_file, capsys
):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    capsys.readouterr()
    tree = ["verify", "--tree", str(tmp_path / "tree.txt")]
    assert main([*tree, "--property", "sat,saf", "--safety-pair",
                 "pay compensation,reject request"]) == 0
    assert capsys.readouterr().err == ""
    assert main([*tree, *TYPO_PAIR]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {TYPO_WARNING}\n"
    assert json.loads(captured.out.splitlines()[-1])["values"] == {"saf": 1}


def test_cli_verify_prints_warnings_in_order_through_a_garbage_prover(tmp_path, capsys):
    """Each property's cache records its own prover warnings; verify
    prints every degenerate warning first, then the prover's, in
    property order.  The prover prints bytes that are not UTF-8."""
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("seq\n  act a\n  act b\n")
    garbage = tmp_path / "garbage.sh"
    garbage.write_text("#!/bin/sh\nprintf '\\377\\376'\n")
    garbage.chmod(0o755)
    rc = main(["verify", "--tree", str(tree_file), "--tau", "skip",
               "--property", "sat,liv,saf", "--safety-pair", "a,zz",
               "--backend", "prover", "--prover-path", str(garbage)])
    assert rc == 0
    captured = capsys.readouterr()
    unknown = "warning: prover returned Unknown for {}; treating as 0"
    assert captured.err.splitlines() == [
        "warning: sat is degenerate in skip mode: every coalition evaluates to 1",
        "warning: liv is degenerate in skip mode: every coalition evaluates to 1",
        "warning: saf is degenerate: no node is labelled 'zz', "
        "so every coalition evaluates to 1",
        unknown.format("sat"),
        unknown.format("liv's sat gate"),
        unknown.format("saf"),
    ]
    assert json.loads(captured.out.splitlines()[-1])["values"] == {
        "sat": 0, "liv": 0, "saf": 0,
    }


def test_cli_attribute_exact(running_example_file, capsys):
    rc = main(["attribute", "--log", str(running_example_file), "--noise", "0.0",
               "--property", "sat", "--method", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Seq3@0" in out and "+0.1072" in out


def test_cli_attribute_prints_and_checks_every_configuration(
    monkeypatch, tmp_path, running_example_file, capsys
):
    args = ["attribute", "--log", str(running_example_file), "--noise", "0",
            "--method", "exact"]
    assert main([*args, "--property", "sat,liv"]) == 0
    out = capsys.readouterr().out
    assert "configuration noise0_sat:" in out and "configuration noise0_liv:" in out
    assert out.index("noise0_sat") < out.index("noise0_liv")

    def refusing_liv(tree, spec):
        if spec.prop is Property.LIV:
            raise ValueError("refused")
        return tree_shapley(tree, spec)

    monkeypatch.setattr(reports, "tree_shapley", refusing_liv)
    out_dir = tmp_path / "out"
    assert main([*args, "--property", "sat,liv", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("configuration noise0_sat:")
    assert "noise0_liv" not in captured.out
    assert captured.err == "error: noise0_liv: ValueError: refused\n"
    assert not out_dir.exists()
    # One property: the error line names no configuration, as before.
    assert main([*args, "--property", "liv", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: ValueError: refused\n")
    assert not out_dir.exists()


def test_cli_matrix_and_outputs(tmp_path, running_example_file, capsys):
    rc = main([
        "matrix", "--log", str(running_example_file),
        "--noise", "0.0,1.0", "--property", "sat,saf",
        "--safety-pair", "pay compensation,reject request",
        "--method", "mc", "--permutations", "300", "--seed", "11",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ran 4 configurations" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["meta"]["configuration_count"] == 4


def test_cli_dot_carries_values_of_labels_with_spaces(tmp_path):
    log = tmp_path / "spaces.xes"
    log.write_bytes(dump_xes(EventLog(Counter([("a ", "b"), ("a ", "c")]))))
    out = tmp_path / "out"
    rc = main(["matrix", "--log", str(log), "--noise", "0", "--property", "sat",
               "--method", "exact", "--out", str(out)])
    assert rc == 0
    (record,) = json.loads((out / "report.json").read_text())["configurations"]
    phi = record["phi"]["a @1"]
    assert phi != 0
    assert f'label="a @1\\n{phi:.3f}"' in (out / "tree_noise0_sat.dot").read_text()


# "a&#10;x" is an activity label with a line break in it.
LINE_BREAK_XES = b"""<?xml version="1.0" encoding="UTF-8"?>
<log>
  <trace>
    <event><string key="concept:name" value="a&#10;x"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="a&#10;x"/></event>
    <event><string key="concept:name" value="c"/></event>
  </trace>
</log>
"""


@pytest.fixture
def line_break_log(tmp_path):
    path = tmp_path / "line_break.xes"
    path.write_bytes(LINE_BREAK_XES)
    return path


def test_cli_matrix_and_report_with_line_break_in_label(tmp_path, line_break_log):
    out = tmp_path / "out"
    rc = main(["matrix", "--log", str(line_break_log), "--property", "sat",
               "--method", "exact", "--out", str(out)])
    assert rc == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(
        ["report.json", "rankings.csv", "noise_series.csv", "summary.txt"]
        + [f"tree_noise{noise}_sat.dot" for noise in ("0", "0.25", "0.5", "1")]
    )
    record = json.loads((out / "report.json").read_text())["configurations"][0]
    assert "act a\\u000ax\n" in record["tree"]
    assert "a\nx@1" in record["phi"]

    again = tmp_path / "again"
    rc = main(["report", "--in", str(out / "report.json"), "--out", str(again)])
    assert rc == 0
    for name in written:
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_cli_mine_then_verify_with_line_break_in_label(
    tmp_path, line_break_log, capsys
):
    rc = main(["mine", "--log", str(line_break_log), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property",
               "sat,saf", "--safety-pair", "a\nx,b"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sat: 1" in out and "saf: 0" in out


@pytest.mark.parametrize("command", ["mine", "attribute", "matrix"])
@pytest.mark.parametrize("noise", ["1.5", "-0.5", "nan"])
def test_cli_noise_outside_unit_interval_is_a_usage_error(
    tmp_path, running_example_file, capsys, command, noise
):
    argv = [command, "--log", str(running_example_file), f"--noise={noise}"]
    if command == "matrix":
        argv += ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --noise: noise {float(noise)} outside [0, 1]" in captured.err
    assert captured.out == ""


def test_cli_matrix_requires_seed_for_mc(tmp_path, running_example_file, capsys):
    rc = main(["matrix", "--log", str(running_example_file),
               "--property", "sat", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_matrix_rejects_empty_log(tmp_path, capsys):
    log = tmp_path / "empty.xes"
    log.write_bytes(b"<log></log>")
    rc = main(["matrix", "--log", str(log), "--property", "sat",
               "--method", "exact", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(log) in err and "no traces" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--noise", "0,0.0", "--property", "sat"], "duplicate configurations: noise0_sat"),
    (["--noise", "0,0.5,0", "--property", "sat,liv,sat"],
     "duplicate configurations: noise0_sat, noise0_liv, noise0.5_sat"),
    (["--noise", "0", "--property", "sat", "--method", "mc", "--seed", "1",
      "--permutations", "0"], "permutations must be at least 1"),
    (["--noise", "0", "--property", "sat", "--method", "rs", "--seed", "1",
      "--samples", "0"], "samples_per_player must be at least 1"),
    (["--noise", "0"], "--safety-pair A,B is required for the saf property"),
    (["--noise", "0", "--property", "sat", "--backend", "prover"],
     "--prover-path is required with --backend prover"),
])
def test_cli_matrix_rejects_bad_run_config_before_mining(
    tmp_path, running_example_file, monkeypatch, capsys, flags, message
):
    def no_parse(*args, **kwargs):
        raise AssertionError("the log was read before the configuration was checked")

    monkeypatch.setattr(reports, "parse_xes", no_parse)
    out = tmp_path / "out"
    argv = ["matrix", "--log", str(running_example_file), "--method", "exact",
            *flags, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_cli_config_file(tmp_path, running_example_file, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "# defaults\n"
        f"log = {running_example_file}\n"
        "noise = 0.0,1.0\n"
        "property = sat\n"
        "method = mc\n"
        "permutations = 200\n"
        "seed = 3\n"
    )
    out_dir = tmp_path / "out"
    rc = main(["--config", str(config_file), "matrix", "--log",
               str(running_example_file), "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["meta"]["seed"] == 3
    assert report["meta"]["configuration_count"] == 2


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--seed=5"]])
def test_cli_flags_override_config_file(tmp_path, flags):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 3\nmethod = exact\n")
    parser = build_parser()
    argv = ["--config", str(config_file), "matrix", "--log", "x.xes",
            "--out", "out", *flags]
    args = parser.parse_args(_apply_config_file(parser, argv))
    assert args.seed == 5
    assert args.method == "exact"


def test_cli_config_given_with_equals(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 3\n")
    parser = build_parser()
    argv = [f"--config={config_file}", "matrix", "--log", "x.xes", "--out", "out"]
    args = parser.parse_args(_apply_config_file(parser, argv))
    assert args.seed == 3


@pytest.mark.parametrize("equals", [False, True])
@pytest.mark.parametrize("after_subcommand", [False, True])
def test_cli_config_before_or_after_subcommand(tmp_path, equals, after_subcommand):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 3\n")
    flag = [f"--config={config_file}"] if equals else ["--config", str(config_file)]
    command = ["matrix", "--log", "x.xes", "--out", "out"]
    argv = command + flag if after_subcommand else flag + command
    parser = build_parser()
    args = parser.parse_args(_apply_config_file(parser, argv))
    assert args.seed == 3
    assert args.log == "x.xes" and args.out == "out"


def test_cli_config_after_subcommand_runs(tmp_path, running_example_file, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("noise = 1.0\nproperty = sat\nmethod = exact\n")
    out_dir = tmp_path / "out"
    rc = main(["matrix", "--log", str(running_example_file), "--out", str(out_dir),
               "--config", str(config_file)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["meta"]["method"] == "exact"
    assert report["meta"]["configuration_count"] == 1


def test_cli_config_serves_several_subcommands(tmp_path, running_example_file, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("permutations = 50\nseed = 3\nproperty = sat\n")
    rc = main(["mine", "--log", str(running_example_file),
               "--config", str(config_file)])
    assert rc == 0
    out_dir = tmp_path / "out"
    rc = main(["--config", str(config_file), "matrix", "--log",
               str(running_example_file), "--noise", "1.0", "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["meta"]["seed"] == 3
    assert report["meta"]["configuration_count"] == 1  # property = sat applies


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 3\npermutation = 50\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["mine", "--log", "x.xes", "--config", str(config_file)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"error: {config_file}:2: unknown config key 'permutation'" in err


def test_cli_config_takes_every_long_flag(tmp_path, running_example_file, capsys):
    # keys are the subcommands' long flags, including those only mine has
    config_file = tmp_path / "run.conf"
    config_file.write_text("max-depth = 1\n")
    assert main(["mine", "--log", str(running_example_file), "--max-depth", "1"]) == 0
    flagged = capsys.readouterr()
    assert main(["mine", "--log", str(running_example_file),
                 "--config", str(config_file)]) == 0
    assert capsys.readouterr() == flagged
    assert main(["mine", "--log", str(running_example_file)]) == 0
    assert capsys.readouterr().out != flagged.out


@pytest.mark.parametrize("key", ["config", "help"])
def test_cli_config_rejects_non_subcommand_flags(tmp_path, capsys, key):
    config_file = tmp_path / "run.conf"
    config_file.write_text(f"{key} = x\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["mine", "--log", "x.xes", "--config", str(config_file)])
    assert excinfo.value.code == 2
    assert f"error: {config_file}:1: unknown config key {key!r}" in capsys.readouterr().err


def test_cli_config_rejects_line_without_equals(tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("# defaults\nseed 3\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", str(config_file), "mine", "--log", "x.xes"])
    assert excinfo.value.code == 2
    assert f"error: {config_file}:2: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("equals", ["first", "second"])
@pytest.mark.parametrize("places", [(0, 0), (1, 1), (0, 1)], ids=["before", "after", "around"])
def test_cli_config_rejects_a_second_config(tmp_path, running_example_file, capsys,
                                            equals, places):
    first, second = tmp_path / "a.conf", tmp_path / "b.conf"
    first.write_text("noise = 0.25\n")
    second.write_text("noise = 0.5\n")
    flags = [
        [f"--config={path}"] if equals == which else ["--config", str(path)]
        for which, path in [("first", first), ("second", second)]
    ]
    parts: list[list[str]] = [[], ["mine", "--log", str(running_example_file)], []]
    for flag, place in zip(flags, places):
        parts[2 * place] += flag
    with pytest.raises(SystemExit) as excinfo:
        main([arg for part in parts for arg in part])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --config: given more than once" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv", [["matrix", "--config"], ["--config", "missing.conf", "matrix"]]
)
def test_cli_config_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "argument --config" in err


def fake_prover_wrapper(tmp_path: Path) -> Path:
    from test_logic_encoder import FAKE_PROVER

    wrapper = tmp_path / "prover"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_PROVER}" "$@"\n')
    wrapper.chmod(0o755)
    return wrapper


def test_cli_prover_backend_and_dump(tmp_path, running_example_file, capsys):
    wrapper = fake_prover_wrapper(tmp_path)
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("seq\n  act a\n  xor\n    act b\n    act c\n")
    dump_dir = tmp_path / "problems"
    rc = main([
        "verify", "--tree", str(tree_file), "--property", "sat,liv",
        "--backend", "prover", "--prover-path", str(wrapper),
        "--timeout-ms", "30000", "--dump-tptp", str(dump_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sat: 1" in out and "liv: 1" in out
    assert list(dump_dir.glob("*.p"))  # emitted problems were dumped


def test_seed_separation(running_example_file):
    # different base seeds must give different per-config streams
    r1 = run_matrix(small_config(running_example_file, seed=1))
    r2 = run_matrix(small_config(running_example_file, seed=2))
    phi1 = r1.configurations[0]["phi"]
    phi2 = r2.configurations[0]["phi"]
    assert phi1 != phi2


@pytest.mark.parametrize("backend, expected", [
    ([], "prover"),
    (["--backend", "oracle"], "oracle"),
])
def test_cli_prover_path_selects_the_prover_unless_the_backend_is_named(
    tmp_path, tiny_log_file, capsys, backend, expected
):
    out = tmp_path / "out"
    rc = main(["matrix", "--log", str(tiny_log_file), "--noise", "0", "--property", "sat",
               "--method", "exact", "--prover-path", str(fake_prover_wrapper(tmp_path)),
               "--timeout-ms", "30000", *backend, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["backend"] == expected


@pytest.mark.parametrize("backend", [[], ["--backend", "oracle"]])
def test_cli_dump_tptp_on_the_oracle_is_an_error(
    tmp_path, tiny_log_file, capsys, backend
):
    prover_path = ["--prover-path", str(fake_prover_wrapper(tmp_path))] if backend else []
    out, dump = tmp_path / "out", tmp_path / "dump"
    rc = main(["matrix", "--log", str(tiny_log_file), "--noise", "0", "--property", "sat",
               "--method", "exact", *backend, *prover_path, "--dump-tptp", str(dump),
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --dump-tptp needs --backend prover\n"
    assert captured.out == ""
    assert not out.exists() and not dump.exists()

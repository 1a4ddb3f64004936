from __future__ import annotations

import csv
import json
import shutil
import threading
from pathlib import Path

import pytest

from procshap import reports
from procshap.cli import _apply_config_file, build_parser, main
from procshap.oracle import Property, PropertySpec
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
    with pytest.raises(ValueError, match="prover"):
        RunConfig(log_path=str(running_example_file), method="exact", backend="prover")


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
    prover = exact_report(backend="prover", prover=fake_prover_config())
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
            backend="prover",
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
            game, permutations=300, seed=5, checkpoint_every=config.checkpoint_every,
            epsilon=config.epsilon, min_permutations=300,
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
    def failing_on_14_nodes(game):
        if game.n == 14:  # the noise-0 tree; noise 1 mines 13 nodes
            raise ValueError("refused")
        return tree_shapley(game)

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


# -- CLI ------------------------------------------------------------------


def test_cli_mine(tmp_path, running_example_file, capsys):
    rc = main(["mine", "--log", str(running_example_file), "--noise", "0.0",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "traces: 6" in out and "nodes: 14" in out
    assert (tmp_path / "tree.txt").exists()
    assert (tmp_path / "tree.dot").read_text().startswith("digraph")


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

    rc = main(["verify", "--tree", tree_file, "--property", "saf",
               "--safety-pair", "pay compensation,reject request"])
    assert rc == 0
    assert "saf: 1" in capsys.readouterr().out


def test_cli_verify_requires_pair(tmp_path, running_example_file):
    main(["mine", "--log", str(running_example_file), "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["verify", "--tree", str(tmp_path / "tree.txt"), "--property", "saf"])


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


def test_cli_attribute_exact(running_example_file, capsys):
    rc = main(["attribute", "--log", str(running_example_file), "--noise", "0.0",
               "--property", "sat", "--method", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Seq3@0" in out and "+0.1072" in out


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


def test_cli_config_rejects_unknown_key(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed = 3\npermutation = 50\n")
    with pytest.raises(SystemExit, match="unknown config key 'permutation'"):
        main(["mine", "--log", "x.xes", "--config", str(config_file)])


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


def test_cli_prover_backend_and_dump(tmp_path, running_example_file, capsys):
    import os
    import sys

    from test_logic_encoder import FAKE_PROVER

    wrapper = tmp_path / "prover"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_PROVER}" "$@"\n')
    wrapper.chmod(0o755)

    # small tree: the fake prover decides by exhaustive enumeration
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

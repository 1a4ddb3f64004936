"""Command-line front-end.

Subcommands mirror the pipeline stages so each is exercisable on its own:

* ``mine``       log -> process tree (debug text + DOT)
* ``verify``     tree + coalition -> property values
* ``attribute``  one (noise, property) configuration
* ``matrix``     full noise x property sweep with reports
* ``report``     re-render output files from an existing report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagnostics import DiagnosticsConfig
from .event_log import parse_xes
from .logic_encoder import ProverConfig
from .miner import MinerConfig, discover
from .oracle import (
    Property,
    PropertySpec,
    TauMode,
    ValueCache,
    coalition_rows,
    evaluate_rows,
)
from .process_tree import export_dot, node_count, tree_from_text, tree_to_text
from .reports import (
    DEFAULT_NOISE_LEVELS,
    AttributionReport,
    RunConfig,
    emit_report,
    run_matrix,
    warn_if_degenerate,
)

def _parse_noise(text: str) -> float:
    try:
        level = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"noise {text!r} is not a number") from None
    if not 0.0 <= level <= 1.0:
        raise argparse.ArgumentTypeError(f"noise {level} outside [0, 1]")
    return level


def _parse_noise_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_noise(x) for x in text.split(","))


def _parse_pair(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            "safety pair must be two comma-separated activity labels"
        )
    return parts[0], parts[1]


def _build_specs(args) -> tuple[PropertySpec, ...]:
    mode = TauMode(args.tau)
    specs = []
    for name in args.property.split(","):
        name = name.strip()
        prop = Property(name)
        pair = args.safety_pair if prop is Property.SAF else None
        if prop is Property.SAF and pair is None:
            raise ValueError("--safety-pair A,B is required for the saf property")
        specs.append(
            PropertySpec(
                prop=prop, safety_pair=pair, mode=mode, loop_bound=args.loop_bound
            )
        )
    return tuple(specs)


def _prover_config(args) -> ProverConfig | None:
    """The prover's config, or None for the oracle.  Without ``--backend``,
    ``--prover-path`` selects the prover, as a ``ProverConfig`` does in the
    library; ``--dump-tptp`` saves prover problems, so the oracle refuses it."""
    backend = args.backend or ("prover" if args.prover_path else "oracle")
    if backend == "oracle":
        if args.dump_tptp:
            raise ValueError("--dump-tptp needs --backend prover")
        return None
    if not args.prover_path:
        raise ValueError("--prover-path is required with --backend prover")
    return ProverConfig(
        executable=args.prover_path,
        timeout_s=args.timeout_ms / 1000.0,
        dump_dir=args.dump_tptp,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", choices=["blocked", "skip"], default="blocked")
    parser.add_argument("--loop-bound", type=int, default=1, metavar="K")
    parser.add_argument("--backend", choices=["oracle", "prover"], default=None,
                        help="default: prover when --prover-path is given, else oracle")
    parser.add_argument("--prover-path", default=None)
    parser.add_argument("--timeout-ms", type=int, default=2000)
    parser.add_argument("--dump-tptp", default=None, metavar="DIR")


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=["exact", "mc", "rs"], default="mc")
    parser.add_argument("--permutations", type=int, default=2000)
    parser.add_argument("--samples", type=int, default=200,
                        help="random subsets per player for --method rs")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--critical-threshold", type=float, default=0.1)
    parser.add_argument("--redundant-threshold", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procshap",
        description="Mine process trees from event logs and attribute "
        "property satisfaction to workflow nodes via Shapley values.",
    )
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value defaults file, before or after the "
                        "subcommand; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="discover a process tree from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--noise", type=_parse_noise, default=0.0)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--out", default=None, metavar="DIR")

    p = sub.add_parser("verify", help="evaluate properties of a coalition")
    p.add_argument("--tree", required=True, help="tree debug text file")
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--coalition", default=None,
                        help="'all' (the default) or comma-separated node "
                        "indices to keep")
    chosen.add_argument("--exclude", default=None,
                        help="comma-separated node indices to drop")
    p.add_argument("--property", default="sat,liv,saf")
    p.add_argument("--safety-pair", type=_parse_pair, default=None, metavar="A,B")
    _add_common(p)

    p = sub.add_parser("attribute", help="attribution for one configuration")
    p.add_argument("--log", required=True)
    p.add_argument("--noise", type=_parse_noise, default=0.0)
    p.add_argument("--property", default="sat")
    p.add_argument("--safety-pair", type=_parse_pair, default=None, metavar="A,B")
    p.add_argument("--out", default=None, metavar="DIR")
    _add_common(p)
    _add_method(p)

    p = sub.add_parser("matrix", help="full noise x property sweep")
    p.add_argument("--log", required=True)
    p.add_argument("--noise", type=_parse_noise_list, default=None,
                   metavar="L1,L2,...")
    p.add_argument("--property", default="sat,liv,saf")
    p.add_argument("--safety-pair", type=_parse_pair, default=None, metavar="A,B")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_common(p)
    _add_method(p)

    p = sub.add_parser("report", help="re-render files from report.json")
    p.add_argument("--in", dest="report_path", required=True, metavar="REPORT.JSON")
    p.add_argument("--out", required=True, metavar="DIR")

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Take ``--config FILE`` (or ``--config=FILE``, given once) out of
    *argv*, before or after the subcommand, and append the file's value
    for every flag the subcommand defines and the command line does not
    give, whether written ``--key value`` or ``--key=value``.  A key is
    the name of any subcommand's long flag without its dashes; other keys
    are an error, and known keys that the subcommand lacks are skipped,
    so one file can serve several subcommands."""

    given = [arg.split("=", 1)[0] for arg in argv]
    if "--config" not in given:
        return argv
    if given.count("--config") > 1:
        parser.error("argument --config: given more than once")
    index = given.index("--config")
    if argv[index] != "--config":
        path = argv[index].split("=", 1)[1]
        out = argv[:index] + argv[index + 1 :]
    elif index + 1 < len(argv):
        path = argv[index + 1]
        out = argv[:index] + argv[index + 2 :]
    else:
        parser.error("argument --config: expected one argument")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"argument --config: {exc}")
    (commands,) = (
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    subparsers = commands.choices
    known = {
        flag for sub in subparsers.values() for flag in sub._option_string_actions
        if flag.startswith("--") and flag != "--help"
    }
    defaults = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if f"--{key}" not in known:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        defaults[f"--{key}"] = value
    name = next((arg for arg in out if not arg.startswith("-")), None)
    flags = subparsers[name]._option_string_actions if name in subparsers else {}
    for flag, value in defaults.items():
        if flag in flags and flag not in given:
            out += [flag, value]
    return out


def _mask_from_args(args, n: int) -> int:
    """The mask of the nodes ``verify`` keeps; the first bad entry raises."""
    if not args.exclude and args.coalition in (None, "all"):
        return (1 << n) - 1
    flag = "--exclude" if args.exclude else "--coalition"
    mask = 0
    for entry in (args.exclude or args.coalition).split(","):
        try:
            index = int(entry)
        except ValueError:
            raise ValueError(f"{flag}: {entry!r} is not a node index") from None
        if not 0 <= index < n:
            raise ValueError(f"index {index} outside 0..{n - 1}")
        mask |= 1 << index
    return (1 << n) - 1 & ~mask if args.exclude else mask


def cmd_mine(args) -> int:
    log = parse_xes(args.log)
    if not log.variants:
        raise ValueError(f"event log {args.log} has no traces")
    tree = discover(log, MinerConfig(noise=args.noise, max_depth=args.max_depth))
    text = tree_to_text(tree)
    print(f"traces: {len(log)}  alphabet: {len(log.alphabet)}  "
          f"nodes: {node_count(tree)}")
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tree.txt").write_text(text)
        (out / "tree.dot").write_text(export_dot(tree))
        print(f"wrote {out / 'tree.txt'} and {out / 'tree.dot'}")
    return 0


def cmd_verify(args) -> int:
    tree = tree_from_text(Path(args.tree).read_text())
    n = node_count(tree)
    mask = _mask_from_args(args, n)
    specs = _build_specs(args)
    names = [spec.prop.value for spec in specs]
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise ValueError(f"duplicate properties: {', '.join(repeated)}")
    warnings: list[str] = []
    for spec in specs:
        warn_if_degenerate(tree, spec, warnings)
    prover = _prover_config(args)
    prover_memo: dict = {}  # liv's sat gate reuses sat's status
    rows = coalition_rows([mask], n)
    results = {}
    for spec in specs:
        cache = ValueCache(tree, spec, prover, prover_memo)  # one per configuration
        value = int(evaluate_rows(cache, rows)[0])
        warnings += cache.warnings
        results[spec.prop.value] = value
        print(f"{spec.prop.value}: {value}")
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    members = [i for i in range(n) if mask >> i & 1]
    print(json.dumps({"coalition": members, "values": results}))
    return 0


def _run_config_from_args(args, noise_levels) -> RunConfig:
    return RunConfig(
        log_path=args.log,
        noise_levels=noise_levels,
        properties=_build_specs(args),
        method=args.method,
        permutations=args.permutations,
        samples_per_player=args.samples,
        seed=args.seed,
        prover=_prover_config(args),
        diagnostics=DiagnosticsConfig(
            critical_threshold=args.critical_threshold,
            redundant_threshold=args.redundant_threshold,
            top_k=args.top_k,
        ),
    )


def cmd_attribute(args) -> int:
    config = _run_config_from_args(args, (args.noise,))
    report = run_matrix(config)
    failed = False
    for record in report.configurations:
        # With several properties, stderr lines name their configuration.
        tag = f"{record['id']}: " if len(report.configurations) > 1 else ""
        if record.get("error"):
            print(f"error: {tag}{record['error']}", file=sys.stderr)
            failed = True
            continue
        print(f"configuration {record['id']}: {record['node_count']} nodes, "
              f"{record['cache']['total_queries']} queries "
              f"({record['cache']['distinct_queries']} distinct)")
        phi = record["phi"]
        for node in sorted(phi, key=lambda k: -abs(phi[k])):
            cls = record["classification"][node]
            print(f"  {node:<28} {phi[node]:+.4f}  {cls['class']}"
                  + ("  harmful" if cls["harmful"] else ""))
        for message in record["cache"]["warnings"]:
            print(f"warning: {tag}{message}", file=sys.stderr)
    if failed:
        return 1
    if args.out:
        paths = emit_report(report, args.out)
        print(f"wrote {len(paths)} files to {args.out}")
    return 0


def cmd_matrix(args) -> int:
    noise_levels = args.noise or DEFAULT_NOISE_LEVELS
    config = _run_config_from_args(args, noise_levels)
    report = run_matrix(config)
    paths = emit_report(report, args.out)
    for record in report.configurations:
        for message in record.get("cache", {}).get("warnings", ()):
            print(f"warning: {record['id']}: {message}", file=sys.stderr)
    failures = [r["id"] for r in report.configurations if r.get("error")]
    print(f"ran {len(report.configurations)} configurations "
          f"({len(noise_levels)} noise x {len(config.properties)} properties); "
          f"wrote {len(paths)} files to {args.out}")
    if failures:
        print(f"failed configurations: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    report = AttributionReport.from_json(Path(args.report_path).read_text())
    paths = emit_report(report, args.out)
    print(f"re-rendered {len(paths)} files to {args.out}")
    return 0


COMMANDS = {
    "mine": cmd_mine,
    "verify": cmd_verify,
    "attribute": cmd_attribute,
    "matrix": cmd_matrix,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

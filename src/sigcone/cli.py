"""Command line entry point: run verification suites and convergence studies."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    MIN_NODES,
    STUDY_OPS,
    SUITE_NAMES,
    SuiteConfig,
    convergence_study,
    default_config,
    output_dir,
    run_suite,
    study_decays,
    write_report,
)


def _load_config(suite: str, args: argparse.Namespace) -> SuiteConfig:
    """The suite's default config with the keys the --config file names, then the flags, put over it."""
    overrides = {}
    if args.config:
        text = Path(args.config).read_text()
        loaded = SuiteConfig.loads(text)
        overrides = {key: getattr(loaded, key) for key in json.loads(text)}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.nodes is not None:
        overrides["nodes_per_dim"] = args.nodes
    if args.trials is not None:
        overrides["trials"] = args.trials
    return default_config(suite, **overrides)


def _report_path(args: argparse.Namespace, config: SuiteConfig, name: str) -> Path:
    out = args.out or config.output_path
    if out:
        out = Path(out)
        if len(_selected_suites(args)) == 1 and out.suffix:
            return out
        return out / f"{name}.report.jsonl"
    return output_dir() / f"{name}.report.jsonl"


def _selected_suites(args: argparse.Namespace) -> list[str]:
    return list(SUITE_NAMES) if args.suite == "all" else [args.suite]


def _configs(args: argparse.Namespace) -> SuiteConfig | dict[str, SuiteConfig]:
    """What the command runs on; a refused config or argument raises ValueError or OSError."""
    if args.command == "study":
        return SuiteConfig() if args.seed is None else SuiteConfig(seed=args.seed)
    return {name: _load_config(name, args) for name in _selected_suites(args)}


def _cmd_verify(args: argparse.Namespace, configs: dict[str, SuiteConfig]) -> int:
    failures = 0
    for name, config in configs.items():
        result = run_suite(name, config)
        path = _report_path(args, config, name)
        write_report(path, result)
        n_fail = sum(1 for r in result.rows if not r.verdict)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {name}: {len(result.rows)} rows, {n_fail} failures "
              f"({result.elapsed_ms:.0f} ms) -> {path}")
        if not result.passed:
            failures += 1
            for r in result.rows:
                if not r.verdict:
                    print(f"  fail {r.case_id}: rel_err={r.rel_err:.3e}")
    return 1 if failures else 0


def _ladder(text: str) -> list[int]:
    ladder = [int(tok) for tok in text.split(",")]
    if ladder != sorted(set(ladder)) or ladder[0] < MIN_NODES:
        raise argparse.ArgumentTypeError(f"{text!r} is not a strictly increasing list of node counts >= {MIN_NODES}")
    return ladder


def _cmd_study(args: argparse.Namespace, config: SuiteConfig) -> int:
    rows, failures = [], 0
    print(f"{'op_id':>24} {'nodes':>8} {'rel_err':>14}")
    for op in STUDY_OPS if args.op_id == "all" else [args.op_id]:
        op_rows = convergence_study(op, args.ladder, config)
        for r in op_rows:
            print(f"{op:>24} {r.nodes:>8} {r.rel_err:>14.6e}")
        decays = study_decays(op_rows)
        print(f"{op:>24} decay: {'yes' if decays else 'NO'}")
        failures += not decays
        rows += op_rows
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{r.op_id} {r.nodes} {r.rel_err!r}" for r in rows]
        path.write_text("\n".join(lines) + "\n")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sigcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    p_verify.add_argument("--config", help="JSON file with SuiteConfig fields")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--nodes", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument(
        "--out", help="report file (single suite) or directory; default: the config's output_path"
    )
    p_verify.set_defaults(parser=p_verify, func=_cmd_verify)

    p_study = sub.add_parser("study", help="error versus node count for one operation, or for all")
    p_study.add_argument("op_id", choices=(*STUDY_OPS, "all"))
    p_study.add_argument("--ladder", type=_ladder, default="16,32,64")
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--out")
    p_study.set_defaults(parser=p_study, func=_cmd_study)

    args = parser.parse_args(argv)
    try:
        configs = _configs(args)
    except (ValueError, OSError) as exc:  # a usage error: one line on stderr, exit status 2
        args.parser.error(str(exc))
    return args.func(args, configs)


if __name__ == "__main__":
    sys.exit(main())

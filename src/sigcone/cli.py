"""Command line entry point: run verification suites and convergence studies."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
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
    if args.config:
        config = SuiteConfig.loads(Path(args.config).read_text())
    else:
        config = default_config(suite)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.nodes is not None:
        overrides["nodes_per_dim"] = args.nodes
    if args.trials is not None:
        overrides["trials"] = args.trials
    return replace(config, **overrides) if overrides else config


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


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name in _selected_suites(args):
        config = _load_config(name, args)
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


def _cmd_study(args: argparse.Namespace) -> int:
    ladder = [int(tok) for tok in args.ladder.split(",")]
    config = SuiteConfig() if args.seed is None else SuiteConfig(seed=args.seed)
    rows = convergence_study(args.op_id, ladder, config)
    print(f"{'nodes':>8} {'rel_err':>14}")
    for r in rows:
        print(f"{r.nodes:>8} {r.rel_err:>14.6e}")
    decays = study_decays(rows)
    print(f"decay: {'yes' if decays else 'NO'}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{r.op_id} {r.nodes} {r.rel_err!r}" for r in rows]
        path.write_text("\n".join(lines) + "\n")
    return 0 if decays else 1


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
    p_verify.set_defaults(func=_cmd_verify)

    p_study = sub.add_parser("study", help="error versus node count for one operation")
    p_study.add_argument("op_id", choices=STUDY_OPS)
    p_study.add_argument("--ladder", default="16,32,64")
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--out")
    p_study.set_defaults(func=_cmd_study)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

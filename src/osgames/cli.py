"""Command-line surface for the engine.

Subcommands: match, meta, label, metrics, transform, tournament, evolve,
flow.  Every command that takes --seed is bit-reproducible; persistent
outputs are canonical JSON/CSV written atomically.  Exit codes: 0 success,
1 completed with domain faults (runtime faults in a match, unlabelable
corpus files), 2 usage or input errors.

A --config JSON file may hold any of a command's long options (flags given
on the command line win); a run directory's manifest.json holds the run's
options in that form, so its config re-runs the command.  OSGAMES_OUT_DIR
provides the default base directory for relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, evolution, labeling, metrics as metrics_mod
from ._pool import pool_map
from .arena import ArenaError, MatchConfig, play_match, round_robin
from .metagame import MetaGameError, check_judge_labels, merge_judge_labels, run_meta_game
from .program import ProgramError, load_program_file, read_source_file
from .providers import ProviderError, providers_from_config
from .rng import SplitMix64
from .runio import atomic_write_json, atomic_write_text, canonical_json_bytes, write_manifest
from .runtime import Budget
from .slang import parse_source, render
from .slang.validator import GAME_IPD, GAMES
from .transforms import mask, obfuscate, strip_comments

OUT_DIR_ENV = "OSGAMES_OUT_DIR"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _out_path(arg: str | None, default_name: str) -> Path:
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    if arg is None:
        return base / default_name
    path = Path(arg)
    return path if path.is_absolute() else base / path


def _load_programs(paths: list[str], game: str):
    """(file stem, program) for each program file."""
    return [(Path(path).stem, load_program_file(path, game=game)) for path in paths]


def _payoffs_from(arg: str | None):
    from .games import PayoffParams

    if arg is None:
        return PayoffParams()
    try:
        t, r, p, s = (int(v) for v in arg.split(","))
        return PayoffParams(t, r, p, s)
    except ValueError as exc:
        raise CliError(f"bad --payoffs {arg!r}: {exc}") from exc


def _read_json(path: str, what: str):
    """The JSON value in the file; CliError names the file if it cannot be
    read or is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # UnicodeDecodeError and JSONDecodeError, and JSON nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the ValueError of an out-of-range option
    value as a CliError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


#: Options that change no byte of a run's outputs (the tables are the same
#: for any --jobs), so a manifest's config leaves them out.
_NOT_RUN_CONFIG = frozenset({"help", "out", "config", "jobs"})


def _write_manifest(args, outdir: Path, inputs, artifacts) -> None:
    """The run's manifest.  Its config holds every option of the command
    that is set, under the key --config takes for it."""
    config = {
        a.dest: getattr(args, a.dest)
        for a in args._registry[args.command]._actions
        if a.dest not in _NOT_RUN_CONFIG and getattr(args, a.dest) is not None
    }
    write_manifest(outdir, args.command, config, inputs, artifacts)


def _match_config(args) -> MatchConfig:
    rounds = args.rounds
    # Only match and meta have the coin alias; evolve's --steps is for RK4.
    if args.game == "coin" and getattr(args, "coin_steps", None) is not None:
        rounds = args.coin_steps
    return _checked(
        MatchConfig,
        game=args.game,
        rounds=rounds,
        payoffs=_payoffs_from(args.payoffs),
        budget=_checked(Budget, step_limit=args.step_limit),
        fallback=getattr(args, "fallback", None),
        seed=args.seed,
        board_size=args.board_size,
    )


# --------------------------------------------------------------------------
# subcommands


def cmd_match(args) -> int:
    (_, pa), (_, pb) = _load_programs([args.program_a, args.program_b], args.game)
    record = play_match(pa, pb, _match_config(args))
    print(f"A {pa.origin}: {record.totals[0]}")
    print(f"B {pb.origin}: {record.totals[1]}")
    if record.faults:
        print(f"faults: {len(record.faults)}")
    path = _out_path(args.out, "match.json")
    atomic_write_json(path, record.to_json_dict())
    print(f"record: {path}")
    return EXIT_DOMAIN if record.faults else EXIT_OK


def cmd_meta(args) -> int:
    if args.seeds < 1:
        raise CliError("seeds must be at least 1")
    spec = _read_json(args.providers, "providers config")
    sidecar = None
    if args.judge_labels:
        sidecar = _read_json(args.judge_labels, "judge labels")
        try:  # before any provider starts
            check_judge_labels(sidecar, args.meta_rounds)
        except MetaGameError as exc:
            raise CliError(f"bad judge labels {args.judge_labels}: {exc}") from exc
    outdir = _out_path(args.out, "meta_run")
    base_cfg = _match_config(args)
    artifacts = []
    for i in range(args.seeds):
        seed = args.seed + i
        prov_a, prov_b = providers_from_config(spec)
        cfg = dataclasses.replace(base_cfg, seed=seed)
        record = run_meta_game(prov_a, prov_b, args.meta_rounds, cfg)
        if sidecar is not None:
            record = merge_judge_labels(record, sidecar)
        path = outdir / f"meta_seed{seed}.json"
        atomic_write_json(path, record.to_json_dict())
        artifacts.append(path)
        totals = record.totals()
        print(f"seed {seed}: A={totals[0]} B={totals[1]}")
    inputs = [args.providers, *prov_a.inputs, *prov_b.inputs]
    if args.judge_labels:
        inputs.append(args.judge_labels)
    _write_manifest(args, outdir, inputs, artifacts)
    print(f"records: {outdir}")
    return EXIT_OK


def _label_file(path: str, rounds: int, seed: int, trials: int | None, variants: bool):
    """Worker for --jobs: (path, result | None, error | None), where the
    result is the file's benchmark items with variants, else its labels row."""
    try:
        program = load_program_file(path, game=GAME_IPD)
    except ProgramError as exc:
        return path, None, str(exc)
    stem = Path(path).stem
    if variants:
        return path, labeling.benchmark_items(stem, program, seed, rounds), None
    label = labeling.label_cooperative(program, rounds, seed)
    row = {"id": stem, "stochastic": labeling.is_stochastic(program), **label.to_json_dict()}
    if trials:
        row["cooperation_rate"] = labeling.cooperation_rate(program, rounds, trials, seed)
    return path, row, None


def cmd_label(args) -> int:
    if args.variants and args.trials is not None:
        raise CliError("--trials does not apply to --variants")
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise CliError(f"corpus directory not found: {corpus_dir}")
    _checked(MatchConfig, rounds=args.rounds)  # the rounds check of the labeling matches
    if args.trials is not None:
        _checked(labeling.check_trials, args.trials)
    tasks = [
        (str(p), args.rounds, args.seed, args.trials, args.variants)
        for p in sorted(corpus_dir.glob("*.slang"))
    ]
    labeled = {}  # each loadable file's result, in file order
    for path, result, error in pool_map(_label_file, tasks, args.jobs):
        if error is None:
            labeled[path] = result
        else:
            print(f"error: {error}", file=sys.stderr)
    failed = len(tasks) - len(labeled)
    if args.variants:
        outdir = _out_path(args.out, "benchmark")
        items = [item for file_items in labeled.values() for item in file_items]
        written = labeling.write_benchmark(items, outdir)
        _write_manifest(args, outdir, list(labeled), written)
        print(f"benchmark: {outdir} ({len(written)} files)")
    else:
        rows = list(labeled.values())
        out = _out_path(args.out, "labels.json")
        summary = {
            "programs": len(rows),
            "cooperative": sum(1 for r in rows if r["cooperative"]),
            "stochastic": sum(1 for r in rows if r["stochastic"]),
            "errors": failed,
        }
        labels = {"schema": "osgames.labels/1", "summary": summary, "items": rows}
        atomic_write_json(out, labels)
        print(
            f"labeled {summary['programs']} programs "
            f"({summary['cooperative']} cooperative, {summary['stochastic']} stochastic)"
            + (f", {failed} failed" if failed else "")
        )
        print(f"labels: {out}")
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_metrics(args) -> int:
    program = load_program_file(args.program, game=None)
    report = metrics_mod.collect(program.tree).to_flat_dict()
    if args.format == "csv":
        print(_csv_text(list(report), [list(report.values())]), end="")
    else:
        print(canonical_json_bytes(report).decode("utf-8"), end="")
    return EXIT_OK


def cmd_transform(args) -> int:
    path = Path(args.program)
    text = read_source_file(path)
    from .slang import LexError, ParseError
    from .slang.tokens import SourceText

    src = SourceText(text, origin=str(path))
    try:
        if args.kind == "strip":
            out_text = strip_comments(src).text
        else:
            tree = parse_source(src)
            if args.kind == "mask":
                renamed, _ = mask(tree)
            else:
                renamed, _ = obfuscate(tree, SplitMix64(args.seed))
            out_text = render(renamed).text
    except (LexError, ParseError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    if args.out:
        out = _out_path(args.out, f"{path.stem}.{args.kind}.slang")
        atomic_write_text(out, out_text)
        print(f"wrote {out}")
    else:
        print(out_text, end="")
    return EXIT_OK


def cmd_tournament(args) -> int:
    entries = _load_programs(args.programs, args.game)
    table = round_robin(entries, _match_config(args), args.reps, jobs=args.jobs)
    width = max(len(t) for t in table.tags) + 2
    header = " " * width + "".join(f"{t:>{width}}" for t in table.tags)
    print(header)
    for tag, row in zip(table.tags, table.means):
        print(f"{tag:<{width}}" + "".join(f"{v:>{width}.2f}" for v in row))
    if args.out is not None:
        path = _out_path(args.out, "tournament.json")
        atomic_write_json(path, table.to_json_dict())
        print(f"table: {path}")
    return EXIT_OK


def _matrix_from_args(args, check):
    """The payoff matrix of --matrix FILE or of the programs' round robin,
    and check(size) on its number of types, which for programs runs before
    any match is played."""
    if (args.matrix is None) == (not args.programs):
        raise CliError("give either --matrix FILE or program files, not both")
    if args.matrix is not None:
        obj = _read_json(args.matrix, "matrix file")
        try:
            matrix = evolution.PayoffMatrix.from_json_dict(obj)
        except ValueError as exc:
            raise CliError(f"bad matrix file {args.matrix}: {exc}") from exc
        return matrix, check(matrix.size)
    entries = _load_programs(args.programs, args.game)
    checked = check(len(entries))
    return evolution.estimate_payoff_matrix(entries, _match_config(args), args.reps), checked


def _parse_x0(arg: str | None, size: int) -> np.ndarray:
    if arg is None:
        return np.full(size, 1.0 / size)
    try:
        values = np.array([float(v) for v in arg.split(",")], dtype=float)
    except ValueError as exc:
        raise CliError(f"bad --x0 {arg!r}") from exc
    if (
        values.shape != (size,)
        or not np.all(np.isfinite(values))
        or np.any(values < 0)
        or abs(values.sum() - 1) > 1e-9
    ):
        raise CliError(f"--x0 must be {size} non-negative values summing to 1")
    return values


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _overflow(what: str) -> CliError:
    """The error for payoffs near the float maximum, which overflow the
    replicator arithmetic to inf or nan."""
    return CliError(f"{what} overflows float arithmetic; scale the payoff matrix down")


def _flow_csv(matrix: evolution.PayoffMatrix, resolution: int) -> tuple[str, int]:
    """The flow field's CSV text and its number of samples."""
    rows = evolution.flow_rows(evolution.flow_field(matrix, resolution))
    if not np.all(np.isfinite(rows)):
        raise _overflow("the flow field")
    tags = matrix.tags
    header = [f"x_{t}" for t in tags] + [f"dx_{t}" for t in tags] + ["strength"]
    return _csv_text(header, rows), len(rows)


def _evolve_start(args, size: int) -> np.ndarray:
    """The start population for this many types, after the checks of the
    options that depend on it."""
    if size == 3:  # a flow field follows
        _checked(evolution.check_flow, size, args.resolution)
    return _parse_x0(args.x0, size)


def cmd_evolve(args) -> int:
    # before the round robin
    _checked(evolution.check_steps, args.dt, args.steps)
    _checked(evolution.check_tol, args.tol)
    matrix, x0 = _matrix_from_args(args, lambda size: _evolve_start(args, size))
    trajectory = _checked(evolution.integrate, matrix, x0, dt=args.dt, steps=args.steps)
    if not np.all(np.isfinite(trajectory.states)):
        raise _overflow("the replicator trajectory")
    # every output is computed before any is written, so an overflow leaves no run directory
    report = flow_csv = None
    if matrix.size <= 3:
        try:
            report = evolution.fixed_points(matrix, tol=args.tol)
        except np.linalg.LinAlgError as exc:  # eigenvalues of a non-finite Jacobian
            raise _overflow("the fixed points' stability analysis") from exc
    if matrix.size == 3:
        flow_csv, _ = _flow_csv(matrix, args.resolution)
    outdir = _out_path(args.out, "evolve_run")
    trajectory_csv = _csv_text(
        ["t"] + [f"x_{t}" for t in matrix.tags], evolution.trajectory_rows(trajectory)
    )
    artifacts = [
        atomic_write_json(outdir / "payoff_matrix.json", matrix.to_json_dict()),
        atomic_write_text(outdir / "trajectory.csv", trajectory_csv),
    ]
    if report is not None:
        artifacts.append(
            atomic_write_json(outdir / "fixed_points.json", report.to_json_dict())
        )
    if flow_csv is not None:
        artifacts.append(atomic_write_text(outdir / "flow.csv", flow_csv))
    _write_manifest(args, outdir, [args.matrix] if args.matrix else args.programs, artifacts)
    final = trajectory.final
    summary = ", ".join(f"{t}={v:.4f}" for t, v in zip(matrix.tags, final))
    print(f"final population: {summary}")
    print(f"outputs: {outdir}")
    return EXIT_OK


def cmd_flow(args) -> int:
    matrix, _ = _matrix_from_args(
        args, lambda size: _checked(evolution.check_flow, size, args.resolution)
    )
    text, count = _flow_csv(matrix, args.resolution)
    if args.out is not None:
        path = atomic_write_text(_out_path(args.out, "flow.csv"), text)
        print(f"flow field: {path} ({count} samples)")
    else:
        print(text, end="")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def _add_match_options(p, *, round_robin: bool, rounds_default: int = 10):
    """The options of a command that plays matches: with --reps for a round
    robin (tournament, evolve, flow), else with the coin --steps alias and
    --fallback (match, meta; evolve's --steps counts integration steps)."""
    p.add_argument("--game", choices=GAMES, default=GAME_IPD)
    p.add_argument("--rounds", type=int, default=rounds_default,
                   help="base-game rounds (coin: steps)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-limit", type=int, default=Budget().step_limit,
                   help="interpreter step budget per invocation")
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument("--payoffs", help="T,R,P,S override (default 5,3,1,0)")
    p.add_argument("--board-size", type=int, default=3)
    if round_robin:
        p.add_argument(
            "--reps", type=int, default=1,
            help="seeded samples per ordered pairing. An IPD pairing of two programs "
            "that cannot draw is seed-free: one played match gives all of its samples, "
            "so repetitions add information only to pairings with a drawing program "
            "(and to every coin-game pairing)",
        )
    else:
        p.add_argument("--steps", type=int, dest="coin_steps",
                       help="coin game steps (alias for --rounds)")
        p.add_argument("--fallback", help="action substituted on a runtime fault")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osgames",
        description="Engine and analysis toolkit for open-source (program) games.",
    )
    parser.add_argument("--version", action="version", version=f"osgames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="play one match between two programs")
    p.add_argument("program_a")
    p.add_argument("program_b")
    _add_match_options(p, round_robin=False)
    p.add_argument("--out", help="match record path (default match.json)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("meta", help="run a repeated open-source game")
    p.add_argument("providers", help="JSON config naming providers 'a' and 'b'")
    _add_match_options(p, round_robin=False)
    p.add_argument("--meta-rounds", type=int, default=10)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of independent runs (seed, seed+1, ...)")
    p.add_argument("--judge-labels", help="sidecar JSON of judge feature labels")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_meta)

    p = sub.add_parser("label", help="label a corpus of programs for cooperation")
    p.add_argument("corpus", help="directory of .slang files")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=labeling.DEFAULT_LABEL_SEED)
    p.add_argument("--trials", type=int,
                   help="additionally report the cooperative fraction over k seeds "
                   "(not with --variants)")
    p.add_argument("--variants", action="store_true",
                   help="emit unmasked/masked/obfuscated benchmark directories")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--config", help="JSON file of option defaults")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("metrics", help="print complexity and taint metrics")
    p.add_argument("program")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("transform", help="strip, mask or obfuscate a program")
    p.add_argument("kind", choices=("strip", "mask", "obfuscate"))
    p.add_argument("program")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("tournament", help="round-robin mean-payoff table")
    p.add_argument("programs", nargs="+")
    _add_match_options(p, round_robin=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tournament)

    for name, about, func, out_help in (
        ("evolve", "replicator dynamics from a matrix or programs", cmd_evolve,
         "output directory"),
        ("flow", "export a replicator flow field as CSV", cmd_flow,
         "CSV path (default: standard output)"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("programs", nargs="*")
        p.add_argument("--matrix", help="payoff matrix JSON file")
        _add_match_options(p, round_robin=True, rounds_default=evolution.EVOLUTION_ROUNDS)
        if name == "evolve":
            p.add_argument("--x0", help="start population a,b,c (default uniform)")
            p.add_argument("--dt", type=float, default=0.01)
            p.add_argument("--steps", type=int, default=20_000)
            p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--resolution", type=int, default=20)
        p.add_argument("--out", help=out_help)
        p.set_defaults(func=func)

    parser.set_defaults(_registry=sub.choices)
    return parser


def _config_type_error(action: argparse.Action, value) -> str | None:
    """None if a --config value has the JSON type of its option, else what
    the option needs."""
    if action.nargs == 0:  # a flag
        return None if isinstance(value, bool) else "true or false"
    if action.nargs in ("*", "+"):
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return None if ok else "a list of strings"
    if action.choices is not None:
        return None if value in action.choices else f"one of {list(action.choices)}"
    if action.type is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        return None if ok else "an integer"
    if action.type is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        return None if ok else "a number"
    return None if isinstance(value, str) else "a string"


def _with_config(parser: argparse.ArgumentParser, args, argv: list[str]):
    """args parsed again with the --config file's values as defaults."""
    config = _read_json(args.config, "config")
    if not isinstance(config, dict):
        raise CliError(f"config {args.config} must be a JSON object")
    subparser = args._registry[args.command]
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise CliError(f"unknown config option {key!r}")
        wanted = _config_type_error(actions[dest], value)
        if wanted is not None:
            raise CliError(f"config option {key!r} must be {wanted}")
        # an integer for a real option is parsed as --dt 1 would be
        defaults[dest] = float(value) if actions[dest].type is float else value
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _with_config(parser, args, argv)
        return args.func(args)
    except (CliError, ProgramError, ArenaError, ProviderError, MetaGameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

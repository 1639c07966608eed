"""The three workloads: one round of each pipeline, its inputs and its checks.

A round is one whole run of a pipeline through the library functions behind
the CLI command, with jobs=1:

- evolve_ipd (`osgames evolve`): the 20x20 ordered round robin of the IPD
  corpus with 100-round matches, then replicator integration from the
  uniform start with the default dt and step count.  Item: a match.
- label_variants (`osgames label --variants`): build_benchmark then
  write_benchmark over 400 generated programs.  Item: a program.
- meta_coin_external (`osgames meta`): 100 meta-rounds of 50-step coin-game
  matches between two external NDJSON agents, then the record serialized.
  Item: a meta-round.

The pipelines are called through their modules' attributes, so that the
tracer's wrappers see the calls.  Every round draws fresh inputs from
(seed, round index), so a cache keyed by program text cannot carry one
round's work into the next.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import agent
import checks
import programs as gen
from osgames import evolution, labeling, metagame, runio
from osgames.arena import MatchConfig
from osgames.program import ProgramError
from osgames.providers import ExternalProvider
from osgames.slang import LexError, ParseError, parse_source, render, validate
from osgames.slang.tokens import SourceText

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "src" / "osgames" / "corpus"

EVOLVE_ROUNDS = 100
LABEL_PROGRAMS = 400
LABEL_ROUNDS = gen.LABEL_ROUNDS
META_ROUNDS = 100
META_STEPS = 50


def round_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def reload_variant(text: str) -> str:
    """Parse and validate a variant, and render it back."""
    tree = parse_source(text)
    report = validate(tree)
    if not report.ok:
        raise ProgramError("; ".join(d.message for d in report.errors()))
    return render(tree).text


class BatchWorkload:
    """A pipeline run as one batch: its only latency sample is its time per item."""

    items_per_round: int

    def latencies_ms(self, inputs, output, seconds: float) -> list[float]:
        return [seconds * 1e3 / self.items_per_round]

    def cleanup(self, inputs) -> None:
        pass


class EvolveIpd(BatchWorkload):
    items_per_round = 400

    def __init__(self, seed: int, workdir: Path, loaded):
        self.seed = seed
        self.entries = loaded  # [(name, StrategyProgram)] from set-up
        tags = [name for name, _ in loaded]
        texts = [program.text for _, program in loaded]
        if len(tags) != 20 or not checks.STOCHASTIC_IPD <= set(tags):
            raise SystemExit(f"unexpected IPD corpus: {tags}")
        missing = set(tags) - checks.STOCHASTIC_IPD - set(checks.REFERENCE)
        if missing:
            raise SystemExit(f"no reference replay for {sorted(missing)}")
        self.expected = checks.reference_cells(tags, texts, EVOLVE_ROUNDS)

    def prepare(self, index: int):
        return MatchConfig(rounds=EVOLVE_ROUNDS, seed=round_seed(self.seed, index))

    def run(self, cfg):
        matrix = evolution.estimate_payoff_matrix(self.entries, cfg, repetitions=1, jobs=1)
        n = matrix.size
        trajectory = evolution.integrate(matrix, np.full(n, 1.0 / n))
        return matrix, trajectory.final

    def check(self, cfg, output):
        matrix, final = output
        return checks.check_evolve(matrix.a.tolist(), self.expected, final)


class LabelVariants(BatchWorkload):
    items_per_round = LABEL_PROGRAMS

    def __init__(self, seed: int, workdir: Path, loaded):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, index: int):
        programs = gen.generate(self.seed, index, LABEL_PROGRAMS)
        corpus = [
            (p.item_id, SourceText(p.text, origin=f"<generated>/{p.item_id}.slang"))
            for p in programs
        ]
        outdir = Path(tempfile.mkdtemp(prefix="label-", dir=self.workdir))
        return programs, corpus, round_seed(self.seed, index), outdir

    def run(self, inputs):
        _, corpus, label_seed, outdir = inputs
        items = labeling.build_benchmark(corpus, seed=label_seed, rounds=LABEL_ROUNDS)
        labeling.write_benchmark(items, outdir)
        return items

    def check(self, inputs, items):
        programs, _, _, outdir = inputs
        labels = json.loads((outdir / "labels.json").read_text(encoding="utf-8"))
        return checks.check_label(
            programs,
            items,
            labels,
            reload=reload_variant,
            load_errors=(ProgramError, LexError, ParseError),
        )

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs[3], ignore_errors=True)


class MetaCoinExternal:
    items_per_round = META_ROUNDS

    def __init__(self, seed: int, workdir: Path, loaded):
        self.seed = seed
        self.workdir = workdir
        self.bases = agent.load_bases(CORPUS / "coin")

    def prepare(self, index: int):
        seed = round_seed(self.seed, index)
        planned = [
            [agent.proposal(seed, player, k, self.bases) for k in range(1, META_ROUNDS + 1)]
            for player in ("a", "b")
        ]
        outdir = Path(tempfile.mkdtemp(prefix="meta-", dir=self.workdir))
        return seed, planned, outdir

    def _provider(self, player: str, seed: int, outdir: Path) -> ExternalProvider:
        command = [
            sys.executable, str(HERE / "agent.py"),
            "--seed", str(seed),
            "--player", player,
            "--corpus", str(CORPUS / "coin"),
            "--out", str(outdir / f"turnaround-{player}.json"),
        ]
        return ExternalProvider(player, tag="perfbench-agent", command=command)

    def run(self, inputs):
        seed, _, outdir = inputs
        record = metagame.run_meta_game(
            self._provider("a", seed, outdir),
            self._provider("b", seed, outdir),
            META_ROUNDS,
            MatchConfig(game="coin", rounds=META_STEPS, seed=seed),
        )
        data = record.to_json_dict()
        return data, runio.canonical_json_bytes(data)

    def check(self, inputs, output):
        _, planned, _ = inputs
        data, blob = output
        return checks.check_meta(data, planned, blob)

    def latencies_ms(self, inputs, output, seconds: float) -> list[float]:
        _, _, outdir = inputs
        samples = []
        for player in ("a", "b"):
            path = outdir / f"turnaround-{player}.json"
            samples += [s * 1e3 for s in json.loads(path.read_text(encoding="utf-8"))]
        return samples

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs[2], ignore_errors=True)


WORKLOADS = {
    "evolve_ipd": EvolveIpd,
    "label_variants": LabelVariants,
    "meta_coin_external": MetaCoinExternal,
}

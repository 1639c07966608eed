"""Span tracer that wraps osgames' public boundary functions from outside.

Each target is named by module and attribute path.  The tracer looks up the
function object there and replaces every binding of that same object in
every loaded `osgames` module and in the classes they define, so a function
imported under another name or into another module is still traced.  Spans
(function, start, end, parent) and counts are kept in memory; layer self
times are computed from the spans afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from osgames.runtime import RuntimeFault

# (module, attribute path, layer).  Functions of one layer share its name.
TARGETS = (
    ("osgames.slang.tokens", "tokenize", "slang.tokenize"),
    ("osgames.slang.parser", "parse_source", "slang.parse"),
    ("osgames.slang.parser", "parse", "slang.parse"),
    ("osgames.slang.validator", "validate", "slang.validate"),
    ("osgames.slang.render", "render", "slang.render"),
    ("osgames.program", "load_program", "program"),
    ("osgames.transforms", "strip_comments", "transforms"),
    ("osgames.transforms", "mask", "transforms"),
    ("osgames.transforms", "obfuscate", "transforms"),
    ("osgames.runtime", "evaluate", "runtime.eval"),
    ("osgames.rng", "derive_seed", "rng.derive_seed"),
    ("osgames.games", "ipd_payoff", "games.step"),
    ("osgames.games", "coin_step", "games.step"),
    ("osgames.arena", "play_match", "arena"),
    ("osgames.arena", "round_robin", "arena"),
    ("osgames.labeling", "label_cooperative", "labeling"),
    ("osgames.labeling", "cooperator_program", "labeling"),
    ("osgames.labeling", "is_stochastic", "labeling"),
    ("osgames.labeling", "make_variants", "labeling"),
    ("osgames.labeling", "build_benchmark", "labeling"),
    ("osgames.labeling", "benchmark_summary", "labeling"),
    ("osgames.labeling", "write_benchmark", "labeling"),
    ("osgames.runio", "canonical_json_bytes", "runio.serialize"),
    ("osgames.metagame", "MetaGameRecord.to_json_dict", "runio.serialize"),
    ("osgames.runio", "atomic_write_bytes", "runio.write"),
    ("osgames.runio", "atomic_write_json", "runio.write"),
    ("osgames.runio", "atomic_write_text", "runio.write"),
    ("osgames.providers", "ExternalProvider.start", "providers.start"),
    ("osgames.providers", "ExternalProvider.propose", "providers.propose"),
    ("osgames.providers", "ExternalProvider.close", "providers.close"),
    ("osgames.metagame", "run_meta_game", "metagame"),
    ("osgames.evolution", "estimate_payoff_matrix", "evolution"),
    ("osgames.evolution", "integrate", "evolution.integrate"),
)

#: Layers each workload must enter; a traced round that misses one fails.
REQUIRED = {
    "evolve_ipd": (
        "slang.tokenize", "slang.parse", "slang.validate", "runtime.eval",
        "rng.derive_seed", "games.step", "arena", "evolution.integrate",
    ),
    "label_variants": (
        "slang.tokenize", "slang.parse", "slang.validate", "slang.render",
        "transforms", "runtime.eval", "rng.derive_seed", "games.step", "arena",
        "labeling", "runio.serialize", "runio.write",
    ),
    "meta_coin_external": (
        "slang.tokenize", "slang.parse", "slang.validate", "runtime.eval",
        "rng.derive_seed", "games.step", "arena", "providers.start",
        "providers.propose", "metagame", "runio.serialize",
    ),
}

#: Per-layer metrics, in BENCHMARK.json order: name -> unit.
METRICS = {
    "runtime.eval_ms": "ms",
    "runtime.ns_per_step": "ns",
    "runtime.steps": "count",
    "slang.tokenize_calls": "count",
    "slang.tokenize_ms": "ms",
    "slang.parse_calls": "count",
    "slang.parse_ms": "ms",
    "slang.validate_calls": "count",
    "slang.validate_ms": "ms",
    "slang.parses_per_source": "ratio",
    "slang.validations_per_program": "ratio",
    "slang.render_ms": "ms",
    "transforms.ms": "ms",
    "labeling.self_ms": "ms",
    "runio.write_ms": "ms",
    "arena.self_ms": "ms",
    "arena.self_us_per_round": "us",
    "rng.derive_seed_calls": "count",
    "rng.derive_seed_ms": "ms",
    "games.step_ms": "ms",
    "providers.start_ms": "ms",
    "providers.propose_ms": "ms",
    "providers.request_bytes": "bytes",
    "metagame.self_ms": "ms",
    "runio.serialize_ms": "ms",
    "evolution.integrate_ms": "ms",
}


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _owners():
    """Every loaded osgames module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "osgames" or name.startswith("osgames.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack = [-1]
        self.layers = [layer for _, _, layer in TARGETS]
        self.steps = 0
        self.base_rounds = 0
        self.sources: set[str] = set()
        self.proposals: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            ("osgames.runtime", "evaluate"): self._count_steps,
            ("osgames.slang.parser", "parse_source"): self._note_source,
            ("osgames.arena", "play_match"): self._count_rounds,
            ("osgames.providers", "ExternalProvider.propose"): self._note_proposal,
        }
        wrappers = {}
        for fid, (module, path, _) in enumerate(TARGETS):
            fn = _resolve(module, path)
            wrappers[id(fn)] = self._wrap(fn, fid, hooks.get((module, path)))
        for owner in _owners():
            for name, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((owner, name, value))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []
        self.stack = [-1]
        self.steps = 0
        self.base_rounds = 0
        self.sources = set()
        self.proposals = []

    def _wrap(self, fn, fid: int, hook):
        clock = time.perf_counter_ns
        tracer = self
        counts_fault_steps = hook == self._count_steps

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except RuntimeFault as fault:
                if counts_fault_steps:
                    tracer.steps += fault.steps
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- counting hooks ---------------------------------------------------------

    def _count_steps(self, args, kwargs, result) -> None:
        self.steps += result[1]

    def _note_source(self, args, kwargs, result) -> None:
        src = args[0] if args else kwargs["src"]
        self.sources.add(src if isinstance(src, str) else src.text)

    def _count_rounds(self, args, kwargs, result) -> None:
        self.base_rounds += len(result.actions)

    def _note_proposal(self, args, kwargs, result) -> None:
        self.proposals.append(args[1] if len(args) > 1 else kwargs["ctx"])

    # -- results ----------------------------------------------------------------

    def entered(self) -> set[str]:
        return {self.layers[span[0]] for span in self.spans}

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        spans = self.spans
        layers = self.layers
        for fid, start, end, parent in spans:
            duration = end - start
            layer = layers[fid]
            self_ns[layer] += duration
            if parent >= 0:
                pfid = spans[parent][0]
                self_ns[layers[pfid]] -= duration
                if layers[pfid] == layer:
                    continue
            calls[layer] += 1

        def ms(layer: str) -> float:
            return self_ns[layer] / 1e6

        request_bytes = sum(
            len(
                json.dumps(
                    {
                        "type": "propose",
                        "meta_round": ctx.meta_round,
                        "history": ctx.history,
                        "opponent_previous_source": ctx.opponent_previous_source,
                    },
                    sort_keys=True,
                ).encode("utf-8")
            )
            + 1
            for ctx in self.proposals
        )
        sources = max(len(self.sources), 1)
        return {
            "runtime.eval_ms": ms("runtime.eval"),
            "runtime.ns_per_step": self_ns["runtime.eval"] / max(self.steps, 1),
            "runtime.steps": self.steps,
            "slang.tokenize_calls": calls["slang.tokenize"],
            "slang.tokenize_ms": ms("slang.tokenize"),
            "slang.parse_calls": calls["slang.parse"],
            "slang.parse_ms": ms("slang.parse"),
            "slang.validate_calls": calls["slang.validate"],
            "slang.validate_ms": ms("slang.validate"),
            "slang.parses_per_source": calls["slang.parse"] / sources,
            "slang.validations_per_program": calls["slang.validate"] / sources,
            "slang.render_ms": ms("slang.render"),
            "transforms.ms": ms("transforms"),
            "labeling.self_ms": ms("labeling"),
            "runio.write_ms": ms("runio.write"),
            "arena.self_ms": ms("arena"),
            "arena.self_us_per_round": self_ns["arena"] / 1e3 / max(self.base_rounds, 1),
            "rng.derive_seed_calls": calls["rng.derive_seed"],
            "rng.derive_seed_ms": ms("rng.derive_seed"),
            "games.step_ms": ms("games.step"),
            "providers.start_ms": ms("providers.start"),
            "providers.propose_ms": ms("providers.propose"),
            "providers.request_bytes": request_bytes,
            "metagame.self_ms": ms("metagame"),
            "runio.serialize_ms": ms("runio.serialize"),
            "evolution.integrate_ms": ms("evolution.integrate"),
        }

from __future__ import annotations

import csv
import json
import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from osgames import _pool, evolution, labeling, metrics as metrics_mod
from osgames.cli import _match_config, build_parser, main
from osgames.fixtures import corpus_dir, corpus_path, ipd_corpus_dir
from osgames.program import load_program_file

TFT = str(corpus_path("ipd/tft.slang"))
ALLC = str(corpus_path("ipd/allc.slang"))
ALLD = str(corpus_path("ipd/alld.slang"))
COMPARATOR = str(corpus_path("equilibrium/syntactic_comparator.slang"))
COIN = [str(corpus_path(f"coin/{name}.slang")) for name in ("greedy_chaser", "random_walker")]
NOT_UTF8 = b'fn strategy() {\n    return "C"\n}\n# \xff\n'


@pytest.fixture(autouse=True)
def _default_out_dir(tmp_path, monkeypatch):
    # keep default outputs (e.g. match.json) out of the working tree
    monkeypatch.setenv("OSGAMES_OUT_DIR", str(tmp_path / "default_out"))


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_prints_totals_and_writes_record(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSGAMES_OUT_DIR", str(tmp_path))
    code, out, _ = run(
        ["match", TFT, ALLD, "--game", "ipd", "--rounds", "10", "--seed", "7"], capsys
    )
    assert code == 0
    assert ": 9" in out and ": 14" in out
    record = json.loads((tmp_path / "match.json").read_text())
    assert record["totals"] == [9, 14]


def test_match_payoffs_override(tmp_path, capsys):
    out = tmp_path / "match.json"
    code, _, _ = run(
        ["match", TFT, ALLD, "--rounds", "10", "--payoffs", "4,3,1,0", "--out", str(out)],
        capsys,
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["config"]["payoffs"] == {"T": 4, "R": 3, "P": 1, "S": 0}
    assert record["totals"] == [9, 13]  # 14 with the default T = 5


def test_match_missing_file_exit_2(capsys):
    code, _, err = run(["match", "/nope/missing.slang", ALLD], capsys)
    assert code == 2
    assert "/nope/missing.slang" in err


def test_match_invalid_program_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.slang"
    bad.write_text("fn strategy() { return my_pos() }\n")
    code, _, err = run(["match", str(bad), ALLD], capsys)
    assert code == 2
    assert "not available in this game" in err


@pytest.mark.parametrize("literal", ["²", "1" * 5000], ids=["superscript", "5000-digits"])
def test_match_bad_numeral_exit_2(tmp_path, capsys, literal):
    bad = tmp_path / "numeral.slang"
    bad.write_text("fn strategy() {\n    return " + literal + "\n}\n", encoding="utf-8")
    code, _, err = run(["match", str(bad), ALLD], capsys)
    assert code == 2
    assert err.startswith(f"error: {bad}:2:12: ")


def test_match_with_faults_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSGAMES_OUT_DIR", str(tmp_path))
    crasher = tmp_path / "crash.slang"
    crasher.write_text("fn strategy() {\n    return 1 / 0\n}\n")
    code, out, _ = run(["match", str(crasher), ALLC, "--rounds", "10"], capsys)
    assert code == 1
    assert "faults: 10" in out


def test_match_coin_dispatch(tmp_path, capsys):
    walker = str(corpus_path("coin/random_walker.slang"))
    out_file = tmp_path / "coin.json"
    code, out, _ = run(
        ["match", walker, walker, "--game", "coin", "--steps", "10",
         "--seed", "3", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    record = json.loads(out_file.read_text())
    assert record["config"]["game"] == "coin"
    assert len(record["turns"]) == 10


def test_coin_steps_alias_only_on_match_and_meta():
    parse = build_parser().parse_args
    # evolve's --steps is the RK4 step count, never the coin match length
    args = parse(["evolve", "--game", "coin", "--rounds", "30", "a", "b"])
    assert _match_config(args).rounds == 30
    args = parse(["evolve", "--game", "coin", "--steps", "500", "--rounds", "30", "a", "b"])
    assert (_match_config(args).rounds, args.steps) == (30, 500)
    for command in (["match", "a", "b"], ["meta", "p.json"]):
        args = parse([*command, "--game", "coin", "--rounds", "30", "--steps", "12"])
        assert _match_config(args).rounds == 12


def test_match_record_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(
            ["match", TFT, ALLD, "--seed", "7", "--out", str(out)], capsys
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_label_corpus(tmp_path, capsys):
    out = tmp_path / "labels.json"
    code, stdout, _ = run(["label", str(ipd_corpus_dir()), "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads(out.read_text())
    assert manifest["summary"]["programs"] == 20
    assert manifest["summary"]["cooperative"] == 9
    assert manifest["summary"]["stochastic"] == 3


def test_label_empty_dir_exit_0(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, _ = run(["label", str(empty), "--out", str(tmp_path / "l.json")], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "l.json").read_text())
    assert manifest["items"] == []


def test_label_continues_past_bad_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.slang").write_text('fn strategy() {\n    return "C"\n}\n')
    (corpus / "broken.slang").write_text("fn strategy( {\n")
    (corpus / "latin1.slang").write_bytes(NOT_UTF8)
    code, _, err = run(["label", str(corpus), "--out", str(tmp_path / "l.json")], capsys)
    assert code == 1
    assert "broken" in err and "latin1.slang: not UTF-8" in err
    manifest = json.loads((tmp_path / "l.json").read_text())
    assert [item["id"] for item in manifest["items"]] == ["good"]


def test_label_variants_benchmark(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("allc", "tft"):
        (corpus / f"{name}.slang").write_text(corpus_path(f"ipd/{name}.slang").read_text())
    outdir = tmp_path / "bench"
    code, _, _ = run(
        ["label", str(corpus), "--variants", "--out", str(outdir)], capsys
    )
    assert code == 0
    for variant in ("unmasked", "masked", "obfuscated"):
        assert len(list((outdir / variant).glob("*.slang"))) == 2
    labels = json.loads((outdir / "labels.json").read_text())
    assert len(labels["items"]) == 6


def test_label_variants_labels_each_program_once(tmp_path, capsys, monkeypatch):
    from osgames import labeling

    calls = []

    def counting(program, *args):
        calls.append(program.origin)
        return label_cooperative(program, *args)

    label_cooperative = labeling.label_cooperative
    monkeypatch.setattr(labeling, "label_cooperative", counting)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("allc", "tft"):
        (corpus / f"{name}.slang").write_text(corpus_path(f"ipd/{name}.slang").read_text())
    (corpus / "broken.slang").write_text("fn strategy( {")
    code, _, err = run(
        ["label", str(corpus), "--variants", "--out", str(tmp_path / "b")],
        capsys,
    )
    assert code == 1 and "broken" in err
    # the original, masked and obfuscated variant of each loadable program
    suffixes = ("", "#masked", "#obfuscated")
    assert sorted(Path(origin).name for origin in calls) == [
        f"{name}.slang{suffix}" for name in ("allc", "tft") for suffix in suffixes
    ]


def test_label_variants_parses_each_file_once(tmp_path, capsys, monkeypatch):
    from osgames import labeling, program

    parsed = []
    real = program.parse_source
    monkeypatch.setattr(program, "parse_source", lambda src: parsed.append(src) or real(src))
    labeling.cooperator_program.cache_clear()  # count its one parse too
    argv = ["label", str(ipd_corpus_dir()), "--variants", "--out", str(tmp_path)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    # the 20 corpus files, their 40 masked and obfuscated variants, the cooperator
    assert len(parsed) == 20 + 40 + 1


def test_label_trials_reports_rate(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "flip.slang").write_text('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    code, _, _ = run(
        ["label", str(corpus), "--trials", "8", "--out", str(tmp_path / "l.json")], capsys
    )
    assert code == 0
    item = json.loads((tmp_path / "l.json").read_text())["items"][0]
    assert 0.0 <= item["cooperation_rate"] <= 1.0


def test_label_jobs_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 2)  # a real pool on any runner
    out1, out2 = tmp_path / "serial.json", tmp_path / "par.json"
    code1, _, _ = run(["label", str(ipd_corpus_dir()), "--out", str(out1)], capsys)
    code2, _, _ = run(
        ["label", str(ipd_corpus_dir()), "--jobs", "2", "--out", str(out2)], capsys
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_metrics_json(capsys):
    code, out, _ = run(["metrics", ALLC], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["cyclomatic"] == 1
    assert report["halstead_effort"] == 8.0
    assert report["osas_score"] == 0.0


def test_metrics_comparator_osas(capsys):
    code, out, _ = run(["metrics", COMPARATOR], capsys)
    report = json.loads(out)
    assert report["osas_tainted_sites"] == 2
    assert report["osas_total_sites"] == 3


CORPUS_PROGRAMS = sorted(corpus_dir().rglob("*.slang"))


@pytest.mark.parametrize("path", CORPUS_PROGRAMS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_metrics_json_bytes_are_json_dumps(path, capsys):
    report = metrics_mod.collect(load_program_file(path, game=None).tree).to_flat_dict()
    code, out, _ = run(["metrics", str(path)], capsys)
    assert code == 0
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_metrics_csv(capsys):
    code, out, _ = run(["metrics", ALLC, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["cyclomatic"] == "1"


def test_metrics_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.slang"
    bad.write_text("fn strategy( {")
    code, _, err = run(["metrics", str(bad)], capsys)
    assert code == 2
    assert "bad.slang" in err


def test_transform_strip_mask_obfuscate(tmp_path, capsys):
    src = tmp_path / "prog.slang"
    src.write_text(
        "# top comment\nfn helper() {\n    return 1\n}\n\n"
        "fn strategy() {\n    if helper() == 1 {\n        return \"C\"\n    }\n    return \"D\"\n}\n"
    )
    code, out, _ = run(["transform", "strip", str(src)], capsys)
    assert code == 0 and "#" not in out

    code, out, _ = run(["transform", "mask", str(src)], capsys)
    assert code == 0 and "fn_1" in out and "helper" not in out

    code, out, _ = run(["transform", "obfuscate", str(src), "--seed", "5"], capsys)
    assert code == 0 and "helper" not in out

    out_file = tmp_path / "masked.slang"
    code, _, _ = run(["transform", "mask", str(src), "--out", str(out_file)], capsys)
    assert code == 0 and out_file.exists()


def test_transform_output_ignores_comments(tmp_path, capsys):
    # mask and obfuscate parse the file as it is, comments and all; their
    # output is that of the stripped file
    for path in sorted(corpus_dir().glob("*/*.slang")):
        stripped = tmp_path / path.name
        code, out, _ = run(["transform", "strip", str(path)], capsys)
        assert code == 0
        stripped.write_text(out, encoding="utf-8")
        for args in (["mask"], ["obfuscate", "--seed", "5"]):
            direct = run(["transform", args[0], str(path), *args[1:]], capsys)
            via_strip = run(["transform", args[0], str(stripped), *args[1:]], capsys)
            assert direct == via_strip and direct[0] == 0, path.name


@pytest.mark.parametrize(
    "text, message, kinds",
    [
        (
            'fn strategy() {\n  # note\n  return "C" $ 1\n}\n',
            "illegal character '$'",
            ("strip", "mask", "obfuscate"),
        ),
        (
            "# top\nfn strategy() {\n  # inner\n  return (1 +\n}\n",
            "expected expression, found '}'",
            ("mask", "obfuscate"),
        ),
    ],
    ids=["lex-error", "parse-error"],
)
def test_transform_error_text(tmp_path, capsys, text, message, kinds):
    path = tmp_path / "bad.slang"
    path.write_text(text, encoding="utf-8")
    for kind in kinds:
        assert run(["transform", kind, str(path)], capsys) == (
            2, "", f"error: {path}: {message}\n"
        )


def test_tournament_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, stdout, _ = run(
        ["tournament", ALLC, ALLD, TFT, "--rounds", "10", "--out", str(out)], capsys
    )
    assert code == 0
    table = json.loads(out.read_text())
    assert table["means"] == [[30, 0, 30], [50, 10, 14], [30, 9, 30]]
    assert "alld" in stdout


def test_tournament_jobs_matches_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 2)  # a real pool on any runner
    for game, programs in (("ipd", [ALLC, ALLD, TFT]), ("coin", COIN)):
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"{game}-{jobs}.json"
            code, _, _ = run(
                ["tournament", *programs, "--game", game, "--rounds", "10", "--reps", "2",
                 "--jobs", jobs, "--out", str(out)],
                capsys,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_evolve_from_programs(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, stdout, _ = run(
        [
            "evolve", ALLC, ALLD, TFT,
            "--rounds", "10", "--seed", "0",
            "--dt", "0.01", "--steps", "2000",
            "--out", str(outdir),
        ],
        capsys,
    )
    assert code == 0
    fps = json.loads((outdir / "fixed_points.json").read_text())
    edge_points = [p for p in fps["points"] if p["classification"] == "edge"]
    assert any(abs(p["x"][1] - 16 / 17) < 1e-9 for p in edge_points)
    assert fps["continua"] == [{"support": [0, 2], "classification": "edge"}]
    with (outdir / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_allc", "x_alld", "x_tft"]
    assert len(rows) == 2002
    assert (outdir / "manifest.json").exists()
    assert (outdir / "flow.csv").exists()


def test_evolve_vertex_start_constant(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, _, _ = run(
        [
            "evolve", ALLC, ALLD, TFT, "--rounds", "10",
            "--x0", "1,0,0", "--steps", "50", "--out", str(outdir),
        ],
        capsys,
    )
    assert code == 0
    with (outdir / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(row[1] == "1.0" for row in rows)


def test_evolve_rejects_bad_x0(capsys):
    code, _, err = run(["evolve", ALLC, ALLD, TFT, "--x0", "1,1,0"], capsys)
    assert code == 2
    assert "--x0" in err


def test_evolve_rejects_nan_matrix(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"tags": ["a", "b"], "matrix": [[1, float("nan")], [0, 1]]}))
    code, _, err = run(["evolve", "--matrix", str(matrix)], capsys)
    assert code == 2
    assert "matrix" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    ("command", "rows", "what"),
    [
        ("evolve", [[1e308, 0, 1e308], [1.7e308, 10, 14], [30, 9, 1e308]],
         "the replicator trajectory"),
        ("evolve", [[1e308, 1e308], [1e308, 1e308]], "the fixed points' stability analysis"),
        ("flow", [[1e308, 0, 1e308], [1.7e308, 10, 14], [30, 9, 1e308]], "the flow field"),
    ],
)
def test_payoffs_that_overflow_exit_2_naming_it(tmp_path, capsys, command, rows, what):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"tags": list("abc")[: len(rows)], "matrix": rows}))
    code, _, err = run([command, "--matrix", str(matrix), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert f"error: {what} overflows float arithmetic" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "flow"])
@pytest.mark.parametrize(
    "content",
    [[[30, 0, 30], [50, 10, 14], [30, 9, 30]],
     {"tags": "abc", "matrix": [[30, 0, 30], [50, 10, 14], [30, 9, 30]]}],
    ids=["top-level-list", "tags-string"],
)
def test_malformed_matrix_file_exit_2_naming_it(tmp_path, capsys, command, content):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(content))
    code, _, err = run([command, "--matrix", str(matrix), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert f"bad matrix file {matrix}" in err
    assert not (tmp_path / "out").exists()


def test_evolve_from_matrix_file(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps({"tags": ["AllC", "AllD", "TFT"],
                    "matrix": [[30, 0, 30], [50, 10, 14], [30, 9, 30]]})
    )
    outdir = tmp_path / "run"
    code, stdout, _ = run(
        ["evolve", "--matrix", str(matrix), "--steps", "100", "--out", str(outdir)],
        capsys,
    )
    assert code == 0
    assert "final population" in stdout


def test_flow_csv(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    code, _, _ = run(
        ["flow", ALLC, ALLD, TFT, "--rounds", "10", "--resolution", "10",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 67  # header + 66 samples
    assert rows[0][-1] == "strength"


def test_flow_csv_bytes_are_the_same_on_stdout_in_a_file_and_in_an_evolve_run(
    tmp_path, capsys
):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps({"tags": ["AllC", "AllD", "TFT"],
                    "matrix": [[30, 0, 30], [50, 10, 14], [30, 9, 30]]})
    )
    code, stdout, _ = run(["flow", "--matrix", str(matrix), "--resolution", "7"], capsys)
    assert code == 0
    out = tmp_path / "flow.csv"
    code, _, _ = run(
        ["flow", "--matrix", str(matrix), "--resolution", "7", "--out", str(out)], capsys
    )
    assert code == 0
    outdir = tmp_path / "run"
    code, _, _ = run(
        ["evolve", "--matrix", str(matrix), "--resolution", "7", "--steps", "10",
         "--out", str(outdir)],
        capsys,
    )
    assert code == 0
    assert stdout.count("\n") == 37  # header + 36 samples
    assert out.read_bytes() == stdout.encode() == (outdir / "flow.csv").read_bytes()


def test_meta_with_providers_config(tmp_path, capsys):
    providers = tmp_path / "providers.json"
    providers.write_text(
        json.dumps(
            {
                "a": {"kind": "static", "path": TFT, "tag": "PM"},
                "b": {
                    "kind": "scripted",
                    "tag": "DPM",
                    "schedule": [
                        {"from_round": 1, "path": ALLC},
                        {"from_round": 5, "path": ALLD},
                    ],
                },
            }
        )
    )
    outdir = tmp_path / "meta"
    code, stdout, _ = run(
        ["meta", str(providers), "--meta-rounds", "10", "--seeds", "2",
         "--seed", "0", "--out", str(outdir)],
        capsys,
    )
    assert code == 0
    assert (outdir / "meta_seed0.json").exists()
    assert (outdir / "meta_seed1.json").exists()
    record = json.loads((outdir / "meta_seed0.json").read_text())
    assert record["providers"][1]["tag"] == "DPM"
    assert len(record["rounds"]) == 10
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "meta"


@pytest.mark.parametrize("kind", ["static", "scripted"])
def test_meta_manifest_hashes_the_provider_program_files(tmp_path, capsys, kind):
    program = tmp_path / "p.slang"
    spec = {"kind": "static", "path": str(program)}
    if kind == "scripted":
        spec = {"kind": "scripted", "schedule": [{"from_round": 1, "path": str(program)}]}
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps({"a": spec, "b": STATIC_TFT}))
    manifests = []
    for name, source in (("tft", TFT), ("allc", ALLC)):
        program.write_text(Path(source).read_text())
        outdir = tmp_path / name
        code, _, err = run(["meta", str(providers), "--meta-rounds", "2", "--out", str(outdir)],
                           capsys)
        assert code == 0, err
        manifests.append(json.loads((outdir / "manifest.json").read_text()))
    assert sorted(manifests[0]["inputs"]) == sorted([str(providers), str(program), TFT])
    assert manifests[0]["inputs"][str(program)] != manifests[1]["inputs"][str(program)]


def test_meta_external_provider_loopback(tmp_path, capsys):
    import sys

    agent = Path(__file__).parent / "agents" / "allc_agent.py"
    providers = tmp_path / "providers.json"
    providers.write_text(
        json.dumps(
            {
                "a": {
                    "kind": "external",
                    "command": [sys.executable, str(agent)],
                    "timeout": 20,
                },
                "b": {"kind": "static", "path": TFT},
            }
        )
    )
    outdir = tmp_path / "meta"
    code, _, _ = run(
        ["meta", str(providers), "--meta-rounds", "3", "--out", str(outdir)], capsys
    )
    assert code == 0
    record = json.loads((outdir / "meta_seed0.json").read_text())
    # the external agent always proposes the cooperator: (30, 30) per round
    assert record["totals"] == [90, 90]


def test_meta_handshake_failure_aborts(tmp_path, capsys):
    import sys

    agent = Path(__file__).parent / "agents" / "rude_agent.py"
    providers = tmp_path / "providers.json"
    providers.write_text(
        json.dumps(
            {
                "a": {
                    "kind": "external",
                    "command": [sys.executable, str(agent)],
                    "timeout": 20,
                },
                "b": {"kind": "static", "path": TFT},
            }
        )
    )
    code, _, err = run(
        ["meta", str(providers), "--meta-rounds", "2", "--out", str(tmp_path / "m")],
        capsys,
    )
    assert code == 2
    assert "handshake" in err and "transcript" in err


def test_meta_judge_sidecar(tmp_path, capsys):
    providers = tmp_path / "providers.json"
    providers.write_text(
        json.dumps(
            {
                "a": {"kind": "static", "path": TFT},
                "b": {"kind": "static", "path": TFT},
            }
        )
    )
    sidecar = tmp_path / "judge.json"
    sidecar.write_text(
        json.dumps([{"meta_round": 1, "player": "a", "labels": {"direct_imitation": True}}])
    )
    outdir = tmp_path / "meta"
    code, _, _ = run(
        ["meta", str(providers), "--meta-rounds", "2", "--out", str(outdir),
         "--judge-labels", str(sidecar)],
        capsys,
    )
    assert code == 0
    record = json.loads((outdir / "meta_seed0.json").read_text())
    assert record["rounds"][0]["judge_labels"] == {"a": {"direct_imitation": True}}


STATIC_TFT = {"kind": "static", "path": TFT}


@pytest.mark.parametrize(
    "providers, judge, named",
    [
        ({"a": "x", "b": STATIC_TFT}, None, "provider 'a' must be an object"),
        (
            {"a": STATIC_TFT, "b": {"kind": "scripted", "schedule": [{"path": ALLC}]}},
            None,
            "provider 'b' schedule entry 0 needs an integer from_round",
        ),
        (
            {"a": {"kind": "external", "command": ["agent"], "timeout": "soon"}, "b": STATIC_TFT},
            None,
            "provider 'a' timeout must be a positive number, got 'soon'",
        ),
        (
            {"a": STATIC_TFT, "b": STATIC_TFT},
            [{"meta_round": 1, "labels": {"direct_imitation": True}}],
            "judge entry 0 has bad judge player None",
        ),
        (
            {"a": STATIC_TFT, "b": STATIC_TFT},
            [{"meta_round": 1, "player": "a", "labels": ["direct_imitation"]}],
            "judge entry 0 labels must be an object",
        ),
    ],
    ids=["spec-not-object", "no-from-round", "bad-timeout", "judge-no-player",
         "judge-labels-list"],
)
def test_meta_malformed_input_exit_2(tmp_path, capsys, providers, judge, named):
    config = tmp_path / "providers.json"
    config.write_text(json.dumps(providers))
    args = ["meta", str(config), "--meta-rounds", "2", "--out", str(tmp_path / "m")]
    if judge is not None:
        sidecar = tmp_path / "judge.json"
        sidecar.write_text(json.dumps(judge))
        args += ["--judge-labels", str(sidecar)]
    code, _, err = run(args, capsys)
    assert code == 2
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["label", str(ipd_corpus_dir()), "--rounds", "0"], "rounds must be positive"),
        (["label", str(ipd_corpus_dir()), "--rounds", "0", "--variants"],
         "rounds must be positive"),
        (["label", str(ipd_corpus_dir()), "--config", "{rounds0}"], "rounds must be positive"),
        (["label", str(ipd_corpus_dir()), "--jobs", "0"], "jobs must be at least 1"),
        (["label", str(ipd_corpus_dir()), "--trials", "-2"], "trials must be at least 1"),
        (["label", str(ipd_corpus_dir()), "--trials", "0"], "trials must be at least 1"),
        (["label", str(ipd_corpus_dir()), "--variants", "--trials", "3"],
         "--trials does not apply to --variants"),
        (["meta", "{providers}", "--seeds", "0"], "seeds must be at least 1"),
        (["meta", "{providers}", "--seeds", "-3"], "seeds must be at least 1"),
        (["tournament", ALLC, ALLD, "--jobs", "-5"], "jobs must be at least 1"),
        (["evolve", ALLC, ALLD, TFT, "--steps", "-1"], "steps must be non-negative"),
        (["evolve", ALLC, ALLD, TFT, "--dt", "0"], "dt must be positive"),
        (["evolve", ALLC, ALLD, TFT, "--dt", "nan"], "dt must be positive and finite"),
        (["evolve", ALLC, ALLD, TFT, "--dt", "inf"], "dt must be positive and finite"),
        (["evolve", ALLC, ALLD, TFT, "--x0", "nan,0.5,0.5"],
         "--x0 must be 3 non-negative values summing to 1"),
        (["evolve", ALLC, ALLD, TFT, "--resolution", "1"], "resolution must be at least 2"),
        (["flow", ALLC, ALLD, TFT, "--resolution", "1"], "resolution must be at least 2"),
        (["flow", ALLC, ALLD], "flow fields are only defined for exactly 3 types"),
        (["evolve", "--matrix", "{matrix}", ALLC, ALLD],
         "give either --matrix FILE or program files, not both"),
        (["flow", "--matrix", "{matrix}", ALLC, ALLD, TFT],
         "give either --matrix FILE or program files, not both"),
        (["evolve"], "give either --matrix FILE or program files, not both"),
        (["match", "--game", "coin", "--board-size", "1", *COIN],
         "board size must be at least 2"),
        (["match", TFT, ALLD, "--step-limit", "0"], "budget limits must be strictly positive"),
        (["match", TFT, ALLD, "--payoffs", "1,2"], "bad --payoffs '1,2'"),
        (["match", TFT, ALLD, "--payoffs", "a,b,c,d"], "bad --payoffs 'a,b,c,d'"),
        (["match", TFT, ALLD, "--payoffs", "7,3,1,0"],
         "bad --payoffs '7,3,1,0': payoffs must satisfy 2R > T + S"),
    ],
    ids=[
        "label-rounds", "label-variants-rounds", "label-config-rounds", "label-jobs",
        "label-trials", "label-trials-zero", "label-variants-trials", "meta-seeds",
        "meta-seeds-negative",
        "tournament-jobs", "evolve-steps", "evolve-dt", "evolve-dt-nan", "evolve-dt-inf",
        "evolve-x0-nan", "evolve-resolution", "flow-resolution", "flow-two-types",
        "evolve-matrix-and-programs", "flow-matrix-and-programs", "evolve-neither",
        "match-board-size", "match-step-limit", "match-payoffs-two", "match-payoffs-letters",
        "match-payoffs-2r",
    ],
)
def test_out_of_range_option_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 0}))
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps({"a": {"kind": "static", "path": TFT},
                                     "b": {"kind": "static", "path": ALLD}}))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"tags": ["a", "b", "c"],
                                  "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    files = {"{rounds0}": str(config), "{providers}": str(providers), "{matrix}": str(matrix)}
    argv = [files.get(arg, arg) for arg in argv]
    if argv[0] in ("evolve", "flow"):  # the options are checked before any match

        def no_round_robin(*args, **kwargs):
            raise AssertionError("round robin played before the option check")

        monkeypatch.setattr(evolution, "estimate_payoff_matrix", no_round_robin)
    out = tmp_path / "out"
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not out.exists()  # nothing written before the error


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "{bad}", TFT],
        ["transform", "strip", "{bad}"],
        ["meta", "{providers}"],
        ["meta", "{bad}"],
        ["meta", "{good_providers}", "--judge-labels", "{bad}"],
        ["match", TFT, ALLD, "--config", "{bad}"],
        ["evolve", "--matrix", "{bad}"],
        ["match", TFT, ALLD, "--config", "{deep}"],
        ["meta", "{deep}"],
        ["evolve", "--matrix", "{deep}"],
    ],
    ids=["match", "transform", "provider-path", "providers-file", "judge-labels", "config",
         "matrix", "config-deep", "providers-file-deep", "matrix-deep"],
)
def test_non_utf8_input_exit_2_naming_the_file(tmp_path, capsys, argv):
    """Also JSON nested deeper than the recursion limit ({deep})."""
    bad = tmp_path / "latin1.slang"
    bad.write_bytes(NOT_UTF8)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    providers = tmp_path / "providers.json"
    providers.write_text(json.dumps({"a": {"kind": "static", "path": str(bad)}, "b": STATIC_TFT}))
    good_providers = tmp_path / "good_providers.json"
    good_providers.write_text(json.dumps({"a": STATIC_TFT, "b": STATIC_TFT}))
    files = {"{bad}": bad, "{deep}": deep, "{providers}": providers,
             "{good_providers}": good_providers}
    named = deep if "{deep}" in argv else bad
    argv = [str(files.get(arg, arg)) for arg in argv]
    code, _, err = run([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error: ") and f"{named}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 10, "seed": 7}))
    code, out, _ = run(["match", TFT, ALLD, "--config", str(config)], capsys)
    assert code == 0
    assert ": 9" in out
    # explicit flags override config values
    code, out, _ = run(
        ["match", TFT, ALLD, "--config", str(config), "--rounds", "1"], capsys
    )
    assert code == 0
    assert ": 0" in out  # one round of (C, D)


@pytest.mark.parametrize(
    "command, config, named",
    [
        (["match", TFT, ALLD], {"rounds": 2.5}, "'rounds' must be an integer"),
        (["match", TFT, ALLD], {"rounds": True}, "'rounds' must be an integer"),
        (["match", TFT, ALLD], {"payoffs": 5}, "'payoffs' must be a string"),
        (["tournament", TFT, ALLD], {"jobs": [1]}, "'jobs' must be an integer"),
        (["tournament", TFT, ALLD], [1, 2], "must be a JSON object"),
        (["tournament", TFT, ALLD], {"game": "chess"}, "'game' must be one of ['ipd', 'coin']"),
        (["tournament", TFT, ALLD], {"programs": TFT}, "'programs' must be a list of strings"),
        (["label", str(ipd_corpus_dir())], {"variants": "no"}, "'variants' must be true or false"),
        (["evolve", ALLC, ALLD, TFT], {"dt": "fast"}, "'dt' must be a number"),
    ],
    ids=["float-rounds", "bool-rounds", "int-payoffs", "list-jobs", "not-object", "game-choice",
         "programs-string", "flag-string", "string-dt"],
)
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, command, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    code, _, err = run([*command, "--config", str(path), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_option": 1}))
    code, _, err = run(["match", TFT, ALLD, "--config", str(config)], capsys)
    assert code == 2
    assert "no_such_option" in err


def _run_files(tmp_path) -> dict[str, str]:
    """Input files for the manifest tests, by the placeholder that names them."""
    files = {
        "{ipd}": {"a": STATIC_TFT, "b": {"kind": "static", "path": ALLD}},
        "{coin}": {"a": {"kind": "static", "path": COIN[0]},
                   "b": {"kind": "static", "path": COIN[1]}},
        "{judge}": [{"meta_round": 1, "player": "a", "labels": {"direct_imitation": True}}],
        "{matrix}": {"tags": ["a", "b", "c"], "matrix": [[1, 0, 2], [2, 1, 0], [0, 2, 1]]},
    }
    for name, content in files.items():
        path = tmp_path / f"{name.strip('{}')}.json"
        path.write_text(json.dumps(content))
        files[name] = str(path)
    return files


def _manifest(argv, out, capsys) -> dict:
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 0, err
    return json.loads((out / "manifest.json").read_text())


META = ["--meta-rounds", "2", "--rounds", "3"]
EVOLVE = [ALLC, ALLD, TFT, "--rounds", "5", "--steps", "20"]


@pytest.mark.parametrize(
    "argv, option, dest",
    [
        (["meta", "{ipd}", *META], ["--payoffs", "4,3,1,0"], "payoffs"),
        (["meta", "{ipd}", *META], ["--step-limit", "5000"], "step_limit"),
        (["meta", "{ipd}", *META], ["--fallback", "C"], "fallback"),
        (["meta", "{ipd}", *META], ["--judge-labels", "{judge}"], "judge_labels"),
        (["meta", "{coin}", *META, "--game", "coin"], ["--board-size", "4"], "board_size"),
        (["meta", "{coin}", *META, "--game", "coin"], ["--steps", "4"], "coin_steps"),
        (["evolve", *EVOLVE], ["--x0", "0.2,0.3,0.5"], "x0"),
        (["evolve", *EVOLVE], ["--reps", "2"], "reps"),
        (["evolve", *EVOLVE], ["--payoffs", "4,3,1,0"], "payoffs"),
        (["evolve", *EVOLVE], ["--step-limit", "5000"], "step_limit"),
    ],
    ids=["meta-payoffs", "meta-step-limit", "meta-fallback", "meta-judge-labels",
         "meta-board-size", "meta-coin-steps", "evolve-x0", "evolve-reps", "evolve-payoffs",
         "evolve-step-limit"],
)
def test_manifest_config_names_each_option_the_run_was_given(
    tmp_path, capsys, argv, option, dest
):
    files = _run_files(tmp_path)
    argv = [files.get(arg, arg) for arg in argv]
    option = [files.get(arg, arg) for arg in option]
    before = _manifest(argv, tmp_path / "before", capsys)["config"]
    after = _manifest([*argv, *option], tmp_path / "after", capsys)["config"]
    changed = {k for k in before.keys() | after.keys() if before.get(k) != after.get(k)}
    assert changed == {dest}
    assert str(after[dest]) == option[1]  # the value as given, parsed by its type


@pytest.mark.parametrize(
    "argv, positionals",
    [
        (["meta", "{ipd}", *META, "--seeds", "2", "--payoffs", "4,3,1,0", "--fallback", "C",
          "--judge-labels", "{judge}"], 2),
        (["meta", "{coin}", *META, "--game", "coin", "--board-size", "4", "--steps", "5"], 2),
        (["evolve", *EVOLVE, "--x0", "0.2,0.3,0.5", "--payoffs", "4,3,1,0", "--reps", "2"], 1),
        (["evolve", "--matrix", "{matrix}", "--steps", "30", "--tol", "1e-6",
          "--resolution", "5"], 1),
    ],
    ids=["meta-ipd", "meta-coin", "evolve-programs", "evolve-matrix"],
)
def test_manifest_config_reruns_the_command_byte_for_byte(tmp_path, capsys, argv, positionals):
    """Required positionals stay on the command line; every other option
    comes from the manifest."""
    files = _run_files(tmp_path)
    argv = [files.get(arg, arg) for arg in argv]
    first, second = tmp_path / "first", tmp_path / "second"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_manifest(argv, first, capsys)["config"]))
    rerun = _manifest([*argv[:positionals], "--config", str(config)], second, capsys)
    assert not {"out", "config", "jobs"} & rerun["config"].keys()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_config_integer_for_a_real_option_gives_the_manifest_of_the_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dt": 1}))
    _manifest(["evolve", *EVOLVE, "--config", str(config)], tmp_path / "a", capsys)
    _manifest(["evolve", *EVOLVE, "--dt", "1"], tmp_path / "b", capsys)
    manifest = (tmp_path / "a" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "b" / "manifest.json").read_bytes()
    assert b'"dt": 1.0,' in manifest


def test_label_manifest_config_leaves_out_out_config_and_jobs(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in (TFT, ALLD):
        (corpus / Path(path).name).write_text(Path(path).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 3}))
    argv = ["label", str(corpus), "--variants", "--jobs", "2", "--config", str(config)]
    manifest = _manifest(argv, tmp_path / "bench", capsys)
    assert manifest["config"] == {
        "corpus": str(corpus), "rounds": 3, "seed": labeling.DEFAULT_LABEL_SEED,
        "variants": True,
    }


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OSGAMES_OUT_DIR", str(tmp_path))
    code, out, _ = run(["match", TFT, ALLD, "--seed", "7", "--out", "rec.json"], capsys)
    assert code == 0
    assert (tmp_path / "rec.json").exists()


def _package_data_globs() -> list[str]:
    """The osgames globs of pyproject.toml's [tool.setuptools.package-data],
    read as text (tomllib is Python 3.11+)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.setuptools\.package-data\]$(.*?)(?=^\[|\Z)", text,
                        re.M | re.S)
    assert section, "pyproject.toml has no [tool.setuptools.package-data] table"
    return re.findall(r'"([^"]+)"', section.group(1))


def test_package_data_ships_every_corpus_program():
    globs = [g.split("/") for g in _package_data_globs()]
    package = corpus_dir().parent
    paths = sorted(corpus_dir().rglob("*.slang"))
    assert paths, "no corpus programs found"
    for path in paths:
        parts = path.relative_to(package).parts
        assert any(
            len(g) == len(parts) and all(map(fnmatchcase, parts, g)) for g in globs
        ), f"{path} is matched by no package-data glob, so the wheel leaves it out"

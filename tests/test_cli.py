"""Command-line interface: exit codes, determinism, configuration."""

import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asnkit.cli
from asnkit import aggregate, demo_corpus_path, summarize
from asnkit.cli import main
from corpora import crosslink_corpus, takeover_corpus
from oracles import noisy_treebanks, parse_corpus, shuffled_treebank

DEMO = demo_corpus_path()


def run(*argv):
    return main(list(argv))


def split_demo(tmp_path):
    """The demo corpus dealt in order over two files, neither holding a
    ``# sent_id`` line: the first holds century 14's header and the first
    half of its sentences, the second repeats the header and holds the rest.
    """
    c14, later = Path(DEMO).read_text(encoding="utf-8").split("# century = 15", 1)
    header, *sentences = c14.strip("\n").split("\n\n")
    half = len(sentences) // 2
    parts = [tmp_path / "part1.tb", tmp_path / "part2.tb"]
    parts[0].write_text("\n\n".join([header, *sentences[:half]]) + "\n",
                        encoding="utf-8")
    parts[1].write_text("\n\n".join([header, *sentences[half:]])
                        + "\n\n# century = 15" + later, encoding="utf-8")
    return [str(part) for part in parts]


@pytest.fixture()
def takeover_file(tmp_path):
    path = tmp_path / "takeover.tb"
    path.write_text(takeover_corpus(), encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, capsys):
        assert run("validate", DEMO) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_issues(self, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_text(
            "# century = 14\n1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n",
            encoding="utf-8",
        )
        assert run("validate", str(bad)) == 1
        out = capsys.readouterr().out
        assert "multiple roots" in out and "FAIL" in out

    @pytest.mark.parametrize("line", ["1\ta\ta\tN\t+0\t_", " 1\ta\ta\tN\t0\t_"])
    def test_validate_rejects_signed_or_padded_integers(self, tmp_path, capsys,
                                                        line):
        bad = tmp_path / "bad.tb"
        bad.write_text(f"# century = 14\n{line}\n", encoding="utf-8")
        assert run("validate", str(bad)) == 1
        assert f"{bad}:2: format error:" in capsys.readouterr().out

    def test_validate_reports_bad_bytes_and_goes_on(self, tmp_path, capsys):
        bad, roots = tmp_path / "bad.tb", tmp_path / "roots.tb"
        bad.write_bytes(b"# century = 14\n1\ta\ta\xff\tN\t0\t_\n")
        roots.write_text("# century = 14\n1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t0\t_\n",
                         encoding="utf-8")
        assert run("validate", str(bad), str(roots)) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            f"{bad}:2: format error: not UTF-8: byte 0xff (invalid start byte)"
        )
        assert "multiple roots" in out[1] and out[2] == "FAIL: 2 issue(s) found"
        assert run("build", str(bad), "--out", str(tmp_path / "o")) == 1
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    def test_validate_names_a_lemma_graphml_cannot_carry(self, tmp_path, capsys):
        bad = tmp_path / "ff.tb"
        bad.write_text("# century = 14\n# sent_id = s1\n1\ta\ta\tN\t0\t_\n"
                       "2\tb\ta\x0cb\tN\t1\t_\n3\tc\ta\x0cb\tN\t1\t_\n",
                       encoding="utf-8")
        assert run("validate", str(bad)) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{bad}:4: sentence 's1' unwritable lemma: lemma 'a\\x0cb' holds "
            "'\\x0c', which GraphML (XML 1.0) cannot carry",
            "FAIL: 1 issue(s) found",
        ]
        assert run("validate", str(bad), "--formats", "csv,dot") == 0
        assert run("analyze", str(bad), "--out", str(tmp_path / "o")) == 1
        assert "cannot be written to GraphML" in capsys.readouterr().err

    def test_validate_applies_the_missing_policy(self, tmp_path, capsys):
        bad = tmp_path / "policy.tb"
        bad.write_text("# century = 14\n# sent_id = bare\n1\t!\t!\t_\t2\t_\n"
                       "2\tb\tb\tN\t0\t_\n\n# century = 15\n# target = t\n"
                       "# sent_id = gone\n1\tt\tt\tN\t0\t_\n2\t!\t!\t_\t1\t_\n",
                       encoding="utf-8")
        assert run("validate", str(bad)) == 1
        policy = "'drop-adjacent-to-target'"
        assert capsys.readouterr().out.splitlines() == [
            f"{bad}:3: sentence 'bare' missing policy: policy {policy} needs a "
            "target lemma to judge adjacency",
            f"empty corpus: century 15 has no sentences left under policy {policy}",
            "FAIL: 2 issue(s) found",
        ]
        assert run("validate", str(bad), "--missing", "keep-all") == 0

    def test_domain_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_text("1\ta\ta\tN\t0\t_\n", encoding="utf-8")
        assert run("build", str(bad), "--out", str(tmp_path / "o")) == 1
        assert "century" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert run("build", str(tmp_path / "nope.tb"),
                   "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command", ["build", "validate"])
    def test_no_input_file_is_two(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(command)
        assert exit_info.value.code == 2
        assert "the following arguments are required: TREEBANK" in (
            capsys.readouterr().err)

    def test_unknown_config_key_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert run("build", DEMO, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["missing", "degree"])
    def test_bad_config_value_is_two(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
        assert run("build", DEMO, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["strict", "unweighted", "seed"])
    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run settings\n{key} = maybe\n", encoding="utf-8")
        assert run("build", DEMO, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ")
        assert "'maybe'" in err

    def test_bad_flag_value_is_two(self, tmp_path, capsys):
        assert run("powerlaw", DEMO, "--replicates", "10",
                   "--out", str(tmp_path / "o"), "--seed", "1") == 2
        assert "replicates" in capsys.readouterr().err

    def test_bad_track_key_is_two(self, tmp_path, capsys):
        assert run("diachrony", DEMO, "--track", "nounspace",
                   "--out", str(tmp_path / "o")) == 2
        assert "ROLE lemma" in capsys.readouterr().err

    def test_track_keys_take_role_codes_and_the_missing_role(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("diachrony", DEMO, "--track", "_ !", "--out", str(out)) == 0
        rows = (out / "trajectories.csv").read_text(encoding="utf-8").split("\n")
        assert "_,!,14,1,2.0,37,1,0" in rows
        assert run("diachrony", DEMO, "--track", "XX a", "--out", str(out)) == 2
        assert "unknown grammatical role code 'XX'" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\nreplicates = \xff\n")
        assert run("build", DEMO, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: not UTF-8: byte 0xff (invalid start byte)\n")

    def test_config_line_without_equals_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 1\n", encoding="utf-8")
        assert run("build", DEMO, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: expected 'key = value'\n"

    @pytest.mark.parametrize("flags, message", [
        (["--band", "0"], "band must be >= 1 and min-gain >= 0"),
        (["--formats", "csv,xml"],
         "unknown format 'xml' (choose from csv, dot, graphml)"),
    ], ids=["band", "formats"])
    def test_bad_band_or_format_is_two(self, tmp_path, capsys, flags, message):
        assert run("analyze", DEMO, *flags, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_track_key_fails_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("analyze", DEMO, "--track", "nounspace", "--out", str(out)) == 2
        assert "ROLE lemma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_fails_before_any_work(self, tmp_path, capsys, source):
        out = tmp_path / "o"
        if source == "flag":
            options = ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n", encoding="utf-8")
            options = ["--config", str(cfg)]
        assert run("analyze", DEMO, *options, "--out", str(out)) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_corpus_after_policy_is_one(self, tmp_path, capsys):
        text = ("# century = 14\n# target = kumt\n"
                "1\t!\t!\t_\t2\t_\n2\tkumt\tkumt\tV\t0\t_\n")
        path = tmp_path / "tiny.tb"
        path.write_text(text, encoding="utf-8")
        assert run("build", str(path), "--missing", "drop-any",
                   "--out", str(tmp_path / "o")) == 1
        assert "empty corpus" in capsys.readouterr().err

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asnkit.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_degenerate_bootstrap_is_recorded_not_raised(self, tmp_path):
        # 48 two-token and 2 three-token sentences with unique lemmas: the
        # total degrees are almost all 1, so too many replicates degenerate
        blocks = ["# century = 14"]
        blocks += [f"1\tn{i}\tn{i}\tN\t2\t_\n2\tv{i}\tv{i}\tV\t0\t_"
                   for i in range(48)]
        blocks += [f"1\ta{i}\ta{i}\tN\t2\t_\n2\tw{i}\tw{i}\tV\t0\t_\n"
                   f"3\tb{i}\tb{i}\tN\t2\t_" for i in range(2)]
        path = tmp_path / "flat.tb"
        path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("analyze", str(path), "--out", str(out),
                   "--replicates", "100") == 0
        payload = json.loads((out / "powerlaw_14.json").read_text())
        assert "bootstrap replicates were degenerate" in payload["error"]
        assert "p_value" not in payload
        manifest = json.loads((out / "manifest.json").read_text())
        assert "powerlaw_14.json" in manifest["files"]


    def test_refused_lrt_is_recorded_not_raised(self, tmp_path):
        # every century's total degrees above xmin 1 are 1 and 2, a
        # two-valued tail that both comparisons refuse
        path = tmp_path / "crosslink.tb"
        path.write_text(crosslink_corpus(), encoding="utf-8")
        out = tmp_path / "o"
        assert run("powerlaw", str(path), "--out", str(out),
                   "--replicates", "100") == 0
        error = "tail has 2 distinct value(s); comparison needs at least 3"
        for c in (14, 15, 16, 17):
            payload = json.loads((out / f"powerlaw_{c}.json").read_text())
            assert payload["xmin"] == 1 and "p_value" in payload
            assert payload["lrt"] == [
                {"alternative": "exponential", "error": error},
                {"alternative": "lognormal", "error": error}]


class TestArtifacts:
    def test_build_writes_one_csv_per_century(self, tmp_path):
        out = tmp_path / "o"
        assert run("build", DEMO, "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["asn_14.csv", "asn_15.csv", "asn_16.csv",
                         "asn_17.csv"]

    def test_export_respects_format_selection(self, tmp_path):
        out = tmp_path / "o"
        assert run("export", DEMO, "--out", str(out),
                   "--formats", "dot,graphml") == 0
        suffixes = {p.suffix for p in out.iterdir()}
        assert suffixes == {".dot", ".graphml"}

    def test_stats_and_hierarchy_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run("stats", DEMO, "--out", str(out)) == 0
        assert run("hierarchy", DEMO, "--out", str(out)) == 0
        summary = json.loads((out / "summary_14.json").read_text())
        assert summary["century"] == 14
        assert summary["summary"]["node_count"] > 0
        assert (out / "depth_vs_diameter.csv").exists()
        stats = json.loads((out / "hierarchy_stats_14.json").read_text())
        assert 0.0 <= stats["incoherence"]
        assert stats["weighted"] is True

    def test_crosslinks_lift_diameter_past_tree_depth(self, tmp_path):
        # every tree is 4 deep; from century 16 on, shared lemmas chain the
        # trees into paths that no single sentence holds
        path = tmp_path / "crosslink.tb"
        path.write_text(crosslink_corpus(), encoding="utf-8")
        out = tmp_path / "o"
        assert run("stats", str(path), "--out", str(out)) == 0
        lines = (out / "depth_vs_diameter.csv").read_text().splitlines()
        assert lines[1] == "century,max_tree_depth,diameter,average_path_length"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(row[0]) for row in rows] == [14, 15, 16, 17]
        summaries = {s.century: summarize(aggregate(s.trees))
                     for s in parse_corpus(crosslink_corpus())}
        for century, depth, diameter, path_length in rows:
            summary = summaries[int(century)]
            assert int(diameter) == summary.diameter
            assert float(path_length) == summary.average_path_length
            assert int(depth) == 4
            if int(century) < 16:
                assert summary.diameter == 4
            else:
                assert summary.diameter > 4
                assert summary.average_path_length > 4

    def test_hierarchy_stats_record_whether_heads_sit_at_0(self, tmp_path):
        # one two-token sentence per edge.  Century 14: the closed 2-cycle
        # a <-> b feeds d, so its minimum-norm levels go below the head h
        # (singular).  Century 15: h reaches the 2-cycle (nonsingular).
        def century(c, edges):
            return f"# century = {c}\n" + "\n".join(
                f"1\t{u}\t{u}\tN\t0\t_\n2\t{v}\t{v}\tN\t1\t_\n"
                for u, v in edges)

        path = tmp_path / "heads.tb"
        path.write_text(
            century(14, ["ab", "ba", "ad", "hc"]) + "\n"
            + century(15, ["ha", "ab", "ba"]), encoding="utf-8")
        out = tmp_path / "o"
        assert run("hierarchy", str(path), "--out", str(out)) == 0
        for c, at_0 in ((14, False), (15, True)):
            stats = json.loads((out / f"hierarchy_stats_{c}.json").read_text())
            assert stats["heads_at_0"] is at_0
            assert stats["conventions"]["levels"] == "forward,min0"

    def test_seed_is_recorded_in_artifacts(self, tmp_path):
        out = tmp_path / "o"
        assert run("powerlaw", DEMO, "--out", str(out), "--seed", "33",
                   "--replicates", "100") == 0
        payload = json.loads((out / "powerlaw_14.json").read_text())
        assert payload["seed"] == 33
        first_line = (out / "ccdf_14.csv").read_text().splitlines()[0]
        assert "seed=33" in first_line

    def test_diachrony_bundle(self, takeover_file, tmp_path):
        out = tmp_path / "o"
        assert run("diachrony", takeover_file, "--out", str(out),
                   "--track", "MV mogen", "--track", "MV konnen") == 0
        events = json.loads((out / "emergent_heads.json").read_text())
        assert [e["lemma"] for e in events["events"]] == ["konnen"]
        assert events["events"][0]["century"] == 16
        rows = (out / "trajectories.csv").read_text().splitlines()
        assert rows[1].startswith("role,lemma,century,present")
        assert len(rows) == 2 + 2 * 4  # metadata + header + 2 keys x 4 slices
        assert (out / "phase_space.csv").exists()

    def test_diachrony_computes_no_topology_summary(self, tmp_path,
                                                    monkeypatch):
        def refuse(asn):
            raise AssertionError("diachrony must not summarize")

        monkeypatch.setattr(asnkit.cli, "summarize", refuse)
        assert run("diachrony", DEMO, "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("command", ["analyze", "diachrony"])
    def test_edgeless_century_has_empty_phase_point(self, tmp_path, command):
        # century 14 holds only one-token sentences, so its network has no
        # edges and its hierarchy statistics are undefined
        text = ("# century = 14\n1\ta\ta\tN\t0\t_\n\n"
                "# century = 15\n1\ta\ta\tN\t2\t_\n2\tv\tv\tV\t0\t_\n\n"
                "1\tb\tb\tN\t2\t_\n2\tv\tv\tV\t0\t_\n")
        path = tmp_path / "edgeless.tb"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run(command, str(path), "--out", str(out),
                   "--replicates", "100") == 0
        rows = (out / "phase_space.csv").read_text().splitlines()
        assert rows[2] == "14,,"
        assert rows[3].startswith("15,")
        if command == "analyze":
            manifest = json.loads((out / "manifest.json").read_text())
            assert "phase_space.csv" in manifest["files"]
            stats = json.loads((out / "hierarchy_stats_14.json").read_text())
            assert "edgeless" in stats["error"]

    def test_phase_points_of_a_chain_and_a_2_cycle(self, tmp_path):
        # century 14: the chain a -> b -> c, democracy and incoherence 0;
        # century 15: a <-> b from two sentences, democracy 1
        text = ("# century = 14\n"
                "1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t1\t_\n3\tc\tc\tN\t2\t_\n\n"
                "# century = 15\n1\ta\ta\tN\t0\t_\n2\tb\tb\tN\t1\t_\n\n"
                "1\tb\tb\tN\t0\t_\n2\ta\ta\tN\t1\t_\n")
        path = tmp_path / "phase.tb"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("diachrony", str(path), "--out", str(out)) == 0
        rows = (out / "phase_space.csv").read_text().splitlines()
        assert rows[1:] == ["century,democracy,incoherence",
                            "14,0.0,0.0", "15,1.0,0.0"]

    def test_unweighted_flag_changes_hierarchy_output(self, tmp_path):
        text = ("# century = 14\n"
                "1\tb\tb\tN\t3\t_\n2\tb\tb\tN\t3\t_\n3\ta\ta\tN\t0\t_\n"
                "4\tc\tc\tN\t3\t_\n\n"
                "1\tc\tc\tN\t2\t_\n2\tb\tb\tN\t0\t_\n")
        path = tmp_path / "w.tb"
        path.write_text(text, encoding="utf-8")
        out_w = tmp_path / "weighted"
        out_u = tmp_path / "unweighted"
        assert run("hierarchy", str(path), "--out", str(out_w)) == 0
        assert run("hierarchy", str(path), "--out", str(out_u),
                   "--unweighted") == 0
        weighted = (out_w / "hierarchy_14.csv").read_text()
        unweighted = (out_u / "hierarchy_14.csv").read_text()
        assert weighted != unweighted


    def test_every_csv_row_matches_its_header(self, tmp_path):
        # lemmas holding a comma, a quote and a carriage return, each of
        # which must be quoted for a CSV reader to keep the row whole
        lemmas = ("a,b", 'sa"gt', "x\ry")
        sentence = (f"1\t{lemmas[0]}\t{lemmas[0]}\tN\t2\t_\n"
                    f"2\t{lemmas[1]}\t{lemmas[1]}\tV\t0\t_\n"
                    f"3\t{lemmas[2]}\t{lemmas[2]}\tN\t2\t_\n")
        text = "".join(f"# century = {c}\n{sentence}\n" for c in (14, 15))
        path = tmp_path / "awkward.tb"
        path.write_text(text, encoding="utf-8", newline="")
        out = tmp_path / "o"
        track = ["--track", f"N {lemmas[0]}", "--track", f"V {lemmas[1]}",
                 "--track", f"N {lemmas[2]}"]
        assert run("analyze", str(path), "--out", str(out),
                   "--replicates", "100", *track) == 0
        csv_files = sorted(out.glob("*.csv"))
        assert {p.name for p in csv_files} >= {
            "asn_14.csv", "hierarchy_14.csv", "trajectories.csv"
        }
        for csv_path in csv_files:
            with open(csv_path, encoding="utf-8", newline="") as handle:
                body = handle.read()
            if body.startswith("#"):
                body = body.split("\n", 1)[1]
            header, *rows = csv.reader(io.StringIO(body, newline=""))
            assert rows, csv_path.name
            for row in rows:
                assert len(row) == len(header), (csv_path.name, row)
        with open(out / "trajectories.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[2:]
        assert sorted({row[1] for row in rows}) == sorted(lemmas)


class TestDeterminismAndConfig:
    def test_analyze_twice_is_byte_identical(self, takeover_file, tmp_path):
        args = ("analyze", takeover_file, "--seed", "5",
                "--replicates", "100", "--track", "MV konnen")
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(*args, "--out", str(one)) == 0
        assert run(*args, "--out", str(two)) == 0
        files_one = sorted(p.name for p in one.iterdir())
        files_two = sorted(p.name for p in two.iterdir())
        assert files_one == files_two
        for name in files_one:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    @staticmethod
    def analyze_demo_and(tmp_path, parts):
        """The manifests of ``analyze`` on the demo and on ``parts``, without
        ``config.inputs``, after checking every other file is byte-identical."""
        args = ("--seed", "0", "--replicates", "100")
        one, two = tmp_path / "one", tmp_path / "two"
        assert run("analyze", DEMO, *args, "--out", str(one)) == 0
        assert run("analyze", *map(str, parts), *args, "--out", str(two)) == 0
        names = sorted(p.name for p in one.iterdir())
        assert sorted(p.name for p in two.iterdir()) == names
        for name in names:
            if name != "manifest.json":
                assert (one / name).read_bytes() == (two / name).read_bytes(), name
        manifests = []
        for out in (one, two):
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["config"]["inputs"]
            manifests.append(manifest)
        return manifests

    def test_sentence_order_and_files_change_only_the_manifest(self, tmp_path):
        # The demo's sentences shuffled within each century and dealt over
        # two files: only the inputs and the order of the drops differ.
        parts = []
        for i, text in enumerate(shuffled_treebank(
                Path(DEMO).read_text(encoding="utf-8"), seed=2, files=2)):
            parts.append(tmp_path / f"part{i}.tb")
            parts[-1].write_text(text, encoding="utf-8")
        manifests = self.analyze_demo_and(tmp_path, parts)
        for manifest in manifests:
            manifest["dropped_sentences"].sort()
        assert manifests[0] == manifests[1]

    def test_a_document_continues_in_the_next_file_without_ids(self, tmp_path, capsys):
        parts = split_demo(tmp_path)
        assert run("validate", *parts) == 0
        assert capsys.readouterr().out == "OK: 2 file(s) valid\n"
        manifests = self.analyze_demo_and(tmp_path, parts)
        assert manifests[0] == manifests[1]

    def test_analyze_manifest_lists_the_bundle(self, takeover_file, tmp_path):
        out = tmp_path / "o"
        assert run("analyze", takeover_file, "--out", str(out),
                   "--replicates", "100") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "asnkit"
        assert manifest["centuries"] == [14, 15, 16, 17]
        on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["files"] == on_disk
        assert manifest["config"]["seed"] == 0

    def test_subcommands_write_exactly_the_analyze_bundle(
        self, takeover_file, tmp_path
    ):
        args = ("--replicates", "100", "--track", "MV konnen")
        bundle, parts = tmp_path / "bundle", tmp_path / "parts"
        assert run("analyze", takeover_file, "--out", str(bundle), *args) == 0
        for command in ("build", "export", "stats", "hierarchy", "powerlaw",
                        "diachrony"):
            assert run(command, takeover_file, "--out", str(parts), *args) == 0
        expected = sorted(p.name for p in bundle.iterdir()
                          if p.name != "manifest.json")
        assert sorted(p.name for p in parts.iterdir()) == expected
        for name in expected:
            assert (parts / name).read_bytes() == (bundle / name).read_bytes(), name

    def test_config_file_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed = 11\nreplicates = 120\nmin-gain = 3\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        assert run("powerlaw", DEMO, "--config", str(cfg),
                   "--out", str(out), "--seed", "99") == 0
        payload = json.loads((out / "powerlaw_14.json").read_text())
        assert payload["seed"] == 99  # flag beats file
        assert payload["replicates"] == 120  # file beats default

    def test_config_lines_end_only_at_newline(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\r\ntrack = N a\u2028b\r\n", encoding="utf-8",
                       newline="")
        out = tmp_path / "o"
        assert run("diachrony", DEMO, "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "trajectories.csv").read_text(encoding="utf-8").split("\n")
        assert rows[2].startswith("N,a\u2028b,14,0,")

    def test_strict_flag_tightens_the_threshold(self, tmp_path):
        out_, strict_out = tmp_path / "a", tmp_path / "b"
        assert run("powerlaw", DEMO, "--out", str(out_),
                   "--replicates", "100") == 0
        assert run("powerlaw", DEMO, "--out", str(strict_out),
                   "--replicates", "100", "--strict") == 0
        lax = json.loads((out_ / "powerlaw_14.json").read_text())
        strict = json.loads((strict_out / "powerlaw_14.json").read_text())
        assert lax["threshold"] == 0.01
        assert strict["threshold"] == 0.1


#: Per option: a config-file value, the flags that say the same, and another
#: config-file value that those flags must beat.
OPTION_SAMPLES = {
    "out": ("bundle", ["--out", "bundle"], "elsewhere"),
    "missing": ("drop-any", ["--missing", "drop-any"], "keep-all"),
    "seed": ("11", ["--seed", "11"], "12"),
    "unweighted": ("yes", ["--unweighted"], "no"),
    "degree": ("in", ["--degree", "in"], "out"),
    "replicates": ("120", ["--replicates", "120"], "150"),
    "strict": ("on", ["--strict"], "off"),
    "band": ("3", ["--band", "3"], "4"),
    "min_gain": ("7", ["--min-gain", "7"], "8"),
    "formats": ("csv, dot", ["--formats", "csv,dot"], "graphml"),
    "track": ("N man, V louft", ["--track", "N man", "--track", "V louft"],
              "MV konnen"),
}


class TestEveryOption:
    def test_every_option_has_a_sample(self):
        assert sorted(OPTION_SAMPLES) == sorted(asnkit.cli._OPTIONS)

    @staticmethod
    def resolve(tmp_path, config_line=None, flags=()):
        args = ["analyze", DEMO, *flags]
        if config_line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_line + "\n", encoding="utf-8")
            args += ["--config", str(cfg)]
        return asnkit.cli._resolve_config(asnkit.cli.build_parser().parse_args(args))

    @pytest.mark.parametrize("name", sorted(asnkit.cli._OPTIONS))
    def test_config_line_equals_flag_and_flag_beats_file(self, tmp_path, name):
        value, flags, other = OPTION_SAMPLES[name]
        from_flag = self.resolve(tmp_path, flags=flags)
        assert from_flag != self.resolve(tmp_path)  # not the default
        assert self.resolve(tmp_path, f"{name} = {value}") == from_flag
        from_other = self.resolve(tmp_path, f"{name} = {other}")
        assert from_other != from_flag
        assert self.resolve(tmp_path, f"{name} = {other}", flags) == from_flag


class TestValidateAgreesWithBuild:
    """``validate`` passes exactly the inputs ``build`` and ``export`` accept,
    for the formats they write, under ``keep-all`` and the default missing
    policy."""

    @given(noisy_treebanks(), noisy_treebanks(),
           st.sampled_from([("--missing", "keep-all"), ()]))
    @settings(max_examples=60, deadline=None)
    # A lone carriage return inside a lemma is lemma text for both.
    @example(b"# century = 14\n# sent_id = s1\n1\ta\ta\rb\tN\t0\t_\n", b"",
             ("--missing", "keep-all"))
    # A sentence id repeated in a second file is rejected by both.
    @example(b"# century = 14\n# sent_id = s1\n1\ta\ta\tN\t0\t_\n",
             b"# century = 14\n# sent_id = s1\n1\ta\ta\tN\t0\t_\n",
             ("--missing", "keep-all"))
    # A form feed in a lemma: CSV carries it, GraphML cannot.
    @example(b"# century = 14\n# sent_id = s1\n1\ta\ta\x0cb\tN\t0\t_\n", b"",
             ("--missing", "keep-all"))
    # The default policy cannot judge a sentence with a missing token and no
    # target.
    @example(b"# century = 14\n# sent_id = a\n1\t!\t!\t_\t2\t_\n2\tb\tb\tN\t0\t_\n",
             b"", ())
    # A lemma GraphML cannot carry, only in a sentence the default policy drops.
    @example(b"# century = 14\n# target = t\n# sent_id = a\n1\tt\tt\tN\t0\t_\n"
             b"2\t!\t!\t_\t1\t_\n3\tx\ta\x0cb\tN\t1\t_\n\n"
             b"# sent_id = b\n1\tc\tc\tN\t0\t_\n", b"", ())
    # The default policy drops every sentence of a century.
    @example(b"# century = 14\n# target = t\n1\tt\tt\tN\t0\t_\n2\t!\t!\t_\t1\t_\n",
             b"", ())
    def test_validate_exits_zero_exactly_when_build_does(self, first, second, policy):
        with tempfile.TemporaryDirectory() as work:
            paths = [str(Path(work) / "d1.tb"), str(Path(work) / "d2.tb")]
            for path, data in zip(paths, (first, second)):
                Path(path).write_bytes(data)
            for command, formats in (("build", "csv"), ("export", "csv,dot,graphml")):
                options = [*policy, "--formats", formats]
                validated = run("validate", *paths, *options) == 0
                built = run(command, *paths, *options,
                            "--out", str(Path(work) / "o")) == 0
                assert validated == built, command

    @pytest.mark.parametrize("text", [
        "",
        "# century = 14\n# target = t\n1\tt\tt\tN\t0\t_\n2\t!\t!\t_\t1\t_\n",
    ], ids=["no-sentences", "century-emptied-by-policy"])
    def test_empty_corpus_error_is_a_line_validate_prints(self, tmp_path, capsys, text):
        # The pipeline stops at the first empty-corpus fault, which validate
        # lists among all of them, in the same words.
        path = tmp_path / "c.tb"
        path.write_text(text, encoding="utf-8")
        assert run("validate", str(path)) == 1
        printed = capsys.readouterr().out.splitlines()
        assert run("analyze", str(path), "--out", str(tmp_path / "o")) == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("error: ") and error.removeprefix("error: ") in printed

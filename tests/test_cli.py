import functools
import json
import pathlib
import shutil

import pytest

from archuncert import (compute_threshold, estimate_conditional, example_path,
                        parse_architecture_document, parse_calibration_csv)
from archuncert import arch, cli, formats, patterns
from archuncert.cli import main
from helpers import fuzz_corpus


@pytest.fixture
def end_to_end(tmp_path):
    dst = tmp_path / "end-to-end.arch"
    shutil.copy(example_path("end-to-end.arch"), dst)
    return str(dst)


@pytest.fixture
def component_based(tmp_path):
    dst = tmp_path / "component-based.arch"
    shutil.copy(example_path("component-based.arch"), dst)
    return str(dst)


@pytest.fixture
def samples_csv(tmp_path):
    dst = tmp_path / "depth-samples.csv"
    shutil.copy(example_path("depth-samples.csv"), dst)
    return str(dst)


# the edge a -> b is declared twice, so b's CPT is keyed by ["a", "a"]
REPEATED_PARENT = (
    'name: "repeated"\n'
    'components:\n'
    '- {"id": "a", "kind": "classical"}\n'
    '- {"id": "b", "kind": "classical"}\n'
    'edges:\n'
    '- {"from": "a", "to": "b"}\n'
    '- {"from": "a", "to": "b"}\n'
    'cpts:\n'
    '  a: {"parents": [], "rows": {"": 0.3}}\n'
    '  b:\n'
    '    parents: ["a", "a"]\n'
    '    rows: {"L,L": 0.1, "L,H": 0.2, "H,L": 0.5, "H,H": 0.4}\n')


class TestValidate:
    def test_ok_text(self, end_to_end, capsys):
        assert main(["validate", end_to_end]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_ok_json(self, end_to_end, capsys):
        assert main(["validate", end_to_end, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": True, "findings": []}

    def test_cyclic_architecture_exits_1_with_named_cycle(self, tmp_path,
                                                          capsys):
        path = tmp_path / "cyclic.arch"
        path.write_text(
            'name: "cyclic"\n'
            'components:\n'
            '- {"id": "a", "kind": "classical"}\n'
            '- {"id": "b", "kind": "classical"}\n'
            'edges:\n'
            '- {"from": "a", "to": "b"}\n'
            '- {"from": "b", "to": "a"}\n')
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "cycle" in out
        assert "a" in out and "b" in out

    def test_duplicate_id_and_cycle_text(self, tmp_path, capsys):
        path = tmp_path / "findings.arch"
        path.write_text('name: "x"\ncomponents:\n'
                        '- {"id": "a", "kind": "classical"}\n'
                        '- {"id": "b", "kind": "classical"}\n'
                        '- {"id": "a", "kind": "ml"}\n'
                        'edges:\n'
                        '- {"from": "a", "to": "b"}\n'
                        '- {"from": "b", "to": "a"}\n')
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "duplicate id variable=a\n"
            "cycle variable=a path=a->b->a\n")

    def test_repeated_parent_exits_1(self, tmp_path, capsys):
        path = tmp_path / "repeated.arch"
        path.write_text(REPEATED_PARENT)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "repeated parent variable=b parent 'a' listed twice\n")

    def test_wide_table_lists_ten_missing_rows(self, tmp_path, capsys):
        # 2^20 rows expected and one present: the findings stay short
        ids = [f"c{i}" for i in range(20)]
        path = tmp_path / "wide.arch"
        path.write_text(
            'name: "wide"\ncomponents:\n'
            + "".join(f'- {{"id": "{c}", "kind": "classical"}}\n'
                      for c in ids + ["sink"])
            + "edges:\n"
            + "".join(f'- {{"from": "{c}", "to": "sink"}}\n' for c in ids)
            + "cpts:\n"
            + "".join(f'  {c}: {{"parents": [], "rows": {{"": 0.5}}}}\n'
                      for c in ids)
            + f"  sink:\n    parents: {json.dumps(ids)}\n"
            + f'    rows: {{"{",".join("L" * 20)}": 0.5}}\n')
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("missing CPT row variable=sink row "
                            f"'{','.join('H' * 20)}'")
        assert lines[10:] == [
            "missing CPT row variable=sink and 1048565 more"]

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.arch"
        path.write_text("name: [unclosed")
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_findings_json(self, tmp_path, capsys):
        path = tmp_path / "duplicate.arch"
        path.write_text('name: "x"\ncomponents:\n'
                        '- {"id": "a", "kind": "classical"}\n'
                        '- {"id": "a", "kind": "classical"}\n')
        assert main(["validate", str(path), "--format", "json"]) == 1
        missing = {"kind": "missing CPT", "variable": "a",
                   "detail": "expected rows ['']", "path": []}
        assert json.loads(capsys.readouterr().out) == {
            "ok": False,
            "findings": [{"kind": "duplicate id", "variable": "a",
                          "detail": "", "path": []}, missing, missing]}

    def test_parse_error_json(self, tmp_path, capsys):
        path = tmp_path / "broken.arch"
        path.write_text('name: "x"\ncomponents: [\n')
        assert main(["validate", str(path), "--format", "json"]) == 1
        assert capsys.readouterr().out == (
            '{"ok": false, "error": "line 3, column 1: '
            'did not find expected node content"}\n')

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.arch")
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: cannot read {path}: [Errno 2] "
                f"No such file or directory: {path!r}\n")


class TestEval:
    def test_prints_probability(self, end_to_end, capsys):
        assert main(["eval", end_to_end, "--target", "Planning",
                     "--evidence", "SU_DE=H"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0

    def test_bad_evidence_syntax_exits_2(self, end_to_end, capsys):
        assert main(["eval", end_to_end, "--target", "Planning",
                     "--evidence", "SU_DE:H"]) == 2

    def test_unknown_target_exits_2(self, end_to_end):
        assert main(["eval", end_to_end, "--target", "nope"]) == 2

    def test_duplicate_evidence_exits_2(self, end_to_end, capsys):
        assert main(["eval", end_to_end, "--target", "Planning",
                     "--evidence", "DE=H", "--evidence", "DE=L"]) == 2
        assert capsys.readouterr().err == (
            "error: --evidence 'DE=L': duplicate variable\n")

    @pytest.mark.parametrize("query", [["--target", "b"],
                                       ["--target", "a", "--evidence", "b=H"]])
    def test_repeated_parent_exits_1(self, tmp_path, capsys, query):
        path = tmp_path / "repeated.arch"
        path.write_text(REPEATED_PARENT)
        assert main(["eval", str(path)] + query) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: invalid architecture: repeated parent variable=b "
                "parent 'a' listed twice\n")

    def test_deterministic_output(self, end_to_end, capsys):
        main(["eval", end_to_end, "--target", "Planning"])
        first = capsys.readouterr().out
        main(["eval", end_to_end, "--target", "Planning"])
        assert capsys.readouterr().out == first


class TestSweep:
    def test_101_data_rows(self, end_to_end, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "DE@all", "--evidence", "SU_DE=H",
                     "--from", "0", "--to", "1", "--step", "0.01",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,p_high"
        assert len(lines) == 102

    def test_row_selector(self, end_to_end, capsys):
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "Planning@H", "--step", "0.5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_unwritable_output_exits_2(self, end_to_end, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "DE@all", "--step", "0.5",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_vary_without_variable_exits_2(self, end_to_end, capsys):
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "@H"]) == 2
        assert capsys.readouterr().err == (
            "error: --vary '@H': missing variable id\n")

    @pytest.mark.parametrize("step", ["nan", "inf", "-0.1", "1e10", "1e-9"])
    def test_bad_step_exits_2(self, end_to_end, capsys, step):
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "DE@all", "--step", step]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "step" in err

    def test_grid_ends_at_stop(self, end_to_end, capsys):
        # 0.1 + 7 * (0.9 / 7) is 1.0000000000000002 in floating point
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "DE@all", "--from", "0.1",
                     "--step", "0.1285714285714286"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9
        assert lines[-1].startswith("1.0,")

    def test_impossible_evidence_names_the_grid_point(self, end_to_end,
                                                      capsys):
        # Planning=H has probability t, so only t = 0 fails
        assert main(["sweep", end_to_end, "--target", "Planning",
                     "--vary", "Planning@all", "--evidence", "Planning=H",
                     "--step", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error: impossible evidence: {Planning=H} at t = 0.0\n")

    def test_byte_identical_runs(self, end_to_end, tmp_path):
        args = ["sweep", end_to_end, "--target", "Planning",
                "--vary", "EU@all", "--step", "0.1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCompare:
    def test_compare_bundled_examples(self, end_to_end, component_based,
                                      tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", end_to_end, component_based,
                     "--target", "Planning", "--vary", "DE@all",
                     "--evidence", "SU_DE=H", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,p_high_a,p_high_b,delta"
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 102
        assert any(l.startswith("#") for l in lines)  # crossings or none

    def test_impossible_evidence_names_the_network(self, end_to_end,
                                                   component_based, capsys):
        assert main(["compare", component_based, end_to_end,
                     "--target", "Planning", "--vary", "Planning@all",
                     "--evidence", "Planning=H", "--step", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "error: network 'component-based': impossible evidence: "
            "{Planning=H} at t = 0.0\n")

    def test_invalid_first_file_is_reported_before_the_second_is_read(
            self, end_to_end, tmp_path, capsys):
        invalid = tmp_path / "invalid.arch"
        invalid.write_text(pathlib.Path(end_to_end).read_text().replace(
            '{"from": "SS", "to": "Planning"}',
            '{"from": "Planning", "to": "OD"}'))
        assert main(["compare", str(invalid), str(tmp_path / "missing.arch"),
                     "--target", "Planning", "--vary", "DE@all"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid architecture: ")


class TestApplyPattern:
    def test_transform_and_reload(self, end_to_end, tmp_path, capsys):
        out = tmp_path / "out.arch"
        assert main(["apply-pattern", "n-version", end_to_end,
                     "--component", "DE", "--monitor", "lidar",
                     "--monitor-p-high", "0.1", "--weight", "0.9",
                     "-o", str(out)]) == 0
        text = out.read_text()
        assert '"lidar"' in text and '"voter_DE"' in text
        assert '"H,L": 0.09999999999999998' in text or '"H,L": 0.1' in text
        assert main(["validate", str(out)]) == 0

    @pytest.mark.parametrize("ids", [["--monitor", "m", "--voter", "m"],
                                     ["--monitor", "voter_DE"]])
    def test_monitor_id_equal_to_voter_id_exits_2(self, end_to_end, tmp_path,
                                                  capsys, ids):
        out = tmp_path / "out.arch"
        assert main(["apply-pattern", "n-version", end_to_end,
                     "--component", "DE", *ids, "--monitor-p-high", "0.5",
                     "--weight", "0.5", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: monitor and voter need distinct ids, both are "
            f"{ids[1]!r}\n")
        assert not out.exists()

    def test_unknown_pattern_exits_2(self, end_to_end):
        with pytest.raises(SystemExit) as exc:
            main(["apply-pattern", "recovery-block", end_to_end,
                  "--component", "DE", "--monitor", "lidar",
                  "--monitor-p-high", "0.1", "--weight", "0.9"])
        assert exc.value.code == 2


class TestCalibrate:
    def test_prints_threshold_and_p_high(self, samples_csv, capsys):
        assert main(["calibrate", samples_csv]) == 0
        out = capsys.readouterr().out
        assert "threshold: 0.45" in out
        assert "p_high:" in out
        assert "p_high[H]" in out  # EU column present in the bundled file

    def test_emit_cpt_block(self, samples_csv, capsys):
        assert main(["calibrate", samples_csv, "--parents", "EU",
                     "--emit-cpt", "DE"]) == 0
        out = capsys.readouterr().out
        assert 'cpts:' in out and '"DE":' in out
        assert 'parents: ["EU"]' in out
        block = out[out.index("cpts:"):]
        document = parse_architecture_document(
            'name: "emitted"\ncomponents:\n- {"id": "DE", "kind": "ml"}\n'
            + block)
        cpt = document.cpts["DE"]
        assert cpt.parents == ("EU",)
        assert list(cpt.rows) == ["L", "H"]  # canonical row order
        with open(samples_csv, encoding="utf-8") as fh:
            records = parse_calibration_csv(fh.read()).records
        rows = estimate_conditional(
            records, compute_threshold(records).value, ("EU",))
        assert cpt.rows == {key: row.p_high for key, row in rows.items()}

    def test_no_misclassified_sample_emits_a_root_block(self, tmp_path,
                                                         capsys):
        path = tmp_path / "all-correct.csv"
        path.write_text("sample_id,uncertainty,correct\n"
                        "s1,0.2,true\ns2,0.7,true\ns3,0.9,true\n")
        assert main(["calibrate", str(path), "--emit-cpt", "DE"]) == 0
        assert capsys.readouterr().out == (
            "threshold: +inf (no misclassified samples)\n"
            "p_high: 0.0 (0/3)\n"
            "cpts:\n"
            '  "DE":\n'
            "    parents: []\n"
            "    rows:\n"
            '      "": 0.0\n')

    def test_emit_cpt_names_unestimated_rows(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("sample_id,uncertainty,correct,EU,SU\n"
                        "s1,0.2,true,L,L\ns2,0.7,false,L,H\n"
                        "s3,0.9,false,H,H\n")
        assert main(["calibrate", str(path), "--emit-cpt", "DE"]) == 0
        assert capsys.readouterr().out == (
            "threshold: 0.7\n"
            "p_high: 0.6666666666666666 (2/3)\n"
            "p_high[H,H]: 1.0 (1/1)\n"
            "p_high[H,L]: 0.5 (0/0)  [unestimated, defaulted]\n"
            "p_high[L,H]: 1.0 (1/1)\n"
            "p_high[L,L]: 0.0 (0/1)\n"
            "cpts:\n"
            '  "DE":\n'
            '    parents: ["EU", "SU"]\n'
            "    rows:\n"
            '      "L,L": 0.0\n'
            '      "L,H": 1.0\n'
            '      "H,L": 0.5\n'
            '      "H,H": 1.0\n'
            '# unestimated rows defaulted to 0.5: "H,L"\n')

    @pytest.mark.parametrize("parents", [",", "", "EU,EU"])
    def test_parents_need_distinct_names(self, samples_csv, capsys, parents):
        assert main(["calibrate", samples_csv, "--parents", parents,
                     "--emit-cpt", "DE"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: estimate_conditional: parents need distinct "
                       f"non-empty names, got {parents.split(',')}\n")

    def test_data_error_exits_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,uncertainty,correct\ns1,abc,true\n")
        assert main(["calibrate", str(path)]) == 1

    @pytest.mark.parametrize("header", [True, False], ids=["header", "row"])
    def test_oversized_field_exits_1(self, tmp_path, capsys, header):
        field = "x" * 200_000
        path = tmp_path / "big.csv"
        head = "sample_id,uncertainty,correct"
        path.write_text(f"{head},{field}\n" if header
                        else f"{head}\n{field},0.5,true\n")
        assert main(["calibrate", str(path)]) == 1
        line = 1 if header else 2
        assert capsys.readouterr() == (
            "", f"error: row {line}: field larger than field limit (131072)\n")


class TestUnreadableText:
    @pytest.mark.parametrize("argv", [["validate"], ["eval", "--target", "DE"],
                                      ["calibrate"]])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, argv):
        path = tmp_path / "latin.arch"
        path.write_bytes(b'name: "caf\xff"\n')
        assert main(argv[:1] + [str(path)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and "UTF-8" in err
        assert "Traceback" not in err


class TestImpact:
    def test_end_to_end(self, end_to_end, capsys):
        assert main(["impact", end_to_end, "--change", "DE"]) == 0
        assert capsys.readouterr().out.split() == ["SS", "Planning"]

    def test_component_based(self, component_based, capsys):
        assert main(["impact", component_based, "--change", "DE"]) == 0
        assert capsys.readouterr().out.split() == ["Planning"]

    def test_unknown_component_exits_2(self, end_to_end):
        assert main(["impact", end_to_end, "--change", "nope"]) == 2


class TestUsage:
    def test_unknown_flag_exits_2(self, end_to_end):
        with pytest.raises(SystemExit) as exc:
            main(["eval", end_to_end, "--target", "Planning", "--bogus"])
        assert exc.value.code == 2

    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("validate", "eval", "sweep", "compare", "apply-pattern",
                    "calibrate", "impact"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        validate = arch.validate_architecture

        def counting(architecture):
            calls.append(architecture.name)
            return validate(architecture)

        for module in (arch, formats, patterns):
            monkeypatch.setattr(module, "validate_architecture", counting)
        return calls

    SWEEP = ["--target", "Planning", "--vary", "DE@all", "-o", "-"]

    @pytest.mark.parametrize("argv, expected", [
        (["validate", "{a}"], ["end-to-end"]),
        (["eval", "{a}", "--target", "Planning"], ["end-to-end"]),
        (["sweep", "{a}"] + SWEEP, ["end-to-end"]),
        (["compare", "{a}", "{b}"] + SWEEP,
         ["end-to-end", "component-based"]),
        (["impact", "{a}", "--change", "DE"], ["end-to-end"]),
        # the document is checked before --weight; apply_n_version checks
        # its own input again
        (["apply-pattern", "n-version", "{a}", "--component", "DE",
          "--monitor", "lidar", "--monitor-p-high", "0.1", "--weight", "0.9",
          "-o", "-"], ["end-to-end", "end-to-end"]),
    ], ids=["validate", "eval", "sweep", "compare", "impact", "apply-pattern"])
    def test_each_file_is_validated_once(self, argv, expected, calls,
                                         end_to_end, component_based):
        argv = [a.format(a=end_to_end, b=component_based) for a in argv]
        assert main(argv) == 0
        assert calls == expected


class TestFuzzedDocuments:
    COMMANDS = [
        ["eval", "{path}", "--target", "m0"],
        ["sweep", "{path}", "--target", "m0", "--vary", "EU",
         "--step", "0.25"],
        ["impact", "{path}", "--change", "m0"],
        ["apply-pattern", "n-version", "{path}", "--component", "m0",
         "--monitor", "lidar", "--monitor-p-high", "0.1", "--weight", "0.9"],
    ]

    def test_every_tenth_input_exits_0_1_or_2(self, tmp_path, monkeypatch,
                                              capsys):
        # one parser serves every call: building it is most of a call's time
        monkeypatch.setattr(cli, "build_parser",
                            functools.cache(cli.build_parser))
        path = tmp_path / "fuzzed.arch"
        codes = set()
        for text in fuzz_corpus()[::10]:
            path.write_text(text, encoding="utf-8")
            for argv in self.COMMANDS:
                code = main([a.format(path=path) for a in argv])
                assert code in (0, 1, 2), (argv[0], text)
                codes.add(code)
            capsys.readouterr()
        assert codes == {0, 1, 2}

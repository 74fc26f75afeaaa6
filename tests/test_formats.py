import os
import pathlib
import random
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from archuncert import example_path, formats
from archuncert.analysis import SweepResult, SweepSpec, compare, sweep
from archuncert.cli import main
from archuncert.errors import (ArchUncertError, DataError,
                               InvalidArchitectureError, ParseError,
                               UsageError)
from archuncert.formats import (parse_architecture,
                                parse_architecture_document,
                                parse_calibration_csv,
                                serialize_architecture, write_sweep_csv)
from helpers import fuzz_corpus, random_architecture, two_node_network


@pytest.fixture(scope="module")
def end_to_end_text():
    return example_path("end-to-end.arch").read_text()


class TestParseArchitecture:
    def test_bundled_end_to_end(self, end_to_end_text):
        arch = parse_architecture(end_to_end_text)
        assert arch.name == "end-to-end"
        assert len(arch.components) == 5  # 4 functional + camera sensor
        assert len(arch.annotations) == 4
        assert {c.kind for c in arch.components} == {"sensor", "ml", "classical"}

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            parse_architecture('name: "x"\ncomponents:\n  - [unclosed')
        assert exc.value.line is not None

    def test_unknown_key_rejected_with_location(self):
        text = 'name: "x"\ncomponents: []\nbogus: 1\n'
        with pytest.raises(ParseError, match="bogus") as exc:
            parse_architecture(text)
        assert exc.value.line == 2

    def test_probability_out_of_range_cites_row(self):
        text = (
            'name: "x"\n'
            'components:\n'
            '- {"id": "M", "kind": "ml", "label": ""}\n'
            'cpts:\n'
            '  "M":\n'
            '    parents: []\n'
            '    rows:\n'
            '      "": 1.3\n')
        with pytest.raises(InvalidArchitectureError) as exc:
            parse_architecture(text)
        finding = next(f for f in exc.value.findings
                       if f.kind == "probability out of range")
        assert finding.variable == "M"
        assert "''" in finding.detail

    def test_empty_components_is_semantic_error(self):
        with pytest.raises(InvalidArchitectureError, match="no components"):
            parse_architecture('name: "x"\ncomponents: []\n')

    def test_non_numeric_probability(self):
        text = ('name: "x"\ncomponents:\n- {"id": "M", "kind": "ml"}\n'
                'cpts:\n  "M":\n    parents: []\n    rows:\n      "": abc\n')
        with pytest.raises(ParseError, match="number"):
            parse_architecture(text)

    def test_non_scalar_key_rejected_with_location(self):
        with pytest.raises(ParseError) as exc:
            parse_architecture('name: "x"\ncomponents: []\n[a]: 1\n')
        assert str(exc.value) == (
            "line 3, column 1: non-scalar key in architecture document")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_architecture('name: "x"\nname: "y"\ncomponents: []\n')


class TestRoundTrip:
    def test_bundled_examples_are_canonical(self):
        for name in ("end-to-end.arch", "component-based.arch"):
            text = example_path(name).read_text()
            arch = parse_architecture(text)
            assert serialize_architecture(arch) == text

    def test_parse_serialize_identity_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            arch = random_architecture(rng)
            text = serialize_architecture(arch)
            assert parse_architecture(text) == arch
            assert serialize_architecture(parse_architecture(text)) == text

    def test_shortest_float_rendering(self):
        arch = parse_architecture(
            'name: "x"\ncomponents:\n- {"id": "M", "kind": "ml"}\n'
            'cpts:\n  "M":\n    parents: []\n    rows:\n      "": 0.1\n')
        assert '"": 0.1\n' in serialize_architecture(arch)
        assert "0.10000000000000001" not in serialize_architecture(arch)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=300))
    def test_fuzzed_input_never_crashes(self, text):
        try:
            parse_architecture(text)
        except ArchUncertError:
            pass


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestLoaders:
    """Documents are composed by libyaml, which archuncert requires."""

    def test_scalars_are_composed_without_implicit_tags(self):
        root = yaml.compose('a: 1.5\nb: [true, null, "x"]\n',
                            Loader=formats._untagged_loader)
        scalars = [root.value[0][0], root.value[0][1], root.value[1][0],
                   *root.value[1][1].value]
        assert {node.tag for node in scalars} == {"tag:yaml.org,2002:str"}

    def test_error_marks_stay_inside_the_text(self):
        for text in fuzz_corpus():
            try:
                parse_architecture(text)
            except ParseError as exc:
                if exc.line is not None:
                    lines = text.split("\n")  # the corpus has no other breaks
                    end = (len(lines) - 1, len(lines[-1]))
                    assert (exc.line, exc.column) <= end, text
            except ArchUncertError:
                pass

    @pytest.mark.parametrize("text, position", [
        ('name: "x"\ncomponents: [', (1, 13)),
        ('name: "x"\ncomponents: [\n', (2, 0)),
        ('name: "x"\ncomponents: [\n\n  ', (3, 2)),
        ('name: "x"\r\ncomponents: [', (1, 13)),
        ('name: "x"\rcomponents: [\r', (2, 0)),
        ('\ufeffcomponents: {"a": 1', (0, 19)),
    ])
    def test_end_of_input_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_architecture(text)
        assert (exc.value.line, exc.value.column) == position

    @pytest.mark.parametrize("text, column", [
        ("name: " + "[" * 100_000 + "]" * 100_000 + "\n", 10_006),
        ("- " * 100_000 + "x\n", 20_001),
    ], ids=["flow", "block"])
    def test_deep_nesting_exits_1(self, tmp_path, text, column):
        # a crash in libyaml's composer would take pytest down with it
        path = tmp_path / "deep.arch"
        path.write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "archuncert.cli", "validate", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stdout, done.stderr) == (
            1, f"parse error: line 1, column {column}: "
               "nesting deeper than 10000 levels\n", "")

    def test_depth_limit(self):
        # MAX_DEPTH levels (the root mapping is one) compose; one more
        # fails at its opening bracket
        def nested(brackets):
            return "name: " + "[" * brackets + "]" * brackets + "\n"
        with pytest.raises(ParseError, match="missing key 'components'"):
            parse_architecture(nested(formats.MAX_DEPTH - 1))
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse_architecture(nested(formats.MAX_DEPTH))
        assert (exc.value.line, exc.value.column) == (0, len("name: ") + 9_999)

    def test_tab_between_tokens_is_accepted(self):
        text = ('name:\t"tabs"\n'
                'components:\n- {"id": "a", "kind": "classical"}\n'
                'cpts:\n  "a":\n    parents: []\n    rows: {"": 0.5}\n')
        assert parse_architecture(text).name == "tabs"

    def test_byte_order_mark_opening_a_later_line_fails(self):
        with pytest.raises(ParseError) as exc:
            parse_architecture('name: "x"\n\ufeffcomponents: []\n')
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_thousand_levels_compose(self):
        text = "name: " + "[" * 1000 + "]" * 1000 + "\n"
        with pytest.raises(ParseError, match="missing key 'components'"):
            parse_architecture(text)

    def test_missing_libyaml_fails_at_parse(self, monkeypatch, capsys):
        # PyYAML built without libyaml defines none of its C classes
        for name in yaml.cyaml.__all__:
            monkeypatch.delattr(yaml, name)
        message = ("cannot read .arch documents: PyYAML is built without "
                   "libyaml")
        arch_file = str(example_path("end-to-end.arch"))
        assert main(["validate", arch_file]) == 1
        assert capsys.readouterr() == (f"parse error: {message}\n", "")
        assert main(["eval", arch_file, "--target", "Planning"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # calibrate reads no YAML
        assert main(["calibrate", str(example_path("depth-samples.csv"))]) == 0


class TestCalibrationCsv:
    def test_minimal(self):
        rs = parse_calibration_csv("sample_id,uncertainty,correct\ns1,0.5,false\n")
        assert len(rs.records) == 1
        assert rs.records[0].uncertainty == 0.5
        assert rs.records[0].correct is False
        assert rs.records[0].parent_states is None

    def test_parent_columns(self):
        rs = parse_calibration_csv(
            "sample_id,uncertainty,correct,EU\ns1,0.5,true,H\ns2,0.1,true,L\n")
        assert rs.parent_ids == ("EU",)
        assert rs.records[0].parent_states == {"EU": "H"}

    def test_bundled_samples(self):
        rs = parse_calibration_csv(example_path("depth-samples.csv").read_text())
        assert len(rs.records) == 12
        assert rs.parent_ids == ("EU",)

    def test_malformed_number_is_row_addressed(self):
        with pytest.raises(DataError, match="row 2.*uncertainty"):
            parse_calibration_csv("sample_id,uncertainty,correct\ns1,abc,true\n")

    def test_bad_state_symbol(self):
        with pytest.raises(DataError, match="row 2.*EU"):
            parse_calibration_csv(
                "sample_id,uncertainty,correct,EU\ns1,0.5,true,X\n")

    def test_missing_header(self):
        with pytest.raises(DataError, match="header"):
            parse_calibration_csv("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            parse_calibration_csv("")

    def test_bad_correct_flag(self):
        with pytest.raises(DataError, match="row 2.*correct"):
            parse_calibration_csv("sample_id,uncertainty,correct\ns1,0.5,maybe\n")

    @pytest.mark.parametrize("header", ["EU,EU", "EU,", ",EU"])
    def test_parent_columns_need_distinct_names(self, header):
        with pytest.raises(DataError) as exc:
            parse_calibration_csv(f"sample_id,uncertainty,correct,{header}\n"
                                  "s1,0.1,true,H,L\n")
        assert str(exc.value) == ("calibration CSV: parent columns need "
                                  f"distinct non-empty names, got {header}")

    @pytest.mark.parametrize("text, message", [
        ("\nsample_id,uncertainty,correct\n\ns1,abc,true\n",
         "row 4, column 'uncertainty': not a number: 'abc'"),
        ("sample_id,uncertainty,correct\ns1,0.5,true,x\n",
         "row 2: expected 3 fields, got 4"),
        ("sample_id,uncertainty,correct\ns1,-0.5,true\n",
         "row 2, column 'uncertainty': must be >= 0, got '-0.5'"),
        ("sample_id,uncertainty,correct\ns1,0.5,true\n\ns2,nan,true\n",
         "row 4, column 'uncertainty': must be >= 0, got 'nan'"),
    ])
    def test_errors_name_the_file_line(self, text, message):
        with pytest.raises(DataError) as exc:
            parse_calibration_csv(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("sample_id,uncertainty,correct\ns1,0.5,tr\rue\n",
         "row 2: new-line character seen in unquoted field"),
        ("sample_id,uncertainty,correct\n\ns1,0.5," + "x" * 200_000 + "\n",
         "row 3: field larger than field limit (131072)"),
        ("sample_id,uncertainty," + "x" * 200_000 + "\n",
         "row 1: field larger than field limit (131072)"),
    ], ids=["newline", "row-field", "header-field"])
    def test_csv_reader_errors_name_the_file_line(self, text, message):
        with pytest.raises(DataError) as exc:
            parse_calibration_csv(text)
        assert str(exc.value) == message


class TestSweepCsv:
    def test_sweep_rows(self):
        result = sweep(two_node_network(), SweepSpec((("A", ""),), "B", step=0.5))
        text = write_sweep_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "t,p_high"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,")

    def test_comparison_with_crossing_comment(self):
        from archuncert.bn import BayesianNetwork, Cpt, Variable

        def net(low, high):
            return BayesianNetwork(
                variables=(Variable("A", "component", ()),
                           Variable("B", "component", ("A",))),
                cpts={"A": Cpt("A", (), {"": 0.5}),
                      "B": Cpt("B", ("A",), {"L": low, "H": high})})

        result = compare(net(0.2, 0.9), net(0.8, 0.3),
                         SweepSpec((("A", ""),), "B", step=0.5))
        text = write_sweep_csv(result)
        assert text.splitlines()[0] == "t,p_high_a,p_high_b,delta"
        assert any(line.startswith("# crossing t~0.5")
                   for line in text.splitlines())

    def test_empty_sweep_rejected(self):
        spec = SweepSpec((("A", ""),), "B")
        with pytest.raises(UsageError) as exc:
            write_sweep_csv(SweepResult((), spec))
        assert str(exc.value) == "cannot write an empty sweep"

    def test_other_results_rejected(self):
        with pytest.raises(UsageError) as exc:
            write_sweep_csv([(0.0, 0.5)])
        assert str(exc.value) == "cannot serialize list as sweep CSV"

    def test_byte_identical_output(self):
        result = sweep(two_node_network(), SweepSpec((("A", ""),), "B", step=0.25))
        assert write_sweep_csv(result) == write_sweep_csv(result)

"""End-to-end command line coverage through main(argv)."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

import splitsuper as ss
from splitsuper.cli import main

from helpers import FIVE_DIM_DOC, heisenberg_module_doc, two_block_doc


def write_doc(tmp_path, doc, name: str = "alg.json") -> str:
    path = tmp_path / name
    path.write_text(ss.canonical_json(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv: list) -> tuple:
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_clean_document_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["check", path])
        assert code == 0
        assert report["schema"] == 1
        assert report["command"] == "check"
        assert report["validation"]["ok"] is True
        assert report["validation"]["violations"] == []

    def test_text_mode_prints_something_readable(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "validation" in out
        assert "{" not in out.splitlines()[0]

    def test_tampered_table_fails_with_one(self, tmp_path, capsys):
        doc = json.loads(ss.canonical_json(FIVE_DIM_DOC))
        doc["products"][1] = [0, 2, [[0, "2"]]]
        path = write_doc(tmp_path, doc)
        code, report = run_json(capsys, ["check", path])
        assert code == 1
        assert report["validation"]["ok"] is False
        assert report["validation"]["violations"]

    def test_garbage_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err

    def test_field_override_reinterprets_scalars(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["check", path, "--field", "Fp:5"])
        assert code == 0
        assert report["validation"]["ok"] is True

    def test_bad_field_spec_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["check", path, "--field", "Fp:4"]) == 2
        assert "error" in capsys.readouterr().err


class TestSplit:
    def test_five_dim_reports_four_roots(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["split", path])
        assert code == 0
        assert report["split_facts_ok"] is True
        roots = [entry["values"] for entry in report["split"]["roots"]]
        assert sorted(roots) == [["-1"], ["-2"], ["1"], ["2"]]
        assert report["split"]["cartan"]["dim"] == 1

    def test_even_width_module_is_not_split(self, tmp_path, capsys):
        path = write_doc(tmp_path, heisenberg_module_doc(2))
        code, report = run_json(capsys, ["split", path])
        assert code == 1
        err = report["split_error"]
        assert err["type"] == "NotSplit"
        assert err["kind"] == "zero_space_mismatch"
        assert err["witness"]["outside"]

    def test_document_without_cartan_exits_two(self, tmp_path, capsys):
        doc = json.loads(ss.canonical_json(FIVE_DIM_DOC))
        del doc["cartan"]
        path = write_doc(tmp_path, doc)
        assert main(["split", path]) == 2
        assert "cartan" in capsys.readouterr().err


class TestConnect:
    def test_plain_query_finds_witness(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["connect", path, "--from", "1", "--to", "2"])
        assert code == 0
        assert report["query"]["connected"] is True
        assert report["witness"]["chain"]
        assert report["witness"]["sign"] in (1, -1)

    def test_bare_invocation_lists_classes(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["connect", path])
        assert code == 0
        assert len(report["classes"]) == 1

    def test_two_block_yields_two_classes(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_block_doc())
        code, report = run_json(capsys, ["connect", path])
        assert code == 0
        assert len(report["classes"]) == 2

    def test_nonroot_endpoint_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["connect", path, "--from", "7", "--to", "2"]) == 2
        assert "roots" in capsys.readouterr().err

    def test_wrong_width_root_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["connect", path, "--from", "1,0", "--to", "2"]) == 2
        assert "value(s)" in capsys.readouterr().err

    def test_from_without_to_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["connect", path, "--from", "1"]) == 2
        assert "together" in capsys.readouterr().err

    def test_neg_i_summary_covers_both_sides(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["connect", path, "--neg-i"])
        assert code == 0
        conn = report["connectivity"]
        assert conn["I"]["connected"] is True
        assert conn["notI"]["connected"] is True
        assert len(conn["notI"]["witnesses"]) == 4

    def test_neg_i_slot_query_on_kernel_side(self, tmp_path, capsys):
        path = write_doc(tmp_path, heisenberg_module_doc(3))
        code, report = run_json(
            capsys,
            ["connect", path, "--neg-i", "--from", "1:1", "--to", "3:1", "--upsilon", "I"],
        )
        assert code == 0
        assert report["query"]["connected"] is True
        assert report["query"]["upsilon"] == "I"
        assert len(report["witness"]["chain"]) == 2

    def test_slot_without_parity_suffix_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["connect", path, "--neg-i", "--from", "1", "--to", "2"]) == 2
        assert "parity suffix" in capsys.readouterr().err

    def test_off_side_slot_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code = main(
            ["connect", path, "--neg-i", "--from", "1:1", "--to", "2:0", "--upsilon", "I"]
        )
        assert code == 2


class TestDecompose:
    def test_two_block_produces_two_ideals(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_block_doc())
        code, report = run_json(capsys, ["decompose", path])
        assert code == 0
        dec = report["decomposition"]
        assert len(dec["ideals"]) == 2
        assert dec["refinement_applies"] is True

    def test_single_class_reference(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["decompose", path])
        assert code == 0
        assert len(report["decomposition"]["ideals"]) == 1


class TestAnalyze:
    def test_five_dim_full_pipeline(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["analyze", path])
        assert code == 0
        assert report["oracle"]["verdict"] == "Simple"
        assert report["theorem_mode"]["verdict"] == "Undetermined"
        assert report["classification"]["case"] == "Case1_Simple"
        assert report["lemma_checks"]["ok"] is True

    def test_expect_simple_passes_on_simple_input(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path, "--expect-simple", "--json"]) == 0
        capsys.readouterr()

    def test_expect_simple_fails_on_two_block(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_block_doc())
        code, report = run_json(capsys, ["analyze", path, "--expect-simple"])
        assert code == 1
        assert report["oracle"]["verdict"] == "NotSimple"
        assert report["theorem_mode"]["verdict"] == "NotSimple"
        assert report["classification"]["skipped"] is True

    def test_oracle_bound_exceeded_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path, "--oracle-bound", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bound_env_variable_is_honoured(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLL_ORACLE_BOUND", "4")
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path]) == 2

    def test_flag_overrides_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLL_ORACLE_BOUND", "4")
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        code, report = run_json(capsys, ["analyze", path, "--oracle-bound", "100"])
        assert code == 0
        assert report["oracle"]["candidates_checked"] == 32

    def test_non_integer_env_bound_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLL_ORACLE_BOUND", "abc")
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SLL_ORACLE_BOUND" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_nonpositive_bound_is_refused_before_any_stage(
        self, tmp_path, capsys, monkeypatch, bound
    ):
        calls = []
        monkeypatch.setattr(ss.Superalgebra, "validate", lambda alg: calls.append(alg))
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path, "--oracle-bound", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 1" in captured.err
        assert calls == []
        monkeypatch.setenv("SLL_ORACLE_BOUND", bound)
        assert main(["analyze", path]) == 2
        assert "at least 1" in capsys.readouterr().err
        assert calls == []


class TestInvariantsOnce:
    """Each algebra invariant is computed once per command, whoever reads it."""

    @staticmethod
    def count_calls(monkeypatch, module, name: str) -> list:
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_analyze_computes_center_and_annihilator_once(self, tmp_path, capsys, monkeypatch):
        centers = self.count_calls(monkeypatch, ss.algebra, "center")
        annihilators = self.count_calls(monkeypatch, ss.analysis, "lie_annihilator")
        path = write_doc(tmp_path, two_block_doc())
        code, report = run_json(capsys, ["analyze", path])
        assert code == 0
        assert "lemma_checks" in report
        assert len(centers) == 1
        assert len(annihilators) == 1

    def test_decompose_computes_center_once(self, tmp_path, capsys, monkeypatch):
        centers = self.count_calls(monkeypatch, ss.algebra, "center")
        path = write_doc(tmp_path, two_block_doc())
        code, _ = run_json(capsys, ["decompose", path])
        assert code == 0
        assert len(centers) == 1


class TestGen:
    def test_example1_to_stdout_is_canonical(self, capsys):
        assert main(["gen", "example1"]) == 0
        out = capsys.readouterr().out
        assert out == ss.canonical_json(json.loads(out))
        doc = json.loads(out)
        assert doc["dim"] == 5

    def test_example2_to_file(self, tmp_path, capsys):
        target = tmp_path / "module.json"
        assert main(["gen", "example2", "--n", "3", "-o", str(target)]) == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        alg, cartan, _ = ss.parse_document(doc)
        assert alg.validate() == []
        assert alg.dim == 7

    def test_example2_requires_n(self, capsys):
        assert main(["gen", "example2"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_example2_rejects_nonpositive_n(self, capsys):
        assert main(["gen", "example2", "--n", "0"]) == 2
        capsys.readouterr()


class TestFuzz:
    def test_writes_numbered_corpus_and_provenance(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["fuzz", "--seed", "3", "--count", "4", "-o", str(out_dir)]) == 0
        assert "wrote 4 documents" in capsys.readouterr().out
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "fuzz_0000.json",
            "fuzz_0001.json",
            "fuzz_0002.json",
            "fuzz_0003.json",
            "provenance.json",
        ]
        for name in names[:4]:
            doc = json.loads((out_dir / name).read_text(encoding="utf-8"))
            alg, cartan, _ = ss.parse_document(doc)
            assert alg.validate() == []
            assert cartan
        prov = json.loads((out_dir / "provenance.json").read_text(encoding="utf-8"))
        assert len(prov) == 4
        assert all("blocks" in entry for entry in prov)

    def test_zero_count_exits_two(self, tmp_path, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "0", "-o", str(tmp_path / "x")]) == 2
        capsys.readouterr()


class TestDeterminism:
    def test_identical_invocations_emit_identical_bytes(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM_DOC)
        assert main(["analyze", path, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", path, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.skipif(shutil.which("splitsuper") is None, reason="script not on PATH")
def test_console_script_round_trip(tmp_path):
    gen = subprocess.run(
        ["splitsuper", "gen", "example1"], capture_output=True, text=True
    )
    assert gen.returncode == 0
    path = tmp_path / "alg.json"
    path.write_text(gen.stdout, encoding="utf-8")
    check = subprocess.run(
        ["splitsuper", "check", str(path), "--json"], capture_output=True, text=True
    )
    assert check.returncode == 0
    assert json.loads(check.stdout)["validation"]["ok"] is True

from __future__ import annotations

import json

import pytest

from enrvar.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_model_pass(self, capsys):
        code, out, _ = run(capsys, "check-model", str(FIXTURES / "poset3.struct"), "--theory", "pos")
        assert code == 0
        assert "model of pos" in out

    def test_check_model_fail_is_one(self, capsys):
        code, out, _ = run(
            capsys,
            "check-model", str(FIXTURES / "structures.struct"),
            "--model", "loop_missing", "--theory", "pos",
        )
        assert code == 1
        assert "NOT a model" in out

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.thy"
        bad.write_text("theory t {\n  base pos\n  sort M\n  op : ->\n}")
        code, _, err = run(capsys, "check-theory", str(bad))
        assert code == 2
        assert "line 4" in err

    @pytest.mark.parametrize("spec", ["simp(x)", "qchain()", "simp(0)", "simp(2"])
    def test_malformed_builtin_theory_is_two(self, capsys, spec):
        code, _, err = run(
            capsys, "check-model", str(FIXTURES / "poset3.struct"), "--theory", spec
        )
        assert code == 2
        assert spec in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "check-model", "/nonexistent.thy")
        assert code == 2

    def test_usage_error_is_two(self, capsys):
        assert main(["translate", str(FIXTURES / "ordered_monoid.thy")]) == 2

    def test_wrong_direction_translate_is_semantic_failure(self, capsys):
        code, _, err = run(
            capsys,
            "translate", str(FIXTURES / "ordered_monoid.thy"), "--to", "relational",
        )
        assert code == 1
        assert "enriched theory" in err


class TestCommands:
    def test_free_model_reports_unit(self, tmp_path, capsys):
        f = tmp_path / "cycle.struct"
        f.write_text("model cyc : pos { elems [a, b] edge a <= b edge b <= a }")
        code, out, _ = run(capsys, "free-model", str(f), "--theory", "pos")
        assert code == 0
        assert "b -> a" in out

    def test_exp_counts_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "exp", str(FIXTURES / "structures.struct"), "chain2", "chain2",
            "--theory", "pos",
        )
        assert code == 0
        assert "3 morphisms" in out

    def test_check_algebra_mixed(self, capsys):
        code, out, _ = run(capsys, "check-algebra", str(FIXTURES / "maxmon.alg"))
        assert code == 1
        assert "maxmon: valid algebra" in out
        assert "badmon: INVALID" in out

    def test_check_algebra_table_leaving_the_carrier(self, tmp_path, capsys):
        f = tmp_path / "outside.alg"
        f.write_text(
            (FIXTURES / "maxmon.alg").read_text().replace("(a, b) -> b", "(a, b) -> c", 1)
        )
        code, out, err = run(capsys, "check-algebra", str(f), "--algebra", "maxmon", "--json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["failures"] == ["maxmon"]
        assert doc["algebras"]["maxmon"]["problems"] == [
            "mul: table sends (a, b) outside the carrier of M"
        ]

    def test_translate_pipeline_round_trips(self, tmp_path, capsys):
        enriched = tmp_path / "enriched.thy"
        code, _, _ = run(
            capsys,
            "translate", str(FIXTURES / "ordered_monoid.thy"),
            "--to", "enriched", "-o", str(enriched),
        )
        assert code == 0
        flat = tmp_path / "flat.thy"
        code, _, _ = run(capsys, "translate", str(enriched), "--to", "relational", "-o", str(flat))
        assert code == 0
        code, out, _ = run(capsys, "check-theory", str(flat))
        assert code == 0
        code, out, _ = run(
            capsys, "verify-equiv", str(enriched), str(flat), "--max-carrier", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_equiv_counts_table(self, tmp_path, capsys):
        enriched = tmp_path / "enriched.thy"
        run(
            capsys,
            "translate", str(FIXTURES / "ordered_monoid.thy"),
            "--to", "enriched", "-o", str(enriched),
        )
        code, out, _ = run(
            capsys,
            "verify-equiv", str(FIXTURES / "ordered_monoid.thy"), str(enriched),
            "--max-carrier", "2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "enrvar/equivalence-report@1"
        assert doc["pass"] is True
        assert all(row["count_left"] == row["count_right"] for row in doc["carriers"])

    def test_check_monad(self, capsys):
        code, out, _ = run(capsys, "check-monad", str(FIXTURES / "exception_monad.mnd"))
        assert code == 0
        assert "laws hold" in out

    def test_theory_of_monad_prints_loadable_text(self, tmp_path, capsys):
        code, out, _ = run(capsys, "theory-of-monad", str(FIXTURES / "exception_monad.mnd"))
        assert code == 0
        f = tmp_path / "induced.thy"
        f.write_text(out)
        code, _, _ = run(capsys, "check-theory", str(f))
        assert code == 0

    def test_free_algebra_semilattice(self, capsys):
        code, out, _ = run(
            capsys,
            "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] == 7
        assert doc["saturated"] is True

    def test_free_algebra_semilattice_on_four(self, capsys):
        code, out, _ = run(
            capsys,
            "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] == 15
        assert doc["saturated"] is True

    def test_free_algebra_size_bound_is_one(self, capsys):
        code, _, err = run(capsys, "free-algebra", str(FIXTURES / "group.thy"), "--arity", "2")
        assert code == 1
        assert "size bound" in err

    def test_free_algebra_budget_is_one(self, capsys):
        # semilattice on 2 makes 11 terms: 2 generators, then layers of 4 and 5
        args = ("free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "2")
        code, _, err = run(capsys, *args, "--budget", "10")
        assert code == 1
        assert "enumeration budget of 10 exceeded" in err
        assert "Traceback" not in err
        assert run(capsys, *args, "--budget", "11")[0] == 0

    @pytest.mark.parametrize("budget", ["abc", "0"])
    def test_free_algebra_budget_variable_is_two(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("ENRVAR_BUDGET", budget)
        code, _, err = run(capsys, "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "2")
        assert code == 2
        assert f"ENRVAR_BUDGET='{budget}'" in err
        assert "Traceback" not in err

    def test_free_algebra_budget_below_one_is_two(self, capsys):
        code, _, err = run(
            capsys, "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "2", "--budget=0",
        )
        assert code == 2
        assert "argument --budget: must be at least 1, not 0" in err

    def test_verify_presentation(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-presentation", str(FIXTURES / "exception_monad.mnd"),
            "--max-carrier", "2",
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_presentation_budget_is_one(self, capsys):
        code, _, err = run(
            capsys,
            "verify-presentation", str(FIXTURES / "exception_monad.mnd"),
            "--max-carrier", "2", "--budget", "10",
        )
        assert code == 1
        assert "enumeration budget of 10 exceeded" in err
        assert "Traceback" not in err

    def test_malformed_budget_variable_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("ENRVAR_BUDGET", "abc")
        code, _, err = run(
            capsys,
            "verify-presentation", str(FIXTURES / "exception_monad.mnd"),
            "--max-carrier", "2",
        )
        assert code == 2
        assert "ENRVAR_BUDGET='abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("budget", ["-4", "0"])
    def test_budget_below_one_is_two(self, capsys, budget):
        code, _, err = run(
            capsys,
            "verify-presentation", str(FIXTURES / "exception_monad.mnd"),
            "--max-carrier", "2", f"--budget={budget}",
        )
        assert code == 2
        assert f"argument --budget: must be at least 1, not {budget}" in err

    @pytest.mark.parametrize("budget", ["-3", "0"])
    def test_budget_variable_below_one_is_two(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("ENRVAR_BUDGET", budget)
        code, _, err = run(
            capsys,
            "verify-presentation", str(FIXTURES / "exception_monad.mnd"),
            "--max-carrier", "2",
        )
        assert code == 2
        assert f"ENRVAR_BUDGET='{budget}' is below 1" in err
        assert "Traceback" not in err

    def test_free_cpo(self, capsys):
        code, out, _ = run(
            capsys, "free-cpo", str(FIXTURES / "presentations.cpo"), "--present", "wedge"
        )
        assert code == 0
        assert "p <= u2" in out

    def test_enumerate_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", str(FIXTURES / "structures.struct"),
            "--morphisms", "chain2", "chain3",
        )
        assert code == 0
        assert out.startswith("6 morphisms")

    def test_enumerate_morphisms_honours_the_budget(self, tmp_path, capsys, monkeypatch):
        # 11^11 maps: without the budget the search would not end
        big = tmp_path / "big.struct"
        big.write_text(
            "model big : set {\n  elems [" + ", ".join(f"a{i}" for i in range(11)) + "]\n  reflexive\n}\n"
        )
        monkeypatch.setenv("ENRVAR_BUDGET", "1000")
        code, out, err = run(capsys, "enumerate", str(big), "--morphisms", "big", "big", "--budget", "1000")
        assert code == 1
        assert "enumeration budget of 1000 exceeded" in err
        assert "Traceback" not in err

    def test_enumerate_morphisms_malformed_budget_variable_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("ENRVAR_BUDGET", "abc")
        code, _, err = run(
            capsys,
            "enumerate", str(FIXTURES / "structures.struct"),
            "--morphisms", "chain2", "chain3",
        )
        assert code == 2
        assert "ENRVAR_BUDGET='abc' is not an integer" in err
        assert "Traceback" not in err

    def test_enumerate_morphisms_within_the_budget_is_unchanged(self, capsys):
        argv = ["enumerate", str(FIXTURES / "structures.struct"), "--morphisms", "chain2", "chain3"]
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1].startswith("6 morphisms")
        # one unit per assignment: 3 for the first element of chain2, then
        # 3 + 2 + 1 for the second under each of them
        assert run(capsys, *argv, "--budget", "9") == plain
        assert run(capsys, *argv, "--budget", "8") == (1, "", "error: enumeration budget of 8 exceeded\n")

    def test_enumerate_algebras(self, tmp_path, capsys):
        combined = tmp_path / "combined.thy"
        combined.write_text(
            (FIXTURES / "semilattice.thy").read_text()
            + "\nmodel two : set { elems [x, y] }\n"
        )
        code, out, _ = run(capsys, "enumerate", str(combined), "--algebras", "two")
        assert code == 0
        assert out.startswith("2 algebras")


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        first = run(capsys, "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "2", "--json")
        second = run(capsys, "free-algebra", str(FIXTURES / "semilattice.thy"), "--arity", "2", "--json")
        assert first == second

import json
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import random_test_function
from ultrafrac.cli import run
from ultrafrac.errors import FunctionFileError
from ultrafrac.field import FieldParams, point
from ultrafrac.funcfile import function_to_dict, read_function, write_function
from ultrafrac.functions import constant_on_ball, indicator_ball
from ultrafrac.numerics import ComplexValue, ExactScalar
from ultrafrac.operators import OperatorParams, riesz_potential


class TestFunctionFiles:
    def test_packaged_unit_ball(self):
        from importlib import resources

        with resources.as_file(resources.files("ultrafrac") / "data" / "one_O.json") as p:
            f = read_function(p)
        assert f.fp == FieldParams(2)
        assert f.support_level == 0 and f.constancy_level == 0
        assert f.evaluate(point(f.fp, 3)).to_complex() == 1

    def test_packaged_lizorkin_example_has_zero_integral(self):
        from importlib import resources

        with resources.as_file(
            resources.files("ultrafrac") / "data" / "lizorkin_example.json"
        ) as p:
            f = read_function(p)
        assert f.integral().is_exact_zero()

    def test_round_trip_bit_identical(self, tmp_path):
        rng = random.Random(13)
        f = random_test_function(FieldParams(3), -1, 1, rng, complex_vals=True)
        path = tmp_path / "f.json"
        write_function(f, path)
        first = path.read_bytes()
        g = read_function(path)
        write_function(g, path)
        assert path.read_bytes() == first
        assert g.table_equal(f)

    def test_wrong_table_size_rejected(self, tmp_path):
        doc = function_to_dict(indicator_ball(FieldParams(2), 0))
        doc["values"] = doc["values"] * 2
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FunctionFileError, match="entries"):
            read_function(p)

    def test_digit_out_of_range_rejected(self, tmp_path):
        f = random_test_function(FieldParams(2), 0, 1, random.Random(1))
        doc = function_to_dict(f)
        doc["values"][0]["digits"] = [[7]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FunctionFileError, match="digit"):
            read_function(p)

    def test_float_values_rejected(self, tmp_path):
        doc = function_to_dict(indicator_ball(FieldParams(2), 0))
        doc["values"][0]["re"] = {"num": 0.5, "den": 1}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FunctionFileError, match="integer"):
            read_function(p)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc.pop("degree"), "expected exactly the keys"),
            (lambda doc: doc["values"][0].update(re={"num": 1}), "expected {'num', 'den'}"),
            (lambda doc: doc["values"][0].update(im={"num": 1, "den": 0}), "zero denominator"),
            (lambda doc: doc.update(p=4), "p must be prime"),
            (lambda doc: doc.update(constancy_level=-1), "below the support scale"),
            (lambda doc: doc["values"].__setitem__(0, {"digits": [[]]}), "record must have digits/re/im"),
            (lambda doc: doc.update(support_level=None), "support_level must be an integer, got None"),
            (lambda doc: doc.update(p=2.9), "p must be an integer, got 2.9"),
            (lambda doc: doc.update(support_level=0.7), "support_level must be an integer, got 0.7"),
            (lambda doc: doc.update(degree="1"), "degree must be an integer, got '1'"),
            (lambda doc: doc.update(constancy_level=True), "constancy_level must be an integer, got True"),
            # refused from the record count and the first record, before p**(n*(m+k)) or q is built
            (lambda doc: doc.update(support_level=10**11), "1 entries, expected p**(n*(m+k)) = 2**100000000000"),
            (lambda doc: doc.update(degree=10**11), "need 100000000000 arrays"),
        ],
        ids=[
            "keys", "num/den", "zero denominator", "non-prime p", "constancy below support", "record shape",
            "null level", "float p", "float level", "string degree", "bool level", "far-out level", "far-out degree",
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, mutate, message):
        doc = function_to_dict(indicator_ball(FieldParams(2), 0))
        mutate(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FunctionFileError, match=re.escape(message)):
            read_function(p)

    @pytest.mark.parametrize("case", ["non-rational write", "unreadable file", "invalid JSON"])
    def test_file_errors_are_function_file_errors(self, tmp_path, case):
        p = tmp_path / "f.json"
        if case == "non-rational write":
            fp = FieldParams(2)
            with pytest.raises(FunctionFileError, match="only exact rational-valued"):
                write_function(constant_on_ball(fp, 0, ComplexValue._coerce(ExactScalar.ln_q(fp))), p)
            assert not p.exists()
            return
        if case == "invalid JSON":
            p.write_text("{")
        with pytest.raises(FunctionFileError, match="cannot read" if case == "unreadable file" else "not valid JSON"):
            read_function(p)

    def test_out_of_order_records_rejected(self, tmp_path):
        f = random_test_function(FieldParams(2), 0, 1, random.Random(2))
        doc = function_to_dict(f)
        doc["values"].reverse()
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(FunctionFileError, match="order"):
            read_function(p)


class TestCli:
    def test_invert_exact_recovery_rows(self, capsys):
        code = run(
            ["invert", "--p", "2", "--alpha", "0.5", "--lp", "1", "--fn", "one_O.json",
             "--nu-max", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("q,alpha,lp,nu,residual")
        assert len(rows) == 5
        assert all(",pass," in r for r in rows[1:])

    def test_invert_at_a_far_out_nu(self, capsys):
        # the Minkowski bound's shell loop is empty past nu = k - 1: no float
        # of q**(nu - k) overflows, and the row reads residual 0, bound 0
        code = run(["invert", "--p", "2", "--alpha", "1", "--fn", "one_O.json", "--nu-min", "2000", "--nu-max", "2000"])
        assert code == 0
        row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.strip().splitlines())))
        assert (row["nu"], row["residual"], row["bound"]) == ("2000", "0", "0")

    def test_kernel_with_normalization(self, capsys):
        code = run(["kernel", "--p", "2", "--alpha", "1/2", "--shells", "-3..6", "--check-integral"])
        out = capsys.readouterr().out
        assert code == 0
        assert "normalization" in out
        assert "fail" not in out

    def test_integrate_grid(self, capsys):
        code = run(["integrate", "--p", "5", "--alpha", "3", "--levels", "-2..2"])
        assert code == 0
        assert "fail" not in capsys.readouterr().out

    def test_multidim_check(self, capsys):
        code = run(["multidim-check", "--p", "2", "--deg", "2", "--alpha", "1.0", "--fn", "one_OO.json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("pass") >= 3

    def test_fourier_check(self, capsys):
        code = run(["fourier-check", "--p", "2", "--fn", "lizorkin_example.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plancherel" in out and "roundtrip" in out

    def test_apply_ops(self, capsys):
        for op, extra in (
            ("riesz", []),
            ("vladimirov", []),
            ("truncated", ["--nu", "2"]),
            ("multiplier", []),
        ):
            code = run(["apply", "--op", op, "--p", "2", "--alpha", "1/2", "--fn", "one_O.json", *extra])
            assert code == 0, op
        out = capsys.readouterr().out
        assert "riesz" in out and "multiplier" in out

    def test_riesz_log_tail_row(self, capsys):
        # at alpha = n = 1 the Riesz potential of 1_O is d * ln|x| beyond the
        # window, d = (1 - q)/(q ln q) = -1/(2 ln 2) carried as a 1/ln coefficient
        assert run(["apply", "--op", "riesz", "--p", "2", "--alpha", "1", "--fn", "one_O.json"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1] == "riesz,2,1,,tail,,,[(0) + (0)i] + [(-1/2/ln(2)) + (0)i] * ln|x|"
        fp = FieldParams(2)
        tail = riesz_potential(OperatorParams(fp, 1), indicator_ball(fp, 0)).tail
        assert str(tail) == rows[-1].split(",")[-1]
        assert tail.log_coeff.re.exact == ExactScalar.inv_ln_q(fp, Fraction(-1, 2))
        assert float(tail.log_coeff.re) == -1 / (2 * math.log(2))

    @pytest.mark.parametrize("op", ["vladimirov", "riesz", "multiplier"])
    def test_nu_for_another_op_exits_2(self, op, capsys):
        # --nu truncates only --op truncated; any other op would print a nu it never used
        assert run(["apply", "--op", op, "--p", "2", "--alpha", "1/2", "--fn", "one_O.json", "--nu", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"not to --op {op}" in captured.err

    def test_deterministic_output(self, tmp_path):
        args = ["kernel", "--p", "3", "--alpha", "0.7", "--shells", "-2..5",
                "--check-integral", "--out", str(tmp_path / "a.csv")]
        assert run(args) == 0
        first = (tmp_path / "a.csv").read_bytes()
        args[-1] = str(tmp_path / "b.csv")
        assert run(args) == 0
        assert (tmp_path / "b.csv").read_bytes() == first

    def test_json_mirrors_csv(self, capsys):
        assert run(["kernel", "--p", "2", "--alpha", "1", "--shells", "1..3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["j"] for r in rows] == [1, 2, 3]
        assert all(r["status"] == "pass" for r in rows)

    def test_missing_file_exits_2(self, capsys):
        assert run(["invert", "--p", "2", "--alpha", "0.5", "--fn", "nope.json", "--nu-max", "1"]) == 2

    def test_bad_file_exits_2(self, tmp_path, capsys):
        doc = function_to_dict(indicator_ball(FieldParams(2), 0))
        doc["values"] = doc["values"] * 2
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run(["invert", "--p", "2", "--alpha", "0.5", "--fn", str(p), "--nu-max", "1"]) == 2

    def test_mismatched_field_exits_2(self, capsys):
        assert run(["invert", "--p", "3", "--alpha", "0.5", "--fn", "one_O.json", "--nu-max", "1"]) == 2

    def test_nonprime_exits_2(self, capsys):
        assert run(["kernel", "--p", "4", "--alpha", "1", "--shells", "1..2"]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["integrate", "--p", "2", "--alpha", "1/2", "--levels", "2100..2100"], "float range"),
            (["kernel", "--p", "2", "--alpha", "1/3", "--shells", "-1200..-1200"], "float range"),
            (["integrate", "--p", "2", "--alpha", "1/2", "--depth", "-5"], "--depth"),
            (["kernel", "--p", "2", "--alpha", "1/2", "--depth", "-5"], "--depth"),
            (["invert", "--p", "2", "--alpha", "1/2", "--fn", "one_O.json", "--nu-min", "3", "--nu-max", "1"],
             "empty range 3..1"),
            (["integrate", "--p", "2", "--alpha", "0", "--levels", "0"], "order must be positive"),
            (["integrate", "--p", "2", "--alpha", "x", "--levels", "0"], "cannot parse order 'x'"),
            (["integrate", "--p", "2", "--alpha", "1/2", "--levels", "3..1"], "empty range '3..1'"),
            (["integrate", "--p", "2", "--alpha", "1/2", "--levels", "a"], "not an integer range 'a'"),
            (["apply", "--p", "2", "--alpha", "1/2", "--fn", "one_O.json", "--op", "truncated"], "requires --nu"),
            (["multidim-check", "--p", "2", "--degree", "1", "--alpha", "1/2", "--fn", "one_O.json"], "needs --degree >= 2"),
        ],
    )
    def test_out_of_range_exits_2(self, args, message, capsys):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            "integrate --p 2 --alpha 1e-17 --levels 0",
            "integrate --p 2 --alpha 1/1000000000000000000 --levels 0",
            "integrate --p 2 --alpha 1e-300 --levels 0",
            "kernel --p 2 --alpha 1e-17 --shells 1..2",
            "apply --op riesz --p 2 --alpha 1e-17 --fn one_O.json",
            "apply --op vladimirov --p 2 --alpha 1e-17 --fn one_O.json",
            "invert --p 2 --alpha 1e-17 --lp 1 --fn one_O.json --nu-max 2",
            "multidim-check --p 2 --deg 2 --alpha 1e-17 --fn one_OO.json",
        ],
    )
    def test_tiny_order_exits_2(self, command, capsys):
        # q**(+-alpha) rounds to 1.0, so a normalizer divides by a float 0.0
        assert run(command.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: float division by zero") and err.count("\n") == 1

    def test_smallest_order_that_rounds_away_from_one_still_runs(self, capsys):
        assert run(["integrate", "--p", "2", "--alpha", "1e-15", "--levels", "0"]) == 0
        assert ",pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["integrate", "--p", "2", "--alpha", "1/8", "--levels", "700"],
            ["kernel", "--p", "2", "--alpha", "1/3", "--shells", "700"],
        ],
    )
    def test_far_level_rows_pass_relative_tolerance(self, args, capsys):
        # values near 1e27 and 7e140, where an absolute 1e-8 is below one ulp
        assert run(args) == 0
        assert ",fail" not in capsys.readouterr().out

    def test_tight_tolerance_still_fails_far_level(self, capsys):
        # the two routes agree to about 2e-16 relative there, not to 1e-17
        assert run(["integrate", "--p", "2", "--alpha", "1/8", "--levels", "700", "--tol", "1e-17"]) == 1
        assert ",1e-17,fail" in capsys.readouterr().out

    def test_malformed_function_file_exits_2(self, tmp_path, capsys):
        doc = function_to_dict(indicator_ball(FieldParams(2), 0))
        doc["support_level"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["apply", "--op", "riesz", "--p", "2", "--alpha", "1/2", "--fn", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: support_level must be an integer, got None\n"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["integrate", "--p", "2", "--alpha", "1/2", "--levels", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_warning_goes_to_column_not_exit_code(self, capsys):
        code = run(
            ["invert", "--p", "2", "--alpha", "0.5", "--lp", "3", "--fn", "one_O.json",
             "--nu-max", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "outside the proven range" in out

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRA_TOL", "1e-30")
        # residual ~1e-16 on the float path now exceeds the forced tolerance
        code = run(
            ["invert", "--p", "2", "--alpha", "0.5", "--lp", "1", "--fn", "one_O.json",
             "--nu-max", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize("lp", ["nan", "inf"])
    def test_non_finite_lp_exits_2(self, lp, capsys):
        code = run(["invert", "--p", "2", "--alpha", "0.5", "--lp", lp, "--fn", "one_O.json", "--nu-max", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite p >= 1" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_2(self, tol, capsys):
        assert run(["kernel", "--p", "2", "--alpha", "1/2", "--shells", "1..2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite tolerance" in captured.err

    def test_unparsable_env_tolerance_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRA_TOL", "abc")
        assert run(["integrate", "--p", "2", "--alpha", "1/2", "--levels", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: ULTRA_TOL='abc' is not a decimal string\n"

    def test_bad_env_tolerance_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRA_TOL", "nan")
        assert run(["integrate", "--p", "2", "--alpha", "1/2", "--levels", "0"]) == 2
        assert "ULTRA_TOL='nan'" in capsys.readouterr().err

    def test_zero_tolerance_is_accepted(self, capsys):
        # on the log branch the oracle meets the closed form with delta 0
        assert run(["kernel", "--p", "2", "--alpha", "1", "--shells", "1..2", "--tol", "0"]) == 0
        assert capsys.readouterr().out.count(",0,0,pass") == 2

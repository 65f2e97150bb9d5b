"""Text grammar, JSON round-trips, CLI verbs and exit codes."""

import json
from fractions import Fraction

import pytest

from seifert_lspace import INF, Base, SeifertForm, normalize
from seifert_lspace.cli import main
from seifert_lspace.corpus import CASES, Case, Check, run_corpus
from seifert_lspace.formats import (ParseError, form_from_json, form_json,
                                    parse_form, rational_from_json,
                                    rational_json)


def F(n, d=1):
    return Fraction(n, d)


class TestGrammar:
    def test_basic_forms(self):
        assert parse_form("SFS[S2; -2; 2/3, 2/3, 2/3]") == \
            normalize(-2, (F(2, 3),) * 3)
        assert parse_form("SFS[RP2]") == SeifertForm(base=Base.RP2)
        assert parse_form("SFS[S2; 4]") == normalize(4, ())

    def test_raw_slopes_are_normalized(self):
        assert parse_form("SFS[S2; 0; 5/3, 1/2]") == normalize(0, (F(5, 3), F(1, 2)))

    def test_infinite_slopes(self):
        f = parse_form("SFS[S2; 3; 1/2, 2/3, inf]")
        assert f.degenerate == 1
        assert parse_form("SFS[S2; 3; 1/2, 1/0]") == parse_form("SFS[S2; 3; 1/2, -1/0]")

    def test_whitespace_tolerated(self):
        assert parse_form("  SFS[ S2 ; -1 ; 1/2 , 2/3 ]  ") == \
            normalize(-1, (F(1, 2), F(2, 3)))

    def test_errors_carry_positions(self):
        for text in ("SFS[S2; x]", "SFS(S2; 1)", "SFS[S2; 1; 1/2,]",
                     "SFS[T2; 1]", "SFS[S2; 1; 0/0]", "SFS[S2; 1] junk"):
            with pytest.raises(ParseError) as err:
                parse_form(text)
            assert err.value.pos >= 0
            assert "^" in err.value.annotate()

    def test_round_trip_through_repr(self):
        for text in ("SFS[S2; -2; 2/3, 2/3, 2/3]", "SFS[RP2]", "SFS[S2; 4]",
                     "SFS[S2; 3; 1/2, 2/3, inf]"):
            f = parse_form(text)
            assert parse_form(repr(f)) == f


class TestJson:
    def test_rational_round_trip(self):
        for x in (F(2, 3), F(-25, 6), F(10 ** 40 + 1, 10 ** 30 + 3), INF):
            assert rational_from_json(rational_json(x)) == x or x is INF

    def test_infinite_encoding(self):
        assert rational_json(INF) == {"num": 1, "den": 0}
        assert rational_from_json({"num": 1, "den": 0}) is INF

    def test_form_round_trip_bit_exact(self):
        big = F(10 ** 30 + 1, 2 * 10 ** 30 + 1)
        f = normalize(-7, (big, F(1, 2), INF))
        assert form_from_json(json.loads(json.dumps(form_json(f)))) == f

    def test_float_mode_only_adds_approx(self):
        with_f = rational_json(F(2, 3), float_mode=True)
        without = rational_json(F(2, 3))
        assert without == {"num": 2, "den": 3}
        assert with_f["num"] == 2 and "approx" in with_f


class TestCliDecide:
    def test_exit_codes(self, capsys):
        assert main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]"]) == 1
        assert main(["decide", "SFS[S2; 1; 1/2, 1/3, 1/7]"]) == 0
        assert main(["decide", "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]"]) == 2
        assert main(["decide", "SFS[S2; nope]"]) == 2
        capsys.readouterr()

    def test_witness_reported(self, capsys):
        main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]", "--json"])
        out = json.loads(capsys.readouterr().out)
        v = out["outputs"]["verdict"]
        assert v["is_lspace"] is False
        assert v["witness"] == {"k": 2, "a": 1}
        assert v["witness_is_dual"] is True

    def test_json_and_text_agree(self, capsys):
        main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]", "--json"])
        payload = json.loads(capsys.readouterr().out)
        main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]"])
        text = capsys.readouterr().out
        assert payload["outputs"]["verdict"]["witness"] == {"k": 5, "a": 2}
        assert "k=5, a=2" in text

    def test_deterministic_output(self, capsys):
        runs = []
        for _ in range(2):
            main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]", "--json"])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("elapsed_ms")
            runs.append(payload)
        assert runs[0] == runs[1]


class TestCliOtherVerbs:
    def test_h1(self, capsys):
        assert main(["h1", "SFS[S2; 0; 2/3, -2/5]"]) == 0
        assert "|H1| = 4" in capsys.readouterr().out
        assert main(["h1", "SFS[S2; -1; 1/2, 1/2]"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_normalize(self, capsys):
        assert main(["normalize", "SFS[S2; 0; 5/3, 1/2]"]) == 0
        assert "SFS[S2; 1; 1/2, 2/3]" in capsys.readouterr().out

    def test_threshold(self, capsys):
        assert main(["threshold", "--", "-2", "2/3", "2/3"]) == 0
        assert "r <= 1/2" in capsys.readouterr().out

    def test_twist_scan(self, capsys):
        rc = main(["twist-scan", "--b", "-1", "--r1", "2/3", "--r2", "1/3",
                   "--alpha", "0", "--beta", "-1", "--alpha3", "1", "--beta3", "0",
                   "--m", "0", "--l", "3", "--window=-5..5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "S2xS1" in out
        assert "n >= 6" in out
        # r2 = 2/3 - 1/1000: one L-space segment between the window and the
        # not-L-space tail from n = 335
        argv = ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000",
                "--alpha", "1", "--beta", "0", "--alpha3", "1", "--beta3", "1",
                "--window=-5..5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "segment: L-space for all 6 <= n <= 334" in out
        assert "not an L-space for all n >= 335" in out
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)["outputs"]["report"]
        assert [p["n"] for p in report["points"]] == list(range(-5, 6))
        assert report["segments"] == [{
            "from_n": 6, "to_n": 334, "is_lspace": True, "band_base": -1,
            "threshold": {"b": -1, "r1": {"num": 1, "den": 3},
                          "r2": {"num": 1997, "den": 3000}, "kind": "UpClosed",
                          "boundary": {"num": 1, "den": 335}, "attained": True}}]

    def test_twist_scan_rejects_bad_determinant(self, capsys):
        rc = main(["twist-scan", "--b", "-1", "--r1", "2/3", "--r2", "1/3",
                   "--alpha", "2", "--beta", "1", "--alpha3", "1", "--beta3", "2"])
        capsys.readouterr()
        assert rc == 2

    def test_family_list_and_run(self, capsys):
        assert main(["family", "list"]) == 0
        out = capsys.readouterr().out
        assert "tunnel2-A" in out and "K(3,2;5,n)" in out
        assert main(["family", "run", "tunnel2-A", "--window=-10..10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["guarantee_confirmed"] is True
        assert main(["family", "run", "does-not-exist"]) == 2
        capsys.readouterr()

    def test_family_run_classifies_each_member_once(self, capsys, monkeypatch):
        from seifert_lspace import classify_family, find_family, twist
        spec = find_family("tunnel2-B")
        gap_points = sum(len(classify_family(m, (-5, 5)).points) - 11
                         for m in spec.members)
        calls = []
        evaluate_point = twist.evaluate_point

        def counting(member, n):
            calls.append(n)
            return evaluate_point(member, n)

        monkeypatch.setattr(twist, "evaluate_point", counting)
        assert main(["family", "run", "tunnel2-B", "--window=-5..5"]) == 0
        capsys.readouterr()
        assert len(calls) == len(spec.members) * 11 + gap_points

    def test_family_run_with_params(self, capsys):
        assert main(["family", "run", "p+q", "--params", "p=7,q=3",
                     "--window=-3..3"]) == 0
        assert "K(7,3;10,n)" in capsys.readouterr().out
        assert main(["family", "run", "p+q", "--params", "p=7"]) == 2
        capsys.readouterr()
        assert main(["family", "run", "berge-vii", "--params", "a=1,b=2"]) == 0
        assert "torus knot" in capsys.readouterr().out


class TestGoldenJson:
    def test_decide_payload_schema(self, capsys):
        main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]", "--json"])
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_ms")
        assert payload == {
            "command": "decide",
            "inputs": {"form": "SFS[S2; -2; 2/3, 2/3, 2/3]"},
            "outputs": {
                "form": {
                    "base": "S2", "b": -2,
                    "slopes": [{"num": 2, "den": 3}] * 3,
                    "degenerate": 0,
                    "text": "SFS[S2; -2; 2/3, 2/3, 2/3]",
                },
                "classification": {"tag": "SmallSFS", "h1": None, "h1_infinite": True},
                "verdict": {
                    "is_lspace": False,
                    "reason": "InfiniteH1",
                    "witness": {"k": 2, "a": 1},
                    "witness_is_dual": True,
                    "search_bound": 2,
                    "infinite_h1": True,
                },
            },
        }

    def test_threshold_payload_schema(self, capsys):
        main(["threshold", "--json", "--", "-2", "2/3", "2/3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["threshold"] == {
            "b": -2,
            "r1": {"num": 2, "den": 3},
            "r2": {"num": 2, "den": 3},
            "kind": "DownClosed",
            "boundary": {"num": 1, "den": 2},
            "attained": True,
        }


class TestReproduce:
    def test_full_corpus_passes(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert out.count("PASS") == len(CASES)

    def test_only_filter(self, capsys):
        assert main(["reproduce", "--only", "tunnel2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1
        assert main(["reproduce", "--only", "no-such-case"]) == 2
        capsys.readouterr()

    def test_perturbed_expectation_fails_naming_case(self, capsys):
        bad = Case("broken-case", "a deliberately wrong expectation",
                   lambda: [Check("always wrong", False, got=1, want=2)])
        lines = []
        passed, failed, names = run_corpus(cases=CASES[:2] + (bad,), emit=lines.append)
        assert failed == 1 and names == ["broken-case"]
        assert any("FAIL broken-case" in ln for ln in lines)

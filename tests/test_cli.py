"""CLI behavior: JSON payloads, exit codes, round-trips, determinism."""

import hashlib
import json
import time
from math import comb

import pytest

from mdsx import kernels
from mdsx.cli import main
from mdsx.constructions import GrsSpec, grs, subset_sums
from mdsx.errors import InvalidSpec
from mdsx.serialize import code_from_spec


@pytest.fixture
def spec_file(tmp_path):
    def write(payload, name="spec.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)
    return write


GRS_SPEC = {"field": {"p": 5, "m": 1},
            "code": {"type": "grs", "nodes": [0, 1, 2, 3], "k": 2}}
EX1_SPEC = {"field": {"p": 2, "m": 2},
            "code": {"type": "dual",
                     "inner": {"type": "egrs", "nodes": [0, 1, 2, 3],
                               "k": 3}}}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_grs_summary(self, capsys, spec_file):
        rc, out, err = run(capsys, ["build", spec_file(GRS_SPEC)])
        assert rc == 0
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (4, 2, 3)
        assert payload["mds"] is True
        assert "[4,2,3]" in err

    def test_egrs_summary(self, capsys, spec_file):
        spec = {"field": {"p": 2, "m": 2},
                "code": {"type": "egrs", "nodes": [0, 1, 2, 3], "k": 3}}
        rc, out, _ = run(capsys, ["build", spec_file(spec), "--json"])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (5, 3, 3)
        assert payload["mds"] is True

    def test_round_trip_same_code(self, capsys, spec_file):
        rc, out, _ = run(capsys, ["build", spec_file(GRS_SPEC)])
        emitted = json.loads(out)
        _, original = code_from_spec(GRS_SPEC)
        _, reloaded = code_from_spec(
            {"field": emitted["field"], "code": emitted["code"]})
        assert original.same_code(reloaded)

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"field": {"p": 5,,}', encoding="utf-8")
        rc, _, err = run(capsys, ["build", str(p)])
        assert rc == 2
        assert ":" in err  # carries line/column info

    @staticmethod
    def _dual_chain_text(depth):
        """JSON of a spec whose code part is `depth` dual levels over the
        [3,2] GRS code over GF(5), written out since json.dumps recurses."""
        return ('{"field": {"p": 5, "m": 1}, "code": '
                + '{"type": "dual", "inner": ' * depth
                + '{"type": "grs", "nodes": [0, 1, 2], "k": 2}'
                + "}" * (depth + 1))

    def test_deeply_nested_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text(self._dual_chain_text(5000), encoding="utf-8")
        rc, _, err = run(capsys, ["build", str(p)])
        assert rc == 2
        assert "nested too deeply" in err

    def test_deeply_nested_spec_is_invalid(self):
        spec = json.loads(self._dual_chain_text(0))
        for _ in range(2000):
            spec["code"] = {"type": "dual", "inner": spec["code"]}
        with pytest.raises(InvalidSpec, match="nested too deeply"):
            code_from_spec(spec)

    def test_nine_hundred_nested_levels_still_build(self, capsys, tmp_path):
        # an even number of duals is the code itself
        p = tmp_path / "deep.json"
        p.write_text(self._dual_chain_text(900), encoding="utf-8")
        rc, out, _ = run(capsys, ["build", str(p), "--json"])
        assert rc == 0
        assert json.loads(out)["k"] == 2
        _, code = code_from_spec(json.loads(self._dual_chain_text(900)))
        assert code.same_code(grs(GrsSpec.make(code.ctx, [0, 1, 2], 1, 2)))

    def test_invalid_spec_exits_2(self, capsys, spec_file):
        bad = {"field": {"p": 5, "m": 1}, "code": {"type": "nonsense"}}
        rc, _, err = run(capsys, ["build", spec_file(bad)])
        assert rc == 2

    @pytest.mark.parametrize("code", [
        {"type": "grs", "nodes": [0, 1, 2, 8],
         "multipliers": [1, 1, 1, -1], "k": 2},
        {"type": "egrs", "nodes": [0, 1.9, 2, 3], "k": 2},
        {"type": "grs", "nodes": [0, 1, 2, 3],
         "multipliers": [1, 1, 1, 5], "k": 2},
        {"type": "grs", "nodes": [0, 1, 2, 3], "multipliers": -1, "k": 2},
        {"type": "egrs", "nodes": [0, 1, 2, 3], "multipliers": 6, "k": 2},
    ], ids=["node-8", "node-1.9", "multiplier-5", "scalar--1", "scalar-6"])
    def test_grs_entries_outside_the_field_exit_2(self, capsys, spec_file,
                                                   code):
        rc, out, err = run(capsys, ["build", spec_file(
            {"field": {"p": 5, "m": 1}, "code": code})])
        assert (rc, out) == (2, "")
        assert "is not an encoding in [0, 5)" in err

    @pytest.mark.parametrize("mult", [[1, 2, 3, 4], 4])
    def test_grs_entries_inside_the_field_build(self, capsys, spec_file,
                                                mult):
        spec = {"field": {"p": 5, "m": 1},
                "code": {"type": "grs", "nodes": [0, 1, 2, 3],
                         "multipliers": mult, "k": 2}}
        rc, out, _ = run(capsys, ["build", spec_file(spec), "--json"])
        assert rc == 0
        ctx, got = code_from_spec(json.loads(out))
        assert got.same_code(grs(GrsSpec.make(ctx, [0, 1, 2, 3], mult, 2)))

    @pytest.mark.parametrize("spec", [
        {"field": {"p": 5, "m": 1},
         "code": {"type": "grs", "nodes": [0, 1, 2, 3], "k": 2.7}},
        {"field": {"p": 5, "m": 1},
         "code": {"type": "prs", "k": "2"}},
        {"field": {"p": 5, "m": 1},
         "code": {"type": "egrs", "nodes": [0, 1, 2, 3], "k": True}},
        {"field": {"p": 5, "m": 1},
         "code": {"type": "roth-lempel", "nodes": [0, 1, 2, 3], "k": 3,
                  "delta": 7.9}},
        {"field": {"p": 2, "m": 3}, "code": {"type": "cyclic", "u": "1"}},
        {"field": {"p": 5.0, "m": 1}, "code": {"type": "prs", "k": 2}},
        {"field": {"p": 5, "m": True}, "code": {"type": "prs", "k": 2}},
        {"field": {"p": 5, "m": 1},
         "code": {"type": "generator", "matrix": {
             "rows": 1, "cols": 2, "entries": [[1, True]]}}},
    ], ids=["k-float", "k-string", "k-bool", "delta-float", "u-string",
            "p-float", "m-bool", "entry-bool"])
    def test_non_integer_spec_values_exit_2(self, capsys, spec_file, spec):
        rc, out, err = run(capsys, ["build", spec_file(spec)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")

    def test_roth_lempel_without_nodes_exits_2(self, capsys, spec_file):
        spec = {"field": {"p": 5, "m": 1},
                "code": {"type": "roth-lempel", "nodes": [], "k": 3,
                         "delta": 0}}
        rc, out, err = run(capsys, ["build", spec_file(spec)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")

    def test_noncanonical_modulus_rejected(self, capsys, spec_file):
        bad = dict(GRS_SPEC)
        bad["field"] = {"p": 2, "m": 2, "modulus": [1, 0, 1]}
        rc, _, err = run(capsys, ["build", spec_file(bad)])
        assert rc == 2

    @pytest.mark.parametrize("modulus", [7, None, True, 2.5],
                             ids=["int", "null", "bool", "float"])
    def test_non_list_modulus_rejected(self, capsys, spec_file, modulus):
        bad = dict(GRS_SPEC)
        bad["field"] = {"p": 2, "m": 2, "modulus": modulus}
        rc, out, err = run(capsys, ["build", spec_file(bad)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")


class TestCovering:
    def test_example_1(self, capsys, spec_file):
        rc, out, _ = run(capsys, ["covering", spec_file(EX1_SPEC)])
        assert rc == 0
        payload = json.loads(out)
        assert payload["rho"] == 3

    def test_deep_holes_flag(self, capsys, spec_file):
        rc, out, _ = run(capsys,
                         ["covering", spec_file(EX1_SPEC), "--deep-holes"])
        payload = json.loads(out)
        assert len(payload["representatives"]) \
            == payload["num_deep_hole_cosets"]

    def test_budget_exit_3(self, capsys, spec_file):
        rc, _, err = run(capsys,
                         ["covering", spec_file(GRS_SPEC), "--budget", "3"])
        assert rc == 3
        assert "budget" in err.lower()

    def test_representative_search_honours_budget(self, capsys, spec_file,
                                                  monkeypatch):
        # PRS [6,3]/GF(5), rho = 2: the sweep fits 150 syndromes, but the
        # search for its deep-hole representatives tests more vectors
        spec = spec_file({"field": {"p": 5, "m": 1},
                          "code": {"type": "prs", "k": 3}})
        for size, tested in (
                # 16 bytes force batches of one nonzero entry: 160 vectors
                (16, 160),
                # by default one batch of all C(6, 2) * 4^2 vectors
                (kernels._CHUNK_BYTES, 240)):
            monkeypatch.setattr(kernels, "_CHUNK_BYTES", size)
            for argv in (["covering", spec, "--deep-holes"],
                         ["deep-holes", spec]):
                assert run(capsys, argv + ["--budget", "150"])[0] == 3
                assert run(capsys,
                           argv + ["--budget", str(tested - 1)])[0] == 3
                assert run(capsys, argv + ["--budget", str(tested)])[0] == 0
        assert run(capsys, ["covering", spec, "--budget", "150"])[0] == 0

    # sha256 of the JSON stdout on PRS [6,3]/GF(5): the representatives
    # are read as encodings, with no field elements in between
    @pytest.mark.parametrize("argv, digest", [
        (["covering", "--deep-holes"],
         "0971e8fd7438eb2cbcef528f905308a250c37408f1157ed08c761ea75379ed45"),
        (["deep-holes"],
         "0971e8fd7438eb2cbcef528f905308a250c37408f1157ed08c761ea75379ed45"),
        (["deep-holes", "--limit", "3"],
         "7737d6a35f419adb060cbc17e206fc55b9550fd2cc44de599c59ccaa359b2da4"),
    ])
    def test_representatives_json_unchanged(self, capsys, spec_file, argv,
                                            digest):
        spec = spec_file({"field": {"p": 5, "m": 1},
                          "code": {"type": "prs", "k": 3}})
        rc, out, _ = run(capsys, argv[:1] + [spec, "--json"] + argv[1:])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["covering", "--deep-holes", "--limit"], ["deep-holes", "--limit"]])
    def test_negative_limit_exits_2(self, capsys, spec_file, argv):
        # PRS [5,2]/GF(4) has 3 deep-hole cosets; a negative limit counted
        # from the end of their list
        spec = spec_file({"field": {"p": 2, "m": 2},
                          "code": {"type": "prs", "k": 2}})
        for limit in ("-1", "-2"):
            rc, out, err = run(capsys, argv[:1] + [spec, "--json"]
                               + argv[1:] + [limit])
            assert (rc, out) == (2, "")
            assert "negative" in err
        for limit, shown in (("0", 0), ("2", 2), ("9", 3)):
            rc, out, _ = run(capsys, argv[:1] + [spec, "--json"]
                             + argv[1:] + [limit])
            assert rc == 0
            assert len(json.loads(out)["representatives"]) == shown

    def test_full_space_rho_zero(self, capsys, spec_file):
        spec = {"field": {"p": 5, "m": 1},
                "code": {"type": "generator",
                         "matrix": {"rows": 2, "cols": 2,
                                    "entries": [[1, 0], [0, 1]]}}}
        rc, out, _ = run(capsys, ["covering", spec_file(spec)])
        assert json.loads(out)["rho"] == 0


class TestOtherCommands:
    def test_mindist(self, capsys, spec_file):
        rc, out, _ = run(capsys, ["mindist", spec_file(GRS_SPEC)])
        assert json.loads(out)["d"] == 3

    def test_weights(self, capsys, spec_file):
        spec = {"field": {"p": 2, "m": 2},
                "code": {"type": "extend",
                         "inner": {"type": "cyclic", "u": 2},
                         "u": [1, 1, 1, 1, 1]}}
        rc, out, _ = run(capsys, ["weights", spec_file(spec)])
        assert json.loads(out)["weights"] == [1, 0, 0, 0, 45, 0, 18]

    def test_dual(self, capsys, spec_file):
        rc, out, _ = run(capsys, ["dual", spec_file(GRS_SPEC)])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (4, 2, 3)

    def test_dual_of_full_space_round_trips(self, capsys, spec_file):
        spec = {"field": {"p": 5, "m": 1},
                "code": {"type": "generator",
                         "matrix": {"rows": 2, "cols": 2,
                                    "entries": [[1, 0], [0, 1]]}}}
        rc, out, _ = run(capsys, ["dual", spec_file(spec)])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (2, 0, None)
        assert payload["mds"] is False
        # the emitted zero-code spec is itself ingestable
        rc2, out2, _ = run(capsys, ["build", spec_file(
            {"field": payload["field"], "code": payload["code"]},
            name="zero.json")])
        assert rc2 == 0
        assert json.loads(out2)["k"] == 0

    def test_extend_u(self, capsys, spec_file):
        rc, out, _ = run(capsys, ["extend", spec_file(GRS_SPEC),
                                  "--u", "0,3,3,4"])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (5, 2, 4)
        assert payload["mds"] is True

    def test_extend_g(self, capsys, spec_file):
        # the column is applied to the canonical generator; (4,1) is the
        # image of the coefficient-extension vector under it
        rc, out, _ = run(capsys, ["extend", spec_file(GRS_SPEC),
                                  "--g", "4,1"])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (5, 2, 4)

    def test_extend_needs_exactly_one(self, capsys, spec_file):
        rc, _, _ = run(capsys, ["extend", spec_file(GRS_SPEC)])
        assert rc == 2

    def test_deep_holes_vector(self, capsys, spec_file):
        dual_spec = {"field": {"p": 5, "m": 1},
                     "code": {"type": "dual", "inner": GRS_SPEC["code"]}}
        rc, out, _ = run(capsys, ["deep-holes", spec_file(dual_spec),
                                  "--vector", "0,3,3,4"])
        payload = json.loads(out)
        assert payload["is_deep_hole"] is True
        assert payload["distance"] == payload["rho"] == 2

    def test_set_check_scan(self, capsys):
        rc, out, _ = run(capsys, ["set-check", "--field", "2", "3",
                                  "--k", "3"])
        payload = json.loads(out)
        assert all(v is False for v in payload["verdicts"].values())

    def test_set_check_single_delta(self, capsys):
        rc, out, _ = run(capsys, ["set-check", "--field", "2", "2",
                                  "--k", "2", "--delta", "0"])
        assert json.loads(out)["verdicts"] == {"0": True}

    def test_set_check_pole_form(self, capsys):
        # reciprocal 2-products of (3 - a) for a in {0,1,2} over GF(5)
        # are {1,2,3}; delta = 0 and 4 avoid them
        rc, out, _ = run(capsys, ["set-check", "--field", "5", "1",
                                  "--elements", "0,1,2", "--k", "2",
                                  "--pi", "3"])
        verdicts = json.loads(out)["verdicts"]
        assert verdicts == {"0": True, "1": False, "2": False,
                            "3": False, "4": True}

    def test_set_check_builds_the_subset_sums_once(self, capsys,
                                                   monkeypatch):
        # the sums do not depend on delta: one DP for the whole scan
        from mdsx import cli
        calls = []

        def counted(s, k):
            calls.append(k)
            return subset_sums(s, k)
        monkeypatch.setattr(cli, "subset_sums", counted)
        rc, out, _ = run(capsys, ["set-check", "--field", "2", "3",
                                  "--k", "3"])
        assert rc == 0 and len(json.loads(out)["verdicts"]) == 8
        assert calls == [3]

    def test_generator_shorthand_spec(self, capsys, spec_file):
        spec = {"field": {"p": 5, "m": 1},
                "generator": {"rows": 2, "cols": 4,
                              "entries": [[1, 1, 1, 1], [0, 1, 2, 3]]}}
        rc, out, _ = run(capsys, ["build", spec_file(spec)])
        payload = json.loads(out)
        assert (payload["n"], payload["k"], payload["d"]) == (4, 2, 3)

    def test_example_3_covering(self, capsys, spec_file):
        spec = {"field": {"p": 2, "m": 3},
                "code": {"type": "dual",
                         "inner": {"type": "egrs",
                                   "nodes": [0, 1, 2, 3, 4, 5, 6, 7],
                                   "k": 4}}}
        rc, out, _ = run(capsys, ["covering", spec_file(spec)])
        payload = json.loads(out)
        assert payload["rho"] == 3 and (payload["n"], payload["k"]) == (9, 5)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        rc, out, _ = run(capsys, ["verify", "examples-1-2-3"])
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_reduced_params(self, capsys):
        rc, out, _ = run(capsys, ["verify", "thm7-identity", "--qs", "4",
                                  "--samples", "3", "--seed", "1"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["params"] == {"qs": [4], "samples": 3, "seed": 1}

    def test_unknown_suite_exits_2(self, capsys):
        rc, _, _ = run(capsys, ["verify", "no-such-suite"])
        assert rc == 2

    def test_unknown_suite_raises_in_api(self):
        import pytest as _pytest
        from mdsx.errors import UnknownSuite
        from mdsx.suites import run_suite
        with _pytest.raises(UnknownSuite):
            run_suite("no-such-suite")

    def test_non_prime_power_q_exits_2(self, capsys):
        from mdsx.errors import UnknownSuite
        from mdsx.suites import run_suite
        rc, _, _ = run(capsys, ["verify", "thm7-identity", "--qs", "6"])
        assert rc == 2
        with pytest.raises(UnknownSuite):
            run_suite("thm7-identity", {"qs": [6]})

    @pytest.mark.parametrize("argv, params", [
        (["thm6-exhaustive", "--max-n", "1"], {"max_n": 1}),
        (["thm14-consistency", "--qs", "2"], {"qs": [2]}),
        (["thm12-identity", "--qs", "3"], {"qs": [3]}),
    ], ids=["thm6-max-n-1", "thm14-q2", "thm12-q3"])
    def test_run_with_no_case_exits_2(self, capsys, argv, params):
        # these parameters leave the suite nothing to check: no PASS
        from mdsx.errors import UnknownSuite
        from mdsx.suites import run_suite
        rc, out, err = run(capsys, ["verify", *argv])
        assert (rc, out) == (2, "")
        assert "no case" in err
        with pytest.raises(UnknownSuite):
            run_suite(argv[0], params)

    @pytest.mark.parametrize("m", ["-1", "0", "1"])
    def test_cyclic_degree_below_two_exits_2(self, capsys, m):
        # --ms -1 crashed on 2 ** m with a TypeError (exit 1), and --ms 0
        # was refused as a run with no case
        from mdsx.errors import BadU
        from mdsx.suites import run_suite
        rc, out, err = run(capsys, ["verify", "cyclic-cu", "--ms", m])
        assert (rc, out) == (2, "")
        assert f"need m >= 2, got {m}" in err
        with pytest.raises(BadU):
            run_suite("cyclic-cu", {"ms": [int(m)]})

    def test_field_derived_from_any_prime_power_q(self):
        from mdsx.suites import run_suite
        report = run_suite("thm7-identity", {"qs": [17], "samples": 1})
        assert report["passed"] is True
        assert report["cases"][0]["q"] == 17

    def test_reports_are_byte_stable(self, capsys):
        _, out1, _ = run(capsys, ["verify", "prs-conjecture", "--qs", "4,5",
                                  "--json"])
        _, out2, _ = run(capsys, ["verify", "prs-conjecture", "--qs", "4,5",
                                  "--json"])
        assert out1 == out2

    # sha256 of `mdsx verify <suite> --json --seed S` stdout at seeds 7 and
    # 11 (thm6-exhaustive also with --max-n 3): the reports must stay
    # byte-identical, and the seed-7 values gate the verify-suites benchmark
    # (bench/workloads.py).
    @pytest.mark.parametrize("suite, extra, digest", [
        ("thm6-exhaustive", ["--seed", "7", "--max-n", "3"],
         "6906e7ecaa6675fa41dba280b15113a91dd81c492fc6f135ea18f72ac034bbcb"),
        ("thm7-identity", ["--seed", "7"],
         "3a2aeccdadda097fa2e002c87896125c1550b6693f5d5b406980422e88280271"),
        ("thm12-identity", ["--seed", "7"],
         "f25f52d4eaab1c09b7c985e66bab837bc0f3014f1fce2a25df4797466d260b1f"),
        ("thm14-consistency", ["--seed", "7"],
         "24dde7ea00c8f962c4953965e3164494b5b85bc6212345e7c4d88190013f99bb"),
        ("examples-1-2-3", ["--seed", "7"],
         "eb7b08b3e09794a2b00418859a5069bc2783169433bad0b856f811bfdce801f5"),
        ("prs-conjecture", ["--seed", "7"],
         "246bac7750358430f5121166bfec2484e9830d5518114baebc705e26e4b8427c"),
        ("cyclic-cu", ["--seed", "7"],
         "c50209dcae61a6c3134b9d8468bb044a9c11551822ba9db43c68c356a57c273d"),
        ("dp-vs-bruteforce", ["--seed", "7"],
         "2c5b052317cf32a004988d250991fd47b87105e5d93f424000656d0163cdfac4"),
        ("thm6-exhaustive", ["--seed", "7"],
         "9e8228b37a3214d274665d1cb39a74a1737ce2f8126f7971c779ea84433bb1f2"),
        ("thm6-exhaustive", ["--seed", "11", "--max-n", "3"],
         "bfbec28109bfecc3399e0a717048109bfc126a8d0dd3bbb601d1a63bc4c07fcc"),
        ("thm7-identity", ["--seed", "11"],
         "f8b12cb62b8b9babaf6f221e14b2692c24dfdbe8c9d2830396eea0151ed10ab8"),
        ("thm12-identity", ["--seed", "11"],
         "4b5a227a131bc618f5c232969dd3bd55976e78029a98f02707f075b24baa40aa"),
        ("thm14-consistency", ["--seed", "11"],
         "abf61bbb959c6122fd7bf07ae208ea705b59858ebc5da69ea0e85867be31466e"),
        ("examples-1-2-3", ["--seed", "11"],
         "503aee18627bb74222a9caef35696cae6e67c5035fd33efa7f56e0b1cb6ced5a"),
        ("prs-conjecture", ["--seed", "11"],
         "69141e7cb168092208df849ca123e1981f5440eab20b80f073702057bbc568ab"),
        ("cyclic-cu", ["--seed", "11"],
         "9b8b4609caf1182876cd19189eb881fd87d07e66166cae04a84e1ca7d4805cfd"),
        ("dp-vs-bruteforce", ["--seed", "11"],
         "403191c2f648f0a516782eee5b07e98af7eb4f730a4cbfd35a5a5e985a73c107"),
        ("thm6-exhaustive", ["--seed", "11"],
         "cc4b9be3fb5a29af562f8a830f661ff93d1faf435ec4fded8351dcf0e95c187d"),
    ])
    def test_reports_match_recorded_digests(self, capsys, suite, extra,
                                            digest):
        rc, out, _ = run(capsys, ["verify", suite, "--json"] + extra)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_thm6_at_q7_checks_every_u_in_seconds(self, capsys):
        # 392 GRS codes of length 2..4 over GF(7) (two multiplier sets per
        # node set), every one of their 7^n vectors u
        t0 = time.monotonic()
        rc, out, _ = run(capsys, ["verify", "thm6-exhaustive", "--qs", "7",
                                  "--max-n", "4", "--json"])
        elapsed = time.monotonic() - t0
        assert rc == 0 and elapsed < 10
        cases = json.loads(out)["cases"]
        assert [(c["n"], c["codes"]) for c in cases] \
            == [(n, comb(7, n) * 2 * (n - 1)) for n in (2, 3, 4)]
        assert [c["u_checked"] for c in cases] \
            == [c["codes"] * 7 ** c["n"] for c in cases]
        assert all(c["ok"] for c in cases)

    def test_thm6_counts_every_u_against_the_budget(self, capsys):
        # 3^3 vectors u for the codes of length 3; every covering sweep
        # fits 26
        argv = ["verify", "thm6-exhaustive", "--qs", "3", "--max-n", "3"]
        rc, out, err = run(capsys, argv + ["--budget", "26"])
        assert (rc, out) == (3, "") and "budget" in err.lower()
        assert run(capsys, argv + ["--budget", "27"])[0] == 0

    def test_an_explicit_budget_reaches_the_suite(self, capsys):
        # thm7-identity's own budget is 8192; a --budget equal to the
        # library default 2^24 was dropped, so only 5 of the 7 codes over
        # GF(9) had their dual's radius checked
        argv = ["verify", "thm7-identity", "--qs", "9", "--samples", "2",
                "--json"]
        for budget in (2 ** 24 - 1, 2 ** 24):
            rc, out, _ = run(capsys, argv + ["--budget", str(budget)])
            report = json.loads(out)
            assert rc == 0 and report["params"]["budget"] == budget
            assert report["cases"][0]["covering_checked"] == 7
        report = json.loads(run(capsys, argv)[1])
        assert "budget" not in report["params"]
        assert report["cases"][0]["covering_checked"] == 5

    @pytest.mark.parametrize("suite, flag", [
        ("thm7-identity", "--samples"), ("thm6-exhaustive", "--max-n")])
    def test_negative_count_exits_2(self, capsys, suite, flag):
        # --samples -1 ran no sample and passed
        rc, out, err = run(capsys, ["verify", suite, flag, "-1"])
        assert (rc, out) == (2, "")
        assert "negative" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("suite", ["thm7-identity", "thm6-exhaustive"])
    def test_verify_budget_below_one_exits_2(self, capsys, suite, budget):
        # thm7-identity took -1 and 0, skipped every covering check and
        # passed; thm6-exhaustive refused them as a budget overrun (exit 3)
        rc, out, err = run(capsys, ["verify", suite, "--budget", budget,
                                    "--json"])
        assert (rc, out) == (2, "")
        assert "not positive" in err

    def test_budget_one_is_a_budget(self, capsys):
        # the smallest budget passes the parser and reaches the suite,
        # which refuses its first enumeration
        rc, out, err = run(capsys, ["verify", "thm6-exhaustive", "--budget",
                                    "1", "--json"])
        assert (rc, out) == (3, "") and "budget" in err.lower()

    def test_build_outputs_byte_stable(self, capsys, spec_file):
        path = spec_file(EX1_SPEC)
        _, out1, _ = run(capsys, ["build", path, "--json"])
        _, out2, _ = run(capsys, ["build", path, "--json"])
        assert out1 == out2

    def test_build_output_is_a_fixed_point(self, capsys, tmp_path):
        # feeding the emitted spec back in reproduces it byte for byte
        p1 = tmp_path / "first.json"
        p1.write_text(json.dumps(GRS_SPEC), encoding="utf-8")
        _, out1, _ = run(capsys, ["build", str(p1), "--json"])
        p2 = tmp_path / "second.json"
        p2.write_text(out1, encoding="utf-8")
        _, out2, _ = run(capsys, ["build", str(p2), "--json"])
        assert out1 == out2


class TestUsage:
    @pytest.mark.parametrize("budget", ["0", "-1", "-16777216", "x"])
    @pytest.mark.parametrize("command", ["build", "mindist", "weights",
                                         "dual", "covering", "deep-holes"])
    def test_budget_below_one_exits_2(self, capsys, spec_file, command,
                                      budget):
        # a budget of 0 or less was taken and refused as an overrun (exit 3)
        rc, out, err = run(capsys, [command, spec_file(GRS_SPEC), "--budget",
                                    budget])
        assert (rc, out) == (2, "")
        assert "--budget" in err

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "thm6-exhaustive", "--qs", "a,b"],
        ["verify", "thm6-exhaustive", "--qs", "3,"],
        ["verify", "cyclic-cu", "--ms", "2,x"],
        ["set-check", "--field", "2", "3", "--k", "1", "--elements", "1,y"],
    ], ids=["qs-letters", "qs-trailing-comma", "ms", "elements"])
    def test_non_integer_list_exits_2(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert "comma-separated ints" in err

    @pytest.mark.parametrize("flag", [
        ["--delta", "9"], ["--delta", "-1"], ["--pi", "8"],
        ["--elements", "1,8"]], ids=["delta", "negative-delta", "pi",
                                     "elements"])
    def test_set_check_value_outside_the_field_exits_2(self, capsys, flag):
        # GF(8): 9 is no encoding, and was silently read as 1
        rc, out, err = run(capsys, ["set-check", "--field", "2", "3",
                                    "--k", "1", *flag])
        assert (rc, out) == (2, "")
        assert "[0, 8)" in err

    @pytest.mark.parametrize("field", [["2", "0"], ["2", "-1"], ["0", "1"]],
                             ids=["m-zero", "m-negative", "p-zero"])
    def test_set_check_field_below_one_exits_2(self, capsys, field):
        # field_new's ValueError escaped main as a traceback (exit 1)
        rc, out, err = run(capsys, ["set-check", "--field", *field,
                                    "--k", "1"])
        assert (rc, out) == (2, "")
        assert "--field" in err and "not positive" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["build", "/nonexistent/path.json"])
        assert rc == 2

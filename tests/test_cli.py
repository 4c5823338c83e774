import contextlib
import importlib
import io
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tadic import cli, dwork, polytope, sums
from tadic.arith import FieldContext, field_context
from tadic.cli import (
    RunConfig,
    build_config,
    main,
    parse_laurent,
    read_config_file,
    run,
)
from tadic.errors import ParseError, TheoremViolation

CTX3 = FieldContext(3, 1)
CTX4 = FieldContext(2, 2)


class TestParser:
    def test_sperber(self):
        f = parse_laurent("x1 + x2 + x1^-1*x2^-1", CTX3)
        assert f.n == 2
        assert [u for u, _ in f.terms] == [(-1, -1), (0, 1), (1, 0)]
        assert all(c == CTX3.one() for _, c in f.terms)

    def test_integer_coefficients_reduce(self):
        f = parse_laurent("4*x1 + 2*x1^2", CTX3)
        assert dict(f.terms) == {(1,): CTX3.one(), (2,): CTX3.from_int(2)}

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_laurent("2*x1", FieldContext(2, 1))
        assert err.value.offset == 0

    def test_generator_notation(self):
        f = parse_laurent("g^1*x1^3", CTX4)
        assert dict(f.terms) == {(3,): CTX4.generator}
        assert parse_laurent("g^3*x1", CTX4).terms[0][1] == CTX4.one()

    def test_bare_generator_needs_power(self):
        with pytest.raises(ParseError):
            parse_laurent("g*x1", CTX4)

    def test_subtraction_and_merge(self):
        f = parse_laurent("x1^2 - x1 + 2*x1", CTX3)
        assert dict(f.terms) == {(1,): CTX3.one(), (2,): CTX3.one()}

    def test_cancellation_rejected(self):
        with pytest.raises(ParseError):
            parse_laurent("x1 - x1 + x2", CTX3)

    def test_repeated_variable_multiplies(self):
        f = parse_laurent("x1*x1*x2^-1", CTX3)
        assert [u for u, _ in f.terms] == [(2, -1)]

    def test_missing_variable_padded(self):
        f = parse_laurent("x3 + x1", CTX3)
        assert f.n == 3
        assert [u for u, _ in f.terms] == [(0, 0, 1), (1, 0, 0)]

    def test_syntax_errors_carry_offsets(self):
        for text, at in [("", 0), ("x1 +", 4), ("x1 * * x2", 5), ("y1", 0), ("x1^", 3)]:
            with pytest.raises(ParseError) as err:
                parse_laurent(text, CTX3)
            assert err.value.offset == at

    def test_constant_only_rejected(self):
        with pytest.raises(ParseError):
            parse_laurent("1", CTX3)


class TestConfig:
    def test_flags_beat_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("p = 5\nprec-t = 8\nseed = 3\n# note\n")
        cfg = build_config(["sum", "x1", "--config", str(cfgfile), "--p", "3"])
        assert cfg.p == 3 and cfg.prec_t == 8 and cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        with pytest.raises(ParseError):
            read_config_file(str(cfgfile))
            build_config(["sum", "x1", "--config", str(cfgfile)])

    def test_config_values_are_parsed_like_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("poly = -1*x1\nwhat = trace\nk = 1,2\noverride-nondegenerate = yes\n")
        cfg = build_config(["verify", "--config", str(cfgfile)])
        assert (cfg.poly, cfg.what, cfg.k_list) == ("-1*x1", "trace", (1, 2))
        assert cfg.command == "verify" and cfg.override_nondegenerate is True

    @pytest.mark.parametrize(
        "line",
        [
            "what = foo",
            "p = abc",
            "command = hodge",
            "command = bogus",
            "config = other.cfg",
            "m_list = 1",
            "override-nondegenerate = maybe",
        ],
    )
    def test_config_escapes_end_in_json_error(self, line, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        code, doc = run_json(["verify", "x1", "--p", "2", "--config", str(cfgfile)], capsys)
        assert code == 1
        assert set(doc) == {"error"}

    def test_verify_refuses_an_unknown_target(self):
        with pytest.raises(cli._UsageError, match="verify target"):
            run(RunConfig(command="verify", poly="x1", p=2, what="foo"))

    def test_lists_parse(self):
        cfg = build_config(["np", "x1", "--m", "1,2", "-k", "2"])
        assert cfg.m_list == (1, 2) and cfg.k_list == (2,)


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCommands:
    def test_hodge_example(self, capsys):
        code, doc = run_json(["hodge", "x1^3", "--p", "7"], capsys)
        assert code == 0
        verts = [
            [int(x["num"]), int(y["num"])]
            for x, y in doc["polygon"]["vertices"]
        ]
        assert verts == [[0, 0], [1, 0], [2, 2], [3, 6]]
        assert doc["denominator"] == 3 and doc["depth"] == 2

    def test_verify_trace_example(self, capsys):
        code, doc = run_json(
            ["verify", "x1", "--p", "2", "--what", "trace", "-k", "1"], capsys
        )
        assert code == 0
        assert doc["pass"] is True
        assert doc["modulus"].startswith("pi^")

    def test_verify_char(self, capsys):
        code, doc = run_json(
            ["verify", "x1^3", "--p", "3", "--what", "char", "--prec-t", "4"], capsys
        )
        assert code == 0 and doc["pass"] is True

    def test_verify_all_walks_each_torus_once(self, capsys, monkeypatch):
        # the trace and char checks both read the k = 1 and k = 2 tori
        walked = []
        walk = sums.torus_trace_counts
        monkeypatch.setattr(
            sums, "torus_trace_counts", lambda f, k, prec: walked.append(k) or walk(f, k, prec)
        )
        args = ["verify", "x1+x2+x1^-1*x2^-1", "--p", "3", "--deg-s", "3", "-k", "2,1"]
        code, doc = run_json(args, capsys)
        assert code == 0 and doc["pass"] is True
        assert sorted(walked) == [1, 2, 3]
        trace, char = (run_json(args + ["--what", w], capsys)[1]["checks"] for w in ("trace", "char"))
        assert doc["checks"] == trace + char

    def test_verify_all_past_the_dimension_walks_at_the_trace_precision(self, capsys, monkeypatch):
        # the char check refuses deg_s > dim before walking, so the trace
        # check walks at its own precision, not with deg_s's guard digits
        precs = []
        walk = sums.torus_trace_counts

        def traced(f, k, prec):
            precs.append(prec)
            assert prec < 50, "walked with the unbounded guard digits"
            return walk(f, k, prec)

        monkeypatch.setattr(sums, "torus_trace_counts", traced)
        args = ["verify", "x1+x2+x1^-1*x2^-1", "--p", "3", "--deg-s", "1000000"]
        code, doc = run_json(args, capsys)
        assert code == 1 and "exceeds the matrix dimension 19" in doc["error"]["message"]
        assert precs == [5]  # M + floor(log_3(6 - 1)) at the trace's T-cap 6

    def test_np_flags(self, capsys):
        code, doc = run_json(
            ["np", "x1^3", "--p", "7", "--m", "1", "--deg-s", "2", "--prec-t", "12"],
            capsys,
        )
        assert code == 0
        assert doc["flags"] == {"t_ordinary": "true", "rigid": "true", "ordinary": "true"}
        assert doc["nondegenerate"] == "nondegenerate"
        assert "1" in doc["np_pi"]

    def test_np_prints_reduced_hodge_fractions(self, capsys):
        # the q-Hodge polygon of x^2 + x^4 at p = 2, a = 3 lives on the grid
        # of 1/4 (D = 4): its ordinates print reduced, 18/4 as 9/2
        args = ["np", "x1^2+x1^4", "--p", "2", "--a", "3", "--deg-s", "2"]
        code, doc = run_json(args, capsys)
        assert code == 0
        verts = [[f"{c['num']}/{c['den']}" for c in v] for v in doc["hp_q"]["vertices"]]
        assert verts == [
            ["0/1", "0/1"],
            ["1/1", "0/1"],
            ["2/1", "3/4"],
            ["3/1", "9/4"],
            ["4/1", "9/2"],
            ["5/1", "15/2"],
        ]
        assert doc["hp_q"]["vertices"][4][1] == {"num": "9", "den": "2"}
        assert doc["hp_absolute"]["vertices"][2][1] == {"num": "1", "den": "4"}

    def test_sum_round_trip(self, capsys):
        code, doc = run_json(
            ["sum", "x1", "--p", "3", "--m", "1", "--prec-p", "3", "--prec-t", "6"],
            capsys,
        )
        assert code == 0
        # S(1) = (1+T) + (1+T)^-1 over F_3: constant term 2
        assert doc["sums"]["1"]["coeffs"]["0"] == "2"
        assert doc["specialized"]["1"]["1"]["ring"] == "Zp[pi_psi]"

    def test_sum_walks_each_torus_once_for_every_level(self, capsys, monkeypatch):
        walked = []
        walk = sums.torus_trace_counts

        def traced(f, k, prec):
            walked.append((k, prec))
            return walk(f, k, prec)

        monkeypatch.setattr(sums, "torus_trace_counts", traced)
        code, doc = run_json(["sum", "x1^3+x1", "--p", "7", "-k", "3,1", "--m", "1,2"], capsys)
        assert code == 0
        # M + binomial_period(N, 7) = 5 covers the T-adic sum and m = 1, 2
        assert walked == [(3, 5), (1, 5)]
        monkeypatch.setattr(sums, "torus_trace_counts", walk)
        f = parse_laurent("x1^3+x1", field_context(7, 1))
        M, N = int(doc["sums"]["3"]["prec_p"]), int(doc["sums"]["3"]["cap"])
        for k in (3, 1):
            assert doc["sums"][str(k)] == cli.jseries(sums.s_f_T(f, k, M, N))
            for m in (1, 2):
                assert doc["specialized"][str(m)][str(k)] == cli.jcyc(sums.s_f_psi(f, k, m, M))

    def test_congruence_default_window(self, capsys):
        code, doc = run_json(
            ["congruence", "x1", "--p", "3", "--m", "1", "--prec-t", "30", "--prec-p", "3"],
            capsys,
        )
        assert code == 0
        checks = doc["reports"]["1"]["checks"]
        assert [c["status"] for c in checks] == ["pass", "pass"]
        assert [c["k"] for c in checks] == [2, 3]

    def test_survey_deterministic(self, capsys):
        args = ["survey", "x1^2 + x1", "--p", "3", "--samples", "4", "--seed", "11",
                "--prec-t", "10"]
        code1, doc1 = run_json(args, capsys)
        code2, doc2 = run_json(args, capsys)
        assert code1 == code2 == 0 and doc1 == doc2
        assert doc1["sample_count"] == 4

    def test_faces_report(self, capsys):
        code, doc = run_json(
            ["faces", "x1 + x2 + x1^-1*x2^-1", "--p", "3", "--hodge-depth", "2"],
            capsys,
        )
        assert code == 0
        assert doc["whole"] == [True, True, True]
        assert len(doc["faces"]) == 3
        assert all(fv["verdicts"] == [True, True, True] for fv in doc["faces"])

    def test_dwork_char_series(self, capsys):
        code, doc = run_json(["dwork", "x1", "--p", "2", "--deg-s", "2"], capsys)
        assert code == 0
        assert doc["char_series"][0]["coeffs"] == {"0": ["1"]}
        assert doc["certified_modulus"].startswith("pi^")

    def test_prec_t_default_resolves_per_command(self, capsys):
        code, doc = run_json(["dwork", "x1^3", "--p", "3"], capsys)
        assert code == 0 and doc["certified_modulus"] == "pi^6"
        code, doc = run_json(["sum", "x1", "--p", "3"], capsys)
        assert code == 0 and doc["sums"]["1"]["cap"] == "16"

    def test_explicit_prec_t_is_honoured_by_operator_commands(self, capsys):
        code, doc = run_json(["dwork", "x1^3", "--p", "3", "--prec-t", "16"], capsys)
        assert code == 0 and doc["certified_modulus"] == "pi^16"
        assert doc["basis_bound"] == 8
        assert doc["char_series"][1]["cap"] == "48"  # pi^16 on the 1/3 grid
        code, doc = run_json(
            ["verify", "x1", "--p", "3", "--what", "trace", "--prec-t", "8"], capsys
        )
        assert code == 0 and doc["modulus"] == "pi^8, p^4"

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = main(["hodge", "x1^2", "--p", "3", "--out", str(out)])
        assert code == 0 and capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == "hodge"

    def test_byte_identical_runs(self, capsys):
        args = ["lfun", "x1 + x2", "--p", "2", "--deg-s", "2", "--prec-t", "8"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_jobs_sharing_caches_repeat_byte_identically(self, capsys, monkeypatch):
        # A runs on cold caches, B shares its fields at another precision,
        # and A runs again on what both left behind
        monkeypatch.setattr(sums, "_TABLES", {})
        field_context.cache_clear()
        job_a = ["np", "x1+x2+g^1*x1^-1*x2^-1", "--p", "3", "--deg-s", "3", "--m", "1"]
        job_b = ["lfun", "x1^2+x1^-1", "--p", "3", "--deg-s", "4", "--prec-t", "10"]
        outs = []
        for args in (job_a, job_b, job_a):
            assert main(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[2] == outs[0] and outs[1] != outs[0]
        assert len(sums._TABLES) > 3


class TestExitCodes:
    def test_usage(self, capsys):
        assert main([]) == 1
        assert main(["bogus"]) == 1
        capsys.readouterr()

    def test_parse_error(self, capsys):
        code, doc = run_json(["sum", "2*x1", "--p", "2"], capsys)
        assert code == 1 and doc["error"]["type"] == "ParseError"

    def test_precision_underflow(self, capsys):
        code, doc = run_json(
            ["dwork", "x1", "--p", "2", "--basis", "1", "--prec-t", "6"], capsys
        )
        assert code == 2 and doc["error"]["type"] == "PrecisionError"

    def test_domain_error(self, capsys):
        # origin-only support never defines a sum
        code, doc = run_json(["np", "x1^0", "--p", "3"], capsys)
        assert code == 1

    def test_unwritable_out_file_ends_in_json_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code, doc = run_json(["sum", "x1", "--p", "3", "--out", str(out)], capsys)
        assert code == 1 and doc["error"]["type"] == "FileNotFoundError"
        assert not out.parent.exists()

    def test_config_file_that_is_not_utf8_ends_in_json_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"p = 3\n\xff\xfe\n")
        code, doc = run_json(["sum", "x1", "--config", str(cfgfile)], capsys)
        assert code == 1 and doc["error"]["type"] == "ParseError"
        assert doc["error"]["message"].endswith("not UTF-8 text (at byte 6)")

    def test_size_limits_fail_before_any_torus(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("torus walked before the size check")

        monkeypatch.setattr(sums, "torus_trace_counts", refuse)
        for args, limit in (
            (["congruence", "x1+x2+x1^-1*x2^-1", "--p", "3", "--m", "2"], "field-size"),
            (["sum", "x1+x2", "--p", "3", "-k", "2,7"], "torus"),
            (["sum", "x1", "--p", "2", "-k", "21"], "field-size"),
        ):
            code, doc = run_json(args, capsys)
            assert code == 1 and doc["error"]["type"] == "DomainError"
            assert f"{limit} limit" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "target, args, message",
        [
            ("congruence_modulus", ["congruence", "x1", "--p", "3", "--m", "6"], "field-size limit"),
            ("CycContext", ["np", "x1", "--p", "3", "--m", "3", "--deg-s", "1"], "below one pi-digit"),
        ],
        ids=["congruence modulus", "np ring"],
    )
    def test_level_checks_fail_before_the_level_ring(
        self, target, args, message, capsys, monkeypatch
    ):
        # the level-m objects have size p^m: nothing of that size is built
        # before the checks that refuse the level
        def refuse(*args):
            raise AssertionError(f"{target} built before the size check")

        monkeypatch.setattr(sums, target, refuse)
        code, doc = run_json(args, capsys)
        assert code in (1, 2) and message in doc["error"]["message"]

    def test_operator_dimension_limit_fails_before_any_kernel(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel expanded before the dimension check")

        monkeypatch.setattr(dwork, "_kernel_product", refuse)
        for basis in ("12", "1000000"):
            code, doc = run_json(
                ["dwork", "x1+x2+x1^-1*x2^-1", "--p", "3", "--basis", basis], capsys
            )
            assert code == 1 and doc["error"]["type"] == "DomainError"
            assert "dimension limit 150" in doc["error"]["message"]
        # counted, not bounded: x1^2 has 2B + 1 basis points of degree <= B
        code, doc = run_json(["verify", "x1^2", "--p", "2", "--basis", "75"], capsys)
        assert code == 1 and "dimension 151 exceeds" in doc["error"]["message"]

    def test_criterion_dimension_limit_fails_before_any_minor(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("criterion work started before the dimension check")

        monkeypatch.setattr(dwork, "_kernel_product", refuse)
        monkeypatch.setattr(dwork, "_det_mod", refuse)
        for depth, dim in (("7", "85"), ("8", "109"), ("100000000", "at least")):
            code, doc = run_json(
                ["faces", "x1+x2+x1^-1*x2^-1", "--p", "3", "--hodge-depth", depth], capsys
            )
            assert code == 1 and doc["error"]["type"] == "DomainError"
            assert f"dimension {dim}" in doc["error"]["message"]
            assert "criterion dimension limit 64" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["faces", "x1", "--p", "3", "--prec-p", "0"],
            ["faces", "x1", "--p", "3", "--prec-p", "-1"],
            ["dwork", "x1", "--p", "3", "--basis", "-1"],
            ["dwork", "x1", "--p", "3", "--prec-p", "0"],
            ["verify", "x1", "--p", "3", "--prec-t", "0"],
            ["dwork", "x1", "--p", "3", "--deg-s", "-1"],
            ["verify", "x1", "--p", "3", "--deg-s", "-1"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_operator_inputs_fail_before_any_kernel(self, args, capsys, monkeypatch):
        # out of range is a domain error (exit 1), as `sum --prec-p 0` is;
        # exit 2 stays for a read past certified precision
        def refuse(*args):
            raise AssertionError("kernel expanded before the range check")

        monkeypatch.setattr(dwork, "_kernel_product", refuse)
        code, doc = run_json(args, capsys)
        assert code == 1 and doc["error"]["type"] == "DomainError"
        # a negative --deg-s gets the sums route's words
        want = "need deg_s >= 0" if "--deg-s" in args else "job needs"
        assert want in doc["error"]["message"]

    def test_unbounded_cone_box_fails_before_the_scan(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("cone box scanned before the size check")

        monkeypatch.setattr(polytope.DegreeData, "in_cone_reduced", refuse)
        code, doc = run_json(["hodge", "x1^100000*x2^100000+x2^-100000", "--p", "3"], capsys)
        assert code == 1 and doc["error"]["type"] == "DomainError"
        assert "box limit 262144" in doc["error"]["message"]

    def test_missing_poly(self, capsys):
        code, doc = run_json(["np", "--p", "3"], capsys)
        assert code == 1 and doc["error"]["type"] == "UsageError"

    def test_internal_invariant_failure(self, capsys, monkeypatch):
        # exit 3 is reserved for bugs; force one through the dispatch table
        def boom(cfg, f, doc):
            raise TheoremViolation("forced")

        monkeypatch.setitem(cli.COMMANDS, "hodge", (boom, *cli.COMMANDS["hodge"][1:]))
        code, doc = run_json(["hodge", "x1", "--p", "2"], capsys)
        assert code == 3 and doc["error"]["type"] == "TheoremViolation"

    def test_pi_window_underflow(self, capsys):
        # one pi-digit at m=2 over F_5 needs a T-cap of 20
        code, doc = run_json(
            ["np", "x1", "--p", "5", "--m", "2", "--prec-t", "8"], capsys
        )
        assert code == 2 and doc["error"]["type"] == "PrecisionError"


CORPUS = json.loads((Path(__file__).resolve().parent / "cli_corpus.json").read_text())
CORPUS_IDS = [
    (" ".join(e["argv"]) or "no command") + (f" [{e['config']}]" if "config" in e else "") for e in CORPUS
]


class TestErrorCorpus:
    """Byte-exact stdout and exit codes of recorded invocations: each size
    limit, config escape and bad precision, k = 0, three variables, a
    missing polynomial or command, a few successful hodge runs, and
    successful congruence, np and sum runs that reduce and specialize at
    p = 2 and p = 3, and document shapes no golden pins (integer keys past
    9, each verify target alone, the faces default depth, an empty survey),
    and an np run whose nondegeneracy search walks the tori over F_25 and
    F_625 and leaves a face open.  An entry with a `before_fix` field records what the
    invocation did before its library-level refusal was added."""

    @pytest.mark.parametrize("entry", CORPUS, ids=CORPUS_IDS)
    def test_invocation_is_unchanged(self, entry, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if "config" in entry:
            (tmp_path / "run.cfg").write_text(entry["config"] + "\n")
        assert main(list(entry["argv"])) == entry["exit"]
        assert capsys.readouterr().out == entry["stdout"]


class TestCommandTable:
    def test_readme_lists_exactly_the_commands(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("| command      | what it prints |", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"^\| `(\w+)`", section, re.M) == list(cli.COMMANDS)

    def test_run_refuses_an_unknown_command(self):
        with pytest.raises(cli._UsageError, match="unknown command 'bogus'"):
            run(RunConfig(command="bogus"))

    @pytest.mark.parametrize("command, name", [("lfun", "l_function"), ("cfun", "c_function")])
    def test_series_rows_call_the_module_binding(self, command, name, monkeypatch):
        # a wrapper installed on the cli module (as the benchmark tracer does)
        # must see every lfun and cfun job
        seen = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: seen.append(args[1:]) or real(*args))
        doc = run(RunConfig(command=command, poly="x1", p=3, deg_s=1, prec_t=6))
        assert seen == [(1, 4, 6)] and doc["command"] == command and len(doc["coeffs"]) == 2


def test_importing_the_package_leaves_dataclasses_out():
    # dataclasses imports inspect, whose cost every fresh interpreter
    # would pay on importing tadic
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import sys, tadic, tadic.cli; print('dataclasses' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_readme_names_resolve():
    # every backticked `module.name`, `tadic.module.name` or `_private` in
    # the README names something a module of tadic has, so a rename or a
    # removal cannot leave the README behind
    pkg = Path(cli.__file__).resolve().parent
    modules = {
        path.stem: importlib.import_module(f"tadic.{path.stem}")
        for path in pkg.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    readme = (pkg.parent.parent / "README.md").read_text()
    missing = []
    for name in sorted(set(re.findall(r"`([\w.]+?)(?:\(\))?`", readme))):
        head, *attrs = name.removeprefix("tadic.").split(".")
        if name.endswith(".py"):
            continue
        if name.startswith("_"):
            found = any(hasattr(mod, name) for mod in modules.values())
        elif name.startswith("tadic.") or (attrs and head in modules):
            obj = modules.get(head)
            for attr in attrs:
                obj = getattr(obj, attr, None)
            found = obj is not None
        else:
            continue
        if not found:
            missing.append(name)
    assert missing == []


# short argv over every command: p <= 7, a <= 3, n <= 2, up to three terms
# with exponents in [-3, 4]^n, and flags drawn from small ranges
SHORT_FLAGS = {
    "--deg-s": st.integers(0, 4),
    "--m": st.lists(st.integers(1, 2), min_size=1, max_size=2).map(lambda v: ",".join(map(str, v))),
    "-k": st.lists(st.integers(1, 3), min_size=1, max_size=2).map(lambda v: ",".join(map(str, v))),
    "--prec-t": st.integers(0, 24),
    "--basis": st.integers(0, 6),
    "--hodge-depth": st.integers(0, 8),
    "--samples": st.integers(0, 3),
    "--what": st.sampled_from(cli.VERIFY_TARGETS),
}


@st.composite
def short_argv(draw):
    n = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[st.integers(-3, 4)] * n), min_size=1, max_size=3))
    coeffs = st.sampled_from(["", "2*", "g^1*", "g^3*", "g^5*"])
    poly = "+".join(draw(coeffs) + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(u)) for u in exps)
    argv = [draw(st.sampled_from(list(cli.COMMANDS))), poly]
    argv += ["--p", str(draw(st.sampled_from([2, 3, 5, 7]))), "--a", str(draw(st.integers(1, 3)))]
    for flag in draw(st.lists(st.sampled_from(list(SHORT_FLAGS)), max_size=4, unique=True)):
        argv += [flag, str(draw(SHORT_FLAGS[flag]))]
    return argv


class _JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _JobTimeout


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(short_argv())
# box sizes past 2^63 (the cone box counted by len(range) raised OverflowError)
@example(["hodge", "x1", "--p", "3", "--hodge-depth", "99999999999999999999"])
@example(["np", "x1^99999999999999999999", "--p", "3"])
def test_every_short_input_ends_in_one_document(argv):
    # a certified answer (exit 0) or a documented refusal (exit 1 or 2),
    # within 5 s, as one JSON document on stdout and nothing else
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except _JobTimeout:
        pytest.fail(f"still running after 5 s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    text = out.getvalue()
    assert code in (0, 1, 2), (argv, text)
    assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
    assert isinstance(json.loads(text), dict)

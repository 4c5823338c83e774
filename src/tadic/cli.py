"""Command line surface: configuration, commands, JSON reports.

Everything emitted is exact and deterministic: rationals as numerator and
denominator decimal strings, residues as decimal strings, dictionary keys
sorted at dump time.  Exit codes: 0 success, 1 usage or input error,
2 precision underflow, 3 violated internal identity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import CycElement, binomial_period, field_context
from .dwork import (
    ZqPi,
    char_c_crosscheck,
    char_series,
    facial_criterion,
    psi_a_matrix,
    verify_trace_formula,
)
from .errors import (
    DomainError,
    IntegralityError,
    ParseError,
    PrecisionError,
    TadicError,
    TheoremViolation,
)
from .polytope import (
    LaurentPoly,
    hodge_polygon,
    hodge_polygon_absolute,
    newton_data,
    parse_laurent,
)
from .series import NewtonPolygon, SSeries, TSeries
from .sums import (
    TorusWalks,
    check_sum,
    congruence_check,
    c_function,
    l_function,
    np_report,
    s_f_T,
    s_f_psi,
    survey_family,
    torus_walks,
)

VERIFY_TARGETS = ("trace", "char", "all")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class RunConfig(NamedTuple):
    """Resolved invocation: every knob a command may read.

    prec_t is the T-adic cap for sum-side series and doubles as the
    pi-adic cap for the operator side; left unset it resolves per command
    (see _prec_t).  hodge_depth and basis resolve to polytope-dependent
    defaults when left unset.
    """

    command: str
    poly: str = ""
    p: int = 3
    a: int = 1
    m_list: tuple = ()
    prec_p: int = 4
    prec_t: int | None = None
    deg_s: int = 2
    basis: int | None = None
    hodge_depth: int | None = None
    k_list: tuple = ()
    seed: int = 0
    samples: int = 20
    what: str = "all"
    override_nondegenerate: bool = False
    out: str = ""


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in str(text).split(",") if x.strip() != "")
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}", 0)


def read_config_file(path: str) -> dict:
    """key=value lines, '#' comments; keys use the flag spellings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        # read() decodes the whole file at once: err.start is its byte offset
        raise ParseError(f"{path}: not UTF-8 text", err.start) from None
    out = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"{path}:{lineno}: expected key=value", 0)
        key, val = (part.strip() for part in body.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _config_argv(path: str) -> list:
    """The file's entries spelled as command-line arguments, so the
    command's own parser checks each value with the flag's type and
    choices."""
    argv, poly = [], []
    for key, val in read_config_file(path).items():
        if key == "poly":
            poly = ["--", val]
        elif key == "override_nondegenerate":
            if val.lower() in ("1", "true", "yes"):
                argv.append("--override-nondegenerate")
            elif val.lower() not in ("0", "false", "no"):
                raise ParseError(f"{path}: override-nondegenerate={val!r} is not a boolean", 0)
        else:
            argv.append(f"--{key.replace('_', '-')}={val}")
    return argv + poly


class _UsageError(TadicError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@lru_cache(maxsize=1)
def _options() -> argparse.ArgumentParser:
    """The options every command takes, built once and shared by each
    subparser through parents=."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("poly", nargs="?", default="", help="polynomial text, e.g. 'x1^3 + g^1*x2'")
    shared.add_argument("--config", default="", help="key=value file; flags win")
    shared.add_argument("--p", type=int, help="prime")
    shared.add_argument("--a", type=int, help="extension degree, q = p^a")
    shared.add_argument("--m", help="comma list of character orders p^m")
    shared.add_argument("--prec-p", type=int, dest="prec_p", help="p-adic digits")
    shared.add_argument("--prec-t", type=int, dest="prec_t", help="T- (and pi-) adic cap")
    shared.add_argument("--deg-s", type=int, dest="deg_s", help="s-degree window")
    shared.add_argument("--basis", type=int, help="operator basis degree bound")
    shared.add_argument(
        "--hodge-depth", type=int, dest="hodge_depth", help="polygon/criterion depth on the 1/D grid"
    )
    shared.add_argument("-k", "--k", dest="k", help="comma list of torus extension steps")
    shared.add_argument("--seed", type=int, help="survey RNG seed")
    shared.add_argument("--samples", type=int, help="survey sample count")
    shared.add_argument("--what", choices=VERIFY_TARGETS, help="verify target")
    shared.add_argument(
        "--override-nondegenerate",
        action="store_true",
        default=None,
        dest="override_nondegenerate",
        help="attest nondegeneracy when the certificate search is inconclusive",
    )
    shared.add_argument("--out", help="write the JSON document here instead of stdout")
    return shared


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of `commands`, every
    command when None.  A subparser parses and reports errors the same in
    either, so a job needs only its own; the full parser lists every
    command in `--help` and in the refusal of an unknown one."""
    ap = _Parser(
        prog="tadic",
        description="Exact T-adic exponential sums, L/C-functions, Newton "
        "polygons, and the operator-side cross checks.",
    )
    sub = ap.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS if commands is None else commands:
        text = COMMANDS[name][1]
        sub.add_parser(name, help=text, description=text, parents=[_options()])
    return ap


@lru_cache(maxsize=None)
def _parser(command=None) -> argparse.ArgumentParser:
    """build_parser for one command, or for all when None; parsing does
    not mutate a parser, so every call shares one."""
    return build_parser(None if command is None else (command,))


def _given(ns: argparse.Namespace) -> dict:
    """The RunConfig fields a parsed argument list sets."""
    out = {}
    for name in RunConfig._fields[1:]:  # all but command
        val = getattr(ns, name, None)
        if val not in (None, ""):
            out[name] = val
    if ns.m is not None:
        out["m_list"] = _parse_int_list(ns.m)
    if ns.k is not None:
        out["k_list"] = _parse_int_list(ns.k)
    return out


def _choose() -> str:
    return f"choose a command: {', '.join(COMMANDS)}"


def build_config(argv) -> RunConfig:
    argv = list(argv)
    # the top-level parser takes no option, so a command comes first
    ns = _parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    if not ns.command:
        raise _UsageError(_choose())
    given = {}
    if ns.config:
        try:
            file_ns, unknown = _parser(ns.command).parse_known_args(
                [ns.command, *_config_argv(ns.config)]
            )
        except _UsageError as err:
            raise _UsageError(f"{ns.config}: {err}") from None
        if file_ns.config:
            unknown.append("config")
        if unknown:
            raise ParseError(f"unknown config key {unknown[0].lstrip('-').split('=')[0]!r}", 0)
        given = _given(file_ns)
    given.update(_given(ns))  # flags win
    return RunConfig(command=ns.command, **given)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def jfrac(x) -> dict:
    fr = Fraction(x)
    return {"num": str(fr.numerator), "den": str(fr.denominator)}


def jpolygon(P: NewtonPolygon) -> dict:
    return {
        "vertices": [[jfrac(x), jfrac(y)] for x, y in P.vertices],
        "certified_upto": jfrac(P.certified_upto),
    }


def jseries(z) -> dict:
    """A TSeries or a ZqPi: the certified window and the stored residues."""
    tuples = isinstance(z, ZqPi)
    return {
        "ring": "Zq[[pi]]" if tuples else "Z[[T]]",
        "den": str(z.den),
        "prec_p": str(z.prec),
        "cap": str(z.cap),
        "coeffs": {str(j): [str(x) for x in c] if tuples else str(c) for j, c in z.sorted_items()},
    }


def jcyc(c: CycElement) -> dict:
    return {
        "ring": "Zp[pi_psi]",
        "p": c.ctx.p,
        "m": c.ctx.m,
        "prec_p": str(c.prec),
        "coeffs": [str(x) for x in c.coeffs],
    }


def encode(x):
    """A report value as JSON data, the one place that knows the output
    format: dict keys become strings (before the dump sorts them, so "10"
    sorts before "2"), tuples become lists, rationals, polygons, series and
    cyclotomic elements take the forms above, and an s-series becomes the
    list of its coefficients."""
    kind = type(x)
    if kind is dict:
        return {str(k): encode(v) for k, v in x.items()}
    if kind is list or kind is tuple:
        return [encode(v) for v in x]
    leaf = _LEAVES.get(kind)
    return x if leaf is None else leaf(x)


_LEAVES = {
    Fraction: jfrac,
    NewtonPolygon: jpolygon,
    TSeries: jseries,
    ZqPi: jseries,
    CycElement: jcyc,
    SSeries: lambda F: encode(F.coeffs),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _resolve_basis(cfg: RunConfig, n_pi: int) -> int:
    if cfg.basis is not None:
        return cfg.basis
    return math.ceil(Fraction(n_pi, cfg.p - 1))


# default T-cap of the sums commands and pi-cap of the operator commands;
# 16 pi-digits would make the operator basis enormous
SUMS_PREC_T = 16
OPERATOR_PREC_T = 6


def _prec_t(cfg: RunConfig) -> int:
    """An explicit --prec-t as given, else the command's default."""
    if cfg.prec_t is not None:
        return cfg.prec_t
    return COMMANDS[cfg.command][2]


def cmd_hodge(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    dd = newton_data(f)
    K = cfg.hodge_depth if cfg.hodge_depth is not None else dd.D - 1
    return {
        **doc,
        "rank": dd.rank,
        "denominator": dd.D,
        "depth": K,
        "normalized_volume": dd.normalized_volume(),
        "weights": dd.weight_counts(K),
        "polygon": hodge_polygon(dd, cfg.p, cfg.a, K),
        "polygon_absolute": hodge_polygon_absolute(dd, K),
    }


def cmd_sum(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    sums, specialized = {}, {}
    ks = cfg.k_list or (1,)
    n_t = _prec_t(cfg)
    check_sum(f, max(ks), cfg.prec_p, n_t)  # the largest torus, before any work
    walks = None
    if cfg.m_list:
        # each torus walked once, at the precision the T-adic sum and every
        # level m read it at
        prec = max(cfg.prec_p + binomial_period(n_t, f.ctx.p), *cfg.m_list)
        walks = TorusWalks(f, ks, prec)
    for k in ks:
        sums[k] = s_f_T(f, k, cfg.prec_p, n_t, walks)
        for m in cfg.m_list:
            specialized.setdefault(m, {})[k] = s_f_psi(f, k, m, cfg.prec_p, walks)
    return {**doc, "sums": sums, "specialized": specialized}


def cmd_coeffs(series, cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    """The s-coefficients of series(f, deg_s, M, N): l_function or c_function."""
    S = series(f, cfg.deg_s, cfg.prec_p, _prec_t(cfg))
    return {**doc, "deg_s": cfg.deg_s, "coeffs": S}


def cmd_np(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    return {**doc, **np_report(f, cfg.m_list, cfg.deg_s, cfg.prec_p, _prec_t(cfg))}


def _refuse_negative_deg_s(cfg: RunConfig):
    """char_series' refusal, made before the matrix is built."""
    if cfg.deg_s < 0:
        raise DomainError("need deg_s >= 0")


def cmd_dwork(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    _refuse_negative_deg_s(cfg)
    n_pi = _prec_t(cfg)
    B = _resolve_basis(cfg, n_pi)
    Mx = psi_a_matrix(f, B, cfg.prec_p, n_pi)
    deg_s = min(cfg.deg_s, Mx.dim)
    return {
        **doc,
        "basis_bound": B,
        "dimension": Mx.dim,
        "certified_modulus": f"pi^{Fraction(Mx.cert_cap(), Mx.D)}",
        "deg_s": deg_s,
        "char_series": char_series(Mx, deg_s),
    }


def cmd_verify(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    if cfg.what not in VERIFY_TARGETS:
        raise _UsageError(f"verify target {cfg.what!r} is not one of {', '.join(VERIFY_TARGETS)}")
    if cfg.what in ("char", "all"):
        _refuse_negative_deg_s(cfg)
    n_pi = _prec_t(cfg)
    B = _resolve_basis(cfg, n_pi)
    Mx = psi_a_matrix(f, B, cfg.prec_p, n_pi)
    ks = cfg.k_list or (1,)
    walks = None
    # tori both checks read are walked once; past the matrix dimension the
    # char check refuses before it walks, and its guard digits are unbounded
    if cfg.what == "all" and cfg.deg_s <= Mx.dim:
        walks = torus_walks(f, ks, cfg.deg_s, cfg.prec_p, Mx.torus_cap())
    checks = []
    if cfg.what in ("trace", "all"):
        checks += [verify_trace_formula(Mx, f, k, walks) for k in ks]
    if cfg.what in ("char", "all"):
        checks.append(char_c_crosscheck(Mx, f, cfg.deg_s, walks))
    doc = {**doc, "pass": all(c["pass"] for c in checks), "checks": checks}
    if len(checks) == 1:
        doc["modulus"] = checks[0]["modulus"]
    return doc


def cmd_congruence(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    reports = {
        m: congruence_check(
            f, m, cfg.k_list or None, cfg.prec_p, _prec_t(cfg), cfg.override_nondegenerate
        )
        for m in cfg.m_list or (1,)
    }
    return {**doc, "reports": reports}


def cmd_survey(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    rep = survey_family(
        [u for u, _ in f.terms],
        cfg.p,
        cfg.a,
        cfg.samples,
        cfg.seed,
        cfg.deg_s,
        cfg.prec_p,
        _prec_t(cfg),
    )
    del doc["poly"]  # the samples draw their own coefficients: echo the support
    return {**doc, **rep}


def cmd_faces(cfg: RunConfig, f: LaurentPoly, doc: dict) -> dict:
    K = cfg.hodge_depth if cfg.hodge_depth is not None else newton_data(f).D
    fr = facial_criterion(f, K, cfg.prec_p)
    printed = ("label", "vertices", "depth", "denominator", "verdicts")
    return {
        **doc,
        "depth": K,
        "denominator": fr["whole"]["denominator"],
        "whole": fr["whole"]["verdicts"],
        "conjunction": fr["conjunction"],
        "faces": [{key: face[key] for key in printed} for face in fr["faces"]],
    }


# One row per command: (handler, help, --prec-t when it is not given); a
# handler maps (cfg, parsed polynomial, document header) to the document.
# The lfun and cfun rows look l_function and c_function up when they run, so
# a wrapper later bound to those names in this module (the tracer's) is seen.
COMMANDS = {
    "hodge": (cmd_hodge, "combinatorial lower-bound polygon of the support", SUMS_PREC_T),
    "sum": (cmd_sum, "T-adic torus sums, optionally specialized to a character order", SUMS_PREC_T),
    "lfun": (lambda *a: cmd_coeffs(l_function, *a), "L-function coefficients", SUMS_PREC_T),
    "cfun": (lambda *a: cmd_coeffs(c_function, *a), "C-function coefficients", SUMS_PREC_T),
    "np": (cmd_np, "certified Newton polygons and ordinariness flags", SUMS_PREC_T),
    "dwork": (cmd_dwork, "transfer-operator characteristic series", OPERATOR_PREC_T),
    "verify": (cmd_verify, "cross-check the sum side against the operator side", OPERATOR_PREC_T),
    "congruence": (cmd_congruence, "high-degree coefficient congruences of L", SUMS_PREC_T),
    "survey": (cmd_survey, "seeded random-coefficient survey over one support", SUMS_PREC_T),
    "faces": (cmd_faces, "per-face ordinariness determinants", SUMS_PREC_T),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(doc: dict, out_path: str):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


def run(cfg: RunConfig) -> dict:
    if cfg.command not in COMMANDS:
        raise _UsageError(f"unknown command {cfg.command!r}; {_choose()}")
    if not cfg.poly:
        raise _UsageError("this command needs a polynomial")
    f = parse_laurent(cfg.poly, field_context(cfg.p, cfg.a))
    header = {"command": cfg.command, "p": cfg.p, "a": cfg.a, "poly": cfg.poly}
    return encode(COMMANDS[cfg.command][0](cfg, f, header))


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
        _emit(run(cfg), cfg.out)
    except (_UsageError, ParseError, DomainError, OSError) as err:
        kind = "UsageError" if isinstance(err, _UsageError) else type(err).__name__
        _emit({"error": {"type": kind, "message": str(err)}}, "")
        return 1
    except PrecisionError as err:
        _emit({"error": {"type": "PrecisionError", "message": str(err)}}, "")
        return 2
    except (TheoremViolation, IntegralityError) as err:
        _emit({"error": {"type": type(err).__name__, "message": str(err)}}, "")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
